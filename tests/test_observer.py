"""Interface-measurement observer: gain, measured rate, tracking, sign."""

import numpy as np
import pytest

from stefanlab._scheme import one_sided_edge_flux
from stefanlab.cli import bundled_config, parse_config
from stefanlab.errors import NumericalError
from stefanlab.params import PhysicalParams, ScenarioConfig
from stefanlab.runner import convection_rate, initial_fields, simulate
from stefanlab.specfun import gain_sources, gain_term_count

from oracles import (
    ObserverState,
    PlantState,
    fit_decay_rate,
    gain_profile,
    observer_gain,
    oracle_ratio,
    step_observer,
    step_plant,
)

P = PhysicalParams(rho=6570.0, cp=389.5687, k=116.0, dh=111.961, tm=692.68)
ALPHA = P.alpha

# frozen via 40-digit oracle: -lam*s*I1r((lam/alpha)*s^2) at lam=1e-3, s=0.35
GAIN_AT_ORIGIN = -0.0002411722530060843


def cfg_for(**over):
    base = dict(
        s0=0.01, H=100.0, Hhat=1000.0, c=0.001, lam=0.001, sr=0.35,
        grid_n=200, dt=0.05, t_end=10.0, mode="output_feedback",
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_init_linear_estimate():
    theta_hat = initial_fields(cfg_for(grid_n=8))[1]
    expected = [10.0, 8.75, 7.5, 6.25, 5.0, 3.75, 2.5, 1.25, 0.0]
    assert np.allclose(theta_hat, expected, atol=1e-14)


def test_initial_estimate_dominates_initial_profile():
    theta, theta_hat = initial_fields(cfg_for(grid_n=32))
    diff = theta_hat - theta
    assert np.all(diff[:-1] > 0.0)
    assert diff[-1] == 0.0


def test_gain_at_interface_is_half_rule():
    assert observer_gain(0.2, 0.2, 0.003, ALPHA) == pytest.approx(
        -0.003 * 0.2 / 2.0, rel=1e-14
    )


def test_gain_zero_for_zero_lambda():
    assert observer_gain(0.1, 0.2, 0.0, ALPHA) == 0.0


def test_gain_frozen_zinc_value():
    assert observer_gain(0.0, 0.35, 0.001, ALPHA) == pytest.approx(
        GAIN_AT_ORIGIN, rel=1e-12
    )


def test_gain_nonpositive_everywhere():
    s = 0.3
    for x in np.linspace(0.0, s, 50):
        assert observer_gain(x, s, 0.002, ALPHA) <= 0.0


def test_gain_domain_error():
    with pytest.raises(ValueError):
        observer_gain(0.3, 0.2, 0.001, ALPHA)


def test_gain_profile_matches_scalar():
    xi = np.linspace(0.0, 1.0, 33)
    y, lam = 0.27, 0.0015
    prof = gain_profile(y, lam, ALPHA, xi.size - 1)
    for j in (0, 7, 16, 31, 32):
        assert prof[j] == pytest.approx(observer_gain(xi[j] * y, y, lam, ALPHA), rel=1e-12)


def _gain_at(z, n=200, y=0.7):
    """lam with (lam/alpha)*y^2 = z at the zinc domain cap y, where the gain
    bound admits z up to about 1.7e4, and the gain profile there."""
    lam = z * ALPHA / (y * y)
    return y, lam, gain_profile(y, lam, ALPHA, n)


@pytest.mark.parametrize("z", [4e3, 1e4])
def test_gain_profile_matches_exact_series_at_large_argument(z):
    y, lam, prof = _gain_at(z)
    xi = np.arange(prof.size) / (prof.size - 1)
    exact = np.array([observer_gain(x * y, y, lam, ALPHA) for x in xi])
    assert np.max(np.abs(prof / exact - 1.0)) <= 1e-13


def test_gain_profile_matches_mpmath_near_gain_bound():
    import mpmath as mp

    y, lam, prof = _gain_at(1.6e4)
    n = prof.size - 1
    with mp.workdps(40):
        ref = []
        for j in range(n + 1):
            z2 = mp.mpf(lam) / mp.mpf(ALPHA) * (mp.mpf(y) ** 2 - (mp.mpf(j) / n * mp.mpf(y)) ** 2)
            ratio = mp.besseli(1, mp.sqrt(z2)) / mp.sqrt(z2) if z2 > 0 else mp.mpf(1) / 2
            ref.append(float(-mp.mpf(lam) * mp.mpf(y) * ratio))
    assert np.max(np.abs(prof / np.array(ref) - 1.0)) <= 1e-13


def test_gain_profile_refuses_unsummable_gain():
    # the terms of the series pass 1e308 before they start to fall
    with pytest.raises(NumericalError):
        _gain_at(1e6, n=32)
    with pytest.raises(NumericalError):
        _gain_at(float("nan"), n=32)


def _batch_sources(z2s, scales, n):
    out = np.empty((len(z2s), n + 1))
    gain_sources(list(z2s), list(scales), [gain_term_count(z2) for z2 in z2s], n, out)
    return out


def test_batched_gain_series_within_criterion_6_bound():
    """Every row of a batch against the 50-digit series at its own argument
    z2*w, for z2 across the admitted (0, 1.6e4], within criterion 6's bound."""
    import mpmath as mp

    z2s = list(np.geomspace(1e-6, 1.6e4, 20))
    n = 8
    out = _batch_sources(z2s, [1.0] * len(z2s), n)
    xi = np.arange(n + 1) / n
    weight = np.maximum(1.0 - xi * xi, 0.0)
    worst = 0.0
    for z2, row in zip(z2s, out):
        for w, value in zip(weight, row):
            with mp.workdps(50):
                argument = mp.mpf(z2) * mp.mpf(float(w))
            worst = max(worst, abs(value / oracle_ratio(argument, +1) - 1.0))
    assert worst <= 1e-12


def test_batched_gain_rows_match_one_gain_calls():
    # mixed arguments, term counts from 31 to 157 and scales of both signs
    z2s = [2.4, 1.6e4, 0.0, 440.0, 2.2e-3, 37.5]
    scales = [-0.03, 7e-3, 0.0, -1e4, 0.5, 3e-9]
    n = 64
    for order in (slice(None), slice(None, None, -1)):
        batch = _batch_sources(z2s[order], scales[order], n)
        for z2, scale, got in zip(z2s[order], scales[order], batch):
            alone = _batch_sources([z2], [scale], n)
            assert got.tobytes() == alone[0].tobytes(), z2


def test_gain_term_count_leaves_out_under_2e_18_of_the_series():
    # the series' tail past the count against its sum, in 50-digit terms
    import mpmath as mp

    for z2 in [0.0, 5e-324, 1e-6, 0.3, 2.4, 37.5, 440.0, 1.6e4, 1.3e5]:
        count = gain_term_count(z2)
        with mp.workdps(50):
            z2m, term, total, tail = mp.mpf(z2), mp.mpf(0.5), mp.mpf(0), mp.mpf(0)
            for m in range(count + 200):
                if m:
                    term = term * z2m / (4 * m * (m + 1))
                if m < count:
                    total += term
                else:
                    tail += term
            assert tail <= mp.mpf("2e-18") * total, z2
    with pytest.raises(NumericalError, match="needs more than 400 terms"):
        gain_term_count(370.0**2)
    assert gain_term_count(369.99**2) == 400


# the observer's measured rate is the plant's convection rate: the backward
# difference of the measurements, or on the first step -beta*u_x(s0) from the
# plant's own edge flux
def test_velocity_constant_measurement():
    assert convection_rate(0.02, 0.02, 55.0, 0.1, 1e-3) == 0.0


def test_velocity_exact_for_linear_motion():
    assert convection_rate(0.01 + 3e-4, 0.01, 55.0, 0.1, 1e-3) == pytest.approx(3e-3)


def test_velocity_initial_fallback():
    # -beta * u_x(y) with u_x(y) = edge flux / y
    assert convection_rate(0.5, None, -0.615, 0.1, 1.0) == 1.23


def _drive(cfg, steps, qc=80.0):
    """Run plant and observer side by side with a fixed heat flux; the
    observer measures the plant's interface position and rate."""
    theta, theta_hat = initial_fields(cfg)
    st, ob = PlantState(t=0.0, s=cfg.s0, theta=theta), ObserverState(t=0.0, theta_hat=theta_hat)
    for _ in range(steps):
        y = st.s
        edge_flux = one_sided_edge_flux(st.theta, 1.0 / cfg.grid_n)
        v = convection_rate(y, st.s_prev, edge_flux, cfg.dt, P.beta)
        st_next = step_plant(st, qc, cfg.dt, P)
        ob = step_observer(ob, y, v, qc, cfg.dt, cfg, P)
        st = st_next
    return st, ob


def test_zero_gain_observer_is_exact_plant_copy():
    cfg = cfg_for(Hhat=100.0, lam=0.0, grid_n=128)
    st, ob = _drive(cfg, 100)
    assert np.array_equal(st.theta, ob.theta_hat)


def test_zero_error_start_tracks_to_discretization():
    cfg = cfg_for(Hhat=100.0, lam=0.001, grid_n=128)
    st, ob = _drive(cfg, 100)
    scale = np.max(np.abs(st.theta))
    assert np.max(np.abs(st.theta - ob.theta_hat)) < 1e-3 * scale


def test_step_observer_rejects_bad_measurement():
    cfg = cfg_for()
    ob = ObserverState(t=0.0, theta_hat=initial_fields(cfg)[1])
    with pytest.raises(ValueError):
        step_observer(ob, 0.0, 0.0, 50.0, cfg.dt, cfg, P)


def test_error_sign_and_decay_on_zinc_run(zinc_run):
    tr = zinc_run.trace
    # estimation error nonpositive at every node and step, boundary error
    # strictly negative after t = 0
    assert np.all(tr.utilde_max <= 0.0)
    assert np.all(tr.Ttilde0[1:] < 0.0)
    # H1 error collapses and the fitted rate is positive
    assert tr.h1_err[-1] < 1e-4 * tr.h1_err[0]
    assert fit_decay_rate(tr.t, tr.h1_err) > 0.0
    # interface-flux error positive at every step
    assert np.all(tr.utilde_x_s > 0.0)


def test_error_sign_on_smoke_run():
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    tr = simulate(cfg, p).trace
    assert np.all(tr.utilde_max <= 0.0)
    assert np.all(tr.utilde_x_s > 0.0)
