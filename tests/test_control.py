"""Feedback laws, energy bookkeeping, and the control-signal ODE residual."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import RunSummary, runner
from stefanlab.control import field_energy, kernel_mass
from stefanlab.params import PhysicalParams, ScenarioConfig, lambda_upper_bound
from stefanlab.runner import initial_fields

from oracles import (
    ObserverState,
    PlantState,
    kernel_P,
    output_feedback,
    qc_ode_residual,
    state_feedback,
)

P = PhysicalParams(rho=6570.0, cp=389.5687, k=116.0, dh=111.961, tm=692.68)

# frozen direct arithmetic on the zinc scenario at t = 0
QC_STATE_T0 = 237.30115000499998
QC_OUTPUT_T0 = 122.12516384999996
ENERGY_T0 = 173.73421978448275


def cfg_for(**over):
    base = dict(
        s0=0.01, H=100.0, Hhat=1000.0, c=0.001, lam=0.001, sr=0.35,
        grid_n=200, dt=0.05, t_end=10.0, mode="output_feedback",
    )
    base.update(over)
    return ScenarioConfig(**base)


BOUND = lambda_upper_bound(cfg_for(), P.alpha)  # the zinc gain bound, about 1.63 1/s


def _initial_plant(cfg):
    return PlantState(t=0.0, s=cfg.s0, theta=initial_fields(cfg)[0])


def test_state_feedback_zinc_t0_frozen():
    cfg = cfg_for()
    st = _initial_plant(cfg)
    assert state_feedback(st, cfg, P) == pytest.approx(QC_STATE_T0, rel=1e-12)
    assert field_energy(st.theta, st.s, P) == pytest.approx(ENERGY_T0, rel=1e-12)


def test_output_feedback_zinc_t0_frozen():
    cfg = cfg_for()
    ob = ObserverState(t=0.0, theta_hat=initial_fields(cfg)[1])
    qc = output_feedback(ob, cfg.s0, cfg, P)
    assert qc == pytest.approx(QC_OUTPUT_T0, rel=1e-12)


def test_equilibrium_gives_zero_flux():
    cfg = cfg_for()
    st = PlantState(t=0.0, s=cfg.sr, theta=np.zeros(cfg.grid_n + 1))
    assert state_feedback(st, cfg, P) == 0.0
    ob = ObserverState(t=0.0, theta_hat=np.zeros(cfg.grid_n + 1))
    assert output_feedback(ob, cfg.sr, cfg, P) == 0.0


def test_cold_start_flux_sign():
    cfg = cfg_for(H=0.0)
    qc = state_feedback(_initial_plant(cfg), cfg, P)
    expected = cfg.c * P.k * (cfg.sr - cfg.s0) / P.beta
    assert qc == pytest.approx(expected, rel=1e-12)
    assert qc > 0.0


def test_output_feedback_equals_state_feedback_on_true_state():
    cfg = cfg_for()
    st = _initial_plant(cfg)
    ob = ObserverState(t=0.0, theta_hat=st.theta.copy())
    a = state_feedback(st, cfg, P)
    b = output_feedback(ob, st.s, cfg, P)
    assert b == a


def test_internal_energy_values():
    cfg = cfg_for()
    st = _initial_plant(cfg)
    assert field_energy(st.theta, st.s, P) == pytest.approx(ENERGY_T0, rel=1e-12)
    flat = PlantState(t=0.0, s=0.02, theta=np.zeros(65))
    assert field_energy(flat.theta, flat.s, P) == pytest.approx(0.02 / P.beta, rel=1e-14)


def test_field_energy_of_observer_estimate():
    cfg = cfg_for(grid_n=64)
    theta_hat = initial_fields(cfg)[1]
    v = field_energy(theta_hat, cfg.s0, P)
    assert v == pytest.approx(
        cfg.Hhat * cfg.s0**2 / 2 / P.alpha + cfg.s0 / P.beta, rel=1e-12
    )
    # one value per field when the extents come as an array
    both = field_energy(np.stack([theta_hat, theta_hat]), np.array([cfg.s0, cfg.s0]), P)
    assert np.array_equal(both, [v, v])


@given(
    bump=st.floats(min_value=1e-6, max_value=10.0),
    idx=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=60, deadline=None)
def test_flux_weakly_decreases_in_any_sample(bump, idx):
    cfg = cfg_for(grid_n=64)
    st = _initial_plant(cfg)
    theta = st.theta.copy()
    theta[idx] += bump
    hotter = PlantState(t=0.0, s=st.s, theta=theta)
    assert state_feedback(hotter, cfg, P) <= state_feedback(st, cfg, P)


def test_flux_decreasing_in_interface_position():
    cfg = cfg_for()
    st = _initial_plant(cfg)
    ahead = PlantState(t=0.0, s=2 * st.s, theta=st.theta.copy())
    assert state_feedback(ahead, cfg, P) < state_feedback(st, cfg, P)


def test_energy_balance_over_full_run(zinc_run):
    tr = zinc_run.trace
    delta = tr.energy[-1] - tr.energy[0]
    supplied = np.trapezoid(tr.qc, tr.t) / P.k
    assert abs(delta - supplied) / abs(delta) < 1e-2


def test_kernel_mass_zero_gain():
    assert kernel_mass(0.3, 0.0, P.alpha) == 0.0


def test_kernel_mass_against_fine_quadrature():
    s, lam = 0.3, 0.002
    xs = np.linspace(0.0, s, 4001)
    ref = np.trapezoid([kernel_P(x, s, lam, P.alpha) for x in xs], xs)
    assert kernel_mass(s, lam, P.alpha) == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize("lam", [1e-3, 0.5, 0.9 * BOUND], ids=["1e-3", "0.5", "0.9*bound"])
@pytest.mark.parametrize("s", [0.01, 0.1, 0.35, 0.7])
def test_kernel_mass_matches_mpmath_quadrature(s, lam):
    import mpmath as mp

    with mp.workdps(40):
        r = mp.mpf(lam) / mp.mpf(P.alpha)

        def kernel(x):  # (lam/alpha)*s*I1r((lam/alpha)*(s^2 - x^2))
            z = mp.sqrt(r * (mp.mpf(s) ** 2 - x * x))
            return r * s * (mp.besseli(1, z) / z if z > 0 else mp.mpf(1) / 2)

        ref = float(mp.quad(kernel, [0, s]))
    assert kernel_mass(s, lam, P.alpha) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_kernel_mass_elementwise():
    s = np.array([0.0, 0.1, 0.35])
    masses = kernel_mass(s, 0.5, P.alpha)
    assert masses.shape == s.shape
    assert masses.tolist() == [kernel_mass(v, 0.5, P.alpha) for v in s.tolist()]


def test_qc_ode_residual_requires_history():
    cfg = cfg_for()
    short = SimpleNamespace(t=np.array([0.0, 0.05]), qc=np.ones(2), s=np.ones(2),
                            utilde_x_s=np.zeros(2))
    with pytest.raises(ValueError):
        qc_ode_residual(short, cfg, P)


def test_qc_ode_residual_definition_on_synthetic_trace():
    cfg = cfg_for()
    t = np.array([0.0, 1.0, 2.0, 3.0])
    qc = np.array([7.0, 7.0, 7.0, 7.0])
    s = np.full(4, 0.2)
    uex = np.array([2.0, 3.0, 4.0, 5.0])
    trace = SimpleNamespace(t=t, qc=qc, s=s, utilde_x_s=uex)
    res = qc_ode_residual(trace, cfg, P)
    mass = kernel_mass(0.2, cfg.lam, P.alpha)
    expected = cfg.c * qc[:-1] - cfg.c * P.k * (1.0 + mass) * uex[:-1]
    assert np.allclose(res, expected, rtol=1e-12)
    # the library's fold, given the trace as one block, forms the same bits
    columns = {name: np.ones(4) for name in runner._array_fields(runner.Trace)}
    columns.update(vars(trace))
    summary = RunSummary(cfg, P)
    summary.write(runner._trace_of(columns, 4, cfg))
    assert summary.residual[:3].tobytes() == res.tobytes()


def test_qc_ode_residual_zero_error_run_is_pure_decay(equivalence_runs):
    out_run, _ = equivalence_runs
    tr = out_run.trace
    cfg = cfg_for(Hhat=100.0, lam=0.0)
    res = qc_ode_residual(tr, cfg, P)
    # zero estimation error: the flux term vanishes identically, so the
    # residual reduces to the decay defect -c*k*(energy defect)/dt
    assert np.all(tr.utilde_x_s == 0.0)
    defect = np.diff(tr.energy) - np.diff(tr.t) * tr.qc[:-1] / P.k
    expected = -cfg.c * P.k * defect / np.diff(tr.t)
    scale = cfg.c * np.max(tr.qc)
    assert np.allclose(res, expected, atol=1e-9 * scale)
    # differential inequality qc' >= -c*qc within grid tolerance
    tol = ((1.0 / cfg.grid_n) ** 2 + cfg.dt) * scale
    assert np.min(res) > -tol


def test_qc_differential_inequality_on_zinc_run(zinc_run, zinc):
    p, cfg = zinc
    tr = zinc_run.trace
    qdot_plus = np.diff(tr.qc) / np.diff(tr.t) + cfg.c * tr.qc[:-1]
    tol = ((1.0 / cfg.grid_n) ** 2 + cfg.dt) * cfg.c * np.max(tr.qc)
    assert np.min(qdot_plus) >= -tol
