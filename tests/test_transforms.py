"""Kernels and the direct/inverse transform pairs."""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stefanlab.transforms import (
    apply_direct,
    apply_inverse,
    controller_inverse,
    controller_transform,
    psi_kernel,
)

from conftest import checkpoint_member, log_checkpoints
from oracles import (
    PlantState,
    i1_ratio_array,
    j1_ratio_array,
    kernel_P,
    kernel_Q,
    observer_gain,
    state_feedback,
)

ALPHA = 116.0 / (6570.0 * 389.5687)
BETA = 116.0 / (6570.0 * 111.961)
LAM = 0.001
C = 0.001
S = 0.35


def test_kernel_diagonal_rule():
    for x in (0.0, 0.1, 0.3):
        assert kernel_P(x, x, LAM, ALPHA) == pytest.approx(LAM * x / (2 * ALPHA), rel=1e-14)
        assert kernel_Q(x, x, LAM, ALPHA) == pytest.approx(LAM * x / (2 * ALPHA), rel=1e-14)


def test_kernels_vanish_for_zero_gain():
    assert kernel_P(0.1, 0.2, 0.0, ALPHA) == 0.0
    assert kernel_Q(0.1, 0.2, 0.0, ALPHA) == 0.0


def test_kernel_domain_errors():
    for kern in (kernel_P, kernel_Q):
        with pytest.raises(ValueError):
            kern(0.3, 0.2, LAM, ALPHA)
        with pytest.raises(ValueError):
            kern(-0.1, 0.2, LAM, ALPHA)


def test_observer_gain_is_minus_alpha_times_P():
    for x in (0.0, 0.12, 0.3, S):
        assert -ALPHA * kernel_P(x, S, LAM, ALPHA) == pytest.approx(
            observer_gain(x, S, LAM, ALPHA), rel=1e-13
        )


def test_Q_below_P_pointwise():
    for x in np.linspace(0.0, S, 20):
        for y in np.linspace(x, S, 10):
            assert kernel_Q(x, y, LAM, ALPHA) <= kernel_P(x, y, LAM, ALPHA) + 1e-18


def test_P_nonnegative_on_domain():
    for x in np.linspace(0.0, S, 15):
        for y in np.linspace(x, S, 8):
            assert kernel_P(x, y, LAM, ALPHA) >= 0.0


@pytest.mark.parametrize("apply_fn", [apply_direct, apply_inverse])
def test_zero_field_maps_to_zero(apply_fn):
    out = apply_fn(np.zeros(65), S, LAM, ALPHA)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("apply_fn", [apply_direct, apply_inverse])
def test_zero_gain_is_identity(apply_fn):
    f = np.sin(np.linspace(0.0, 2.0, 65))
    assert np.array_equal(apply_fn(f, S, 0.0, ALPHA), f)


def _smooth_field(n):
    xi = np.linspace(0.0, 1.0, n + 1)
    return np.cos(3.0 * xi) + xi * xi - 0.3


def _roundtrip_errors(n, X=-0.1):
    f = _smooth_field(n)
    w = apply_inverse(f, S, LAM, ALPHA)
    pair_err = np.max(np.abs(apply_direct(w, S, LAM, ALPHA) - f)) / np.max(np.abs(f))
    wc = controller_transform(f, X, S, C, ALPHA, BETA)
    ctrl_err = np.max(
        np.abs(controller_inverse(wc, X, S, C, ALPHA, BETA) - f)
    ) / np.max(np.abs(f))
    return pair_err, ctrl_err


def test_roundtrip_accuracy_at_n200():
    pair_err, ctrl_err = _roundtrip_errors(200)
    assert pair_err < 1e-3
    assert ctrl_err < 1e-3


def test_roundtrip_convergence_order():
    errs = {n: _roundtrip_errors(n) for n in (100, 200, 400)}
    for k in (0, 1):
        o1 = math.log2(errs[100][k] / errs[200][k])
        o2 = math.log2(errs[200][k] / errs[400][k])
        assert min(o1, o2) >= 1.9


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_negativity_transport(seed):
    """P >= 0, so the direct map preserves pointwise nonpositivity."""
    rng = np.random.default_rng(seed)
    w = -np.abs(rng.normal(size=65))
    w[-1] = 0.0
    out = apply_direct(w, S, LAM, ALPHA)
    assert np.all(out <= 1e-15)


def test_controller_transform_zero_inputs():
    out = controller_transform(np.zeros(33), 0.0, S, C, ALPHA, BETA)
    assert np.all(out == 0.0)
    inv = controller_inverse(np.zeros(33), 0.0, S, C, ALPHA, BETA)
    assert np.all(inv == 0.0)


def test_controller_transform_boundary_value_vanishes():
    n = 64
    f = _smooth_field(n)
    f[-1] = 0.0
    w = controller_transform(f, -0.2, S, C, ALPHA, BETA)
    assert w[-1] == 0.0


def _trapezoid_weights(n):
    """W[i, j]: composite trapezoid weights of int_{xi_i}^1 over j >= i."""
    weights = np.triu(np.ones((n + 1, n + 1)))
    weights[np.arange(n + 1), np.arange(n + 1)] = 0.5
    weights[:, n] = 0.5
    weights[n, n] = 0.0
    return weights / n


def _reference_controller_pair(f, X, s, c, alpha, beta):
    """The controller pair as (N+1)^2 kernel matrices: the same composite
    trapezoid over the upper triangle, summed row by row."""
    n = f.size - 1
    xi = np.arange(n + 1) / n
    weights = _trapezoid_weights(n)
    gap = s * (xi[:, np.newaxis] - xi[np.newaxis, :])  # x - y
    forward = f - (c / alpha) * s * (weights * gap * f).sum(axis=1)
    forward += (c / beta) * s * (1.0 - xi) * X
    psi = psi_kernel(gap, c, alpha, beta)
    inverse = f + (beta / alpha) * s * (weights * psi * f).sum(axis=1)
    inverse += psi_kernel(s * (xi - 1.0), c, alpha, beta) * X
    return forward, inverse


def _reference_bessel_pair(f, s, lam, alpha):
    """The error pair as (N+1)^2 kernel matrices: P and Q from
    i1_ratio_array and j1_ratio_array at every (i, j), times the composite
    trapezoid weights over the upper triangle, summed row by row."""
    n = f.size - 1
    k = np.arange(n + 1)
    sq_gaps = np.maximum(k[np.newaxis, :] ** 2 - k[:, np.newaxis] ** 2, 0) / n**2
    z2 = (lam / alpha) * s * s * sq_gaps
    scale = (lam / alpha) * s * (k / n)[np.newaxis, :]
    weights = _trapezoid_weights(n)
    direct = f + s * (scale * i1_ratio_array(z2) * weights * f).sum(axis=1)
    inverse = f - s * (scale * j1_ratio_array(z2) * weights * f).sum(axis=1)
    return direct, inverse


@pytest.mark.parametrize("n", [16, 200])
@pytest.mark.parametrize("s", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("gain", [0.05, 0.5, 0.9])
def test_error_pair_matches_kernel_matrices(zinc, n, s, gain):
    """0.9 x the bound at s = 0.3 takes the J1 grid past the float series
    cap, where it is scipy's j1(z)/z.  Below the cap the float64 J1 sum loses
    up to eps * I1r(z2_max) per kernel entry to cancellation, and the
    inverse's integral of xi*f at most (lam/alpha) s^2 max|f| / 2 times that."""
    from stefanlab.params import lambda_upper_bound

    p, cfg = zinc
    lam = gain * lambda_upper_bound(cfg, p.alpha)
    z2_max = (lam / p.alpha) * s * s
    cancellation = 0.0
    if z2_max <= 400.0:
        i1_max = i1_ratio_array(np.array([z2_max]))[0]
        cancellation = 0.5 * np.finfo(float).eps * i1_max * z2_max
    rng = np.random.default_rng(1000 * n + int(1000 * s) + int(100 * gain))
    for f in (rng.normal(size=n + 1), _smooth_field(n)):
        ref_direct, ref_inverse = _reference_bessel_pair(f, s, lam, p.alpha)
        direct = apply_direct(f, s, lam, p.alpha)
        inverse = apply_inverse(f, s, lam, p.alpha)
        assert np.max(np.abs(direct - ref_direct)) <= 1e-13 * np.max(np.abs(ref_direct))
        assert np.max(np.abs(inverse - ref_inverse)) <= (
            1e-13 * np.max(np.abs(ref_inverse)) + cancellation * np.max(np.abs(f))
        )


@pytest.mark.parametrize("n", [16, 64, 200])
@pytest.mark.parametrize("s", [0.01, 0.3, 0.7])
@pytest.mark.parametrize("c", [1e-3, 1e-2])
def test_controller_pair_matches_kernel_matrices(n, s, c):
    rng = np.random.default_rng(1000 * n + int(1000 * s) + int(1e4 * c))
    for X in (-0.3, 0.05):
        f = rng.normal(size=n + 1)
        ref_fwd, ref_inv = _reference_controller_pair(f, X, s, c, ALPHA, BETA)
        fwd = controller_transform(f, X, s, c, ALPHA, BETA)
        inv = controller_inverse(f, X, s, c, ALPHA, BETA)
        assert np.max(np.abs(fwd - ref_fwd)) <= 1e-13 * np.max(np.abs(ref_fwd))
        assert np.max(np.abs(inv - ref_inv)) <= 1e-13 * np.max(np.abs(ref_inv))


def test_controller_pair_allocates_no_kernel_matrix():
    """One (N+1)^2 float array at N = 200 is 323 KB."""
    n = 200
    f = _smooth_field(n)
    # a first call, so that no first-use cost is measured
    controller_inverse(controller_transform(f, -0.1, S, C, ALPHA, BETA), -0.1, S, C, ALPHA, BETA)
    tracemalloc.start()
    try:
        w = controller_transform(f, -0.1, S, C, ALPHA, BETA)
        controller_inverse(w, -0.1, S, C, ALPHA, BETA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_controller_pair_reads_no_bessel_state(monkeypatch):
    """The controller pair takes its grid k/N from the fields' length: with
    the Bessel state refused, a (K, N+1) stack maps to the bits of each
    row's own call, made before the refusal."""
    from stefanlab import transforms

    n = 64
    u = np.random.default_rng(29).normal(size=(3, n + 1))
    s, X, c = np.array([0.05, 0.3, 0.7]), np.array([-0.2, 0.0, 0.1]), np.array([1e-3, 1e-2, C])
    alone = np.array([controller_transform(u[r], X[r], s[r], c[r], ALPHA, BETA) for r in range(3)])
    back = np.array([controller_inverse(alone[r], X[r], s[r], c[r], ALPHA, BETA) for r in range(3)])

    def refusing(n):
        raise MemoryError("refused")

    monkeypatch.setattr(transforms, "_bessel_grid", refusing)
    w = controller_transform(u, X, s, c, ALPHA, BETA)
    assert w.tobytes() == alone.tobytes()
    assert controller_inverse(w, X, s, c, ALPHA, BETA).tobytes() == back.tobytes()
    # with c = beta, s = 1 and X = 1 the forward map of zero is 1 - xi
    k = np.arange(n + 1)
    zero = controller_transform(np.zeros(n + 1), 1.0, 1.0, BETA, ALPHA, BETA)
    assert zero.tobytes() == (1.0 - k / n).tobytes()


def test_controller_transform_slope_identity_at_origin():
    """When (u, X, qc) satisfy the feedback law, the transformed field has
    zero slope at x = 0: k*w_x(0) = -qc - c*k*(I/alpha + X/beta) = 0."""
    from stefanlab.params import PhysicalParams, ScenarioConfig

    p = PhysicalParams(rho=6570.0, cp=389.5687, k=116.0, dh=111.961, tm=692.68)
    cfg = ScenarioConfig(
        s0=0.01, H=100.0, Hhat=1000.0, c=C, lam=LAM, sr=0.35,
        grid_n=400, dt=0.05, t_end=10.0,
    )
    n = cfg.grid_n
    xi = np.linspace(0.0, 1.0, n + 1)
    s = 0.2
    theta = 3.0 * (1.0 - xi) ** 2 + 1.5 * np.sin(np.pi * (1.0 - xi))
    st_snap = PlantState(t=0.0, s=s, theta=theta)
    state_feedback(st_snap, cfg, p)  # qc consistent with (theta, s) by construction
    w = controller_transform(theta, s - cfg.sr, s, cfg.c, p.alpha, p.beta)
    dxi = 1.0 / n
    w_x0 = (-1.5 * w[0] + 2.0 * w[1] - 0.5 * w[2]) / (dxi * s)
    theta_x0 = (-1.5 * theta[0] + 2.0 * theta[1] - 0.5 * theta[2]) / (dxi * s)
    # w_x(0) = u_x(0) + qc_consistent/k-term: with the law satisfied the
    # slope shifts by exactly the feedback integrand, leaving O(dxi^2)
    qc = state_feedback(st_snap, cfg, p)
    assert w_x0 - theta_x0 == pytest.approx(qc / p.k, rel=1e-4)


def test_psi_kernel_properties():
    assert psi_kernel(0.0, C, ALPHA, BETA) == 0.0
    h = 1e-6
    deriv = (psi_kernel(h, C, ALPHA, BETA) - psi_kernel(-h, C, ALPHA, BETA)) / (2 * h)
    assert deriv == pytest.approx(C / BETA, rel=1e-9)
    # odd extension
    assert psi_kernel(-0.2, C, ALPHA, BETA) == pytest.approx(
        -psi_kernel(0.2, C, ALPHA, BETA), rel=1e-14
    )


@given(st.floats(min_value=0.0, max_value=400.0, exclude_min=True))
@example(5e-324)  # z2_max * gap underflows to 0 in float64
@settings(max_examples=60, deadline=None)
def test_ratio_rows_equal_the_oracle_arrays(z2_max):
    """Up to the float series cap the engine's kernel rows are the long
    double oracle arrays at z2 = z2_max * gap within float64's limits: I1,
    a sum of positive terms, within 8 eps relative, and J1 within
    eps * I1r(z2_max), what the alternating sum loses to cancellation."""
    from stefanlab.transforms import _bessel_grid, _ratio_rows

    n = 200
    eps = np.finfo(float).eps
    gaps = _bessel_grid(n)[1].base[:-1]
    i1 = i1_ratio_array(gaps.astype(np.longdouble) * z2_max)
    j1 = j1_ratio_array(gaps.astype(np.longdouble) * z2_max)
    rows = _ratio_rows(n, z2_max)[:, : gaps.size]
    assert np.max(np.abs(rows[0] / i1 - 1.0)) <= 8 * eps
    # the largest gap is 1, so i1[-1] is I1r(z2_max)
    assert np.max(np.abs(rows[1] - j1)) <= eps * i1[-1]


@pytest.mark.parametrize("n", [8, 64, 200])
def test_geometry_equals_the_int64_construction(n):
    """The kernel geometry built from squares in int8, int16 and int32
    (n = 8, 64, 200) equals its construction in int64, with an intp index."""
    from stefanlab.transforms import _bessel_grid

    k = np.arange(n + 1, dtype=np.int64)
    sq = np.maximum(k[np.newaxis, :] ** 2 - k[:, np.newaxis] ** 2, 0)
    present = np.zeros(n * n + 1, dtype=bool)
    present[sq] = True
    present[0] = False
    positive = np.flatnonzero(present)
    slot = np.cumsum(present, dtype=np.int64) - 1
    slot[0] = positive.size
    index, powers, _ = _bessel_grid(n)
    assert index.dtype == np.intp
    assert np.array_equal(index, slot[sq])
    assert np.array_equal(powers.base, np.append(positive / n**2, 0.0))


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_power_table_rows_do_not_depend_on_fill_order(descending):
    """Row m is row m-1 times the base however the table was filled or
    regrown; rows come back read-only, highest power first if descending."""
    from stefanlab.specfun import PowerTable

    base = np.random.default_rng(0).uniform(0.0, 1.0, 50)
    expected = np.cumprod(np.vstack([np.ones(50)] + [base] * 11), axis=0)
    whole = PowerTable(base, 12, descending)(12)
    assert whole.tobytes() == (expected[::-1] if descending else expected).tobytes()
    grown = PowerTable(base, 3, descending)
    for rows, held in ((1, 3), (3, 3), (2, 3), (7, 7), (12, 12)):
        got = grown(rows)
        want = expected[rows - 1 :: -1] if descending else expected[:rows]
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        assert grown.table.shape[0] == held


def test_gap_power_table_holds_one_block_at_the_largest_admitted_extent(zinc):
    """A checkpoint at 0.9 x the zinc gain bound and s = 0.7 m, where
    (lam/alpha)*s^2 = 1.59e4 takes 116 terms, leaves _BLOCK + 1 rows in the
    grid's power table, 2.3 MB at N = 200."""
    from stefanlab import specfun
    from stefanlab.params import lambda_upper_bound
    from stefanlab.runner import _BLOCK_ROWS
    from stefanlab.transforms import _bessel_grid

    p, cfg = zinc
    lam = 0.9 * lambda_upper_bound(cfg, p.alpha)
    cfg = replace(cfg, lam=lam)
    assert len(specfun.i1_ratio_terms((lam / p.alpha) * 0.49)) == 116
    xi = np.linspace(0.0, 1.0, cfg.grid_n + 1)
    theta = 3.0 * (1.0 - xi) ** 2
    member = checkpoint_member(cfg, p)
    block = np.empty((_BLOCK_ROWS, 2, cfg.grid_n + 1))
    log_checkpoints(member, block, [(theta, theta + 0.1 * np.sin(np.pi * xi), 0.7, 1.0)])
    assert member.checkpoints_logged == 1
    assert np.all(np.isfinite(member.checkpoints[:, 0]))
    assert _bessel_grid(cfg.grid_n)[1].table.shape[0] == specfun._BLOCK + 1


@pytest.mark.parametrize("s", [0.1, 0.3, 0.6, 0.7])
def test_kernels_over_admitted_range(zinc, s):
    """P and Q at 0.9 x the zinc gain bound against mpmath Bessel functions;
    (lam/alpha)*s^2 runs from 324 to 1.59e4."""
    import mpmath as mp

    from stefanlab.params import lambda_upper_bound
    from stefanlab.transforms import _bessel_grid, _ratio_rows

    p, cfg = zinc
    lam, alpha, n = 0.9 * lambda_upper_bound(cfg, p.alpha), p.alpha, 200
    # the ratios the engine gathers over the strict upper triangle, and on
    # the diagonal the 1/2 it adds as xi f/4
    xi, index = np.arange(n + 1) / n, _bessel_grid(n)[0]
    ratio = _ratio_rows(n, (lam / alpha) * s * s)[:, index]
    ratio[:, np.arange(n + 1), np.arange(n + 1)] = 0.5
    kp, kq = (lam / alpha) * s * xi * ratio
    # the row x = 0 and column y = s hold the largest arguments
    rng = np.random.default_rng(7)
    ij = np.sort(rng.integers(0, n + 1, (200, 2)), axis=1)
    ij = np.vstack([ij, [(0, j) for j in range(n + 1)], [(i, n) for i in range(n + 1)]])
    p_err = q_err = 0.0
    with mp.workdps(30):
        k = mp.mpf(lam) / mp.mpf(alpha)
        for i, j in ij.tolist():
            scale = k * s * j / n
            z = mp.sqrt(k * mp.mpf(s) ** 2 * (j * j - i * i) / n**2)
            p_ref = scale * (mp.besseli(1, z) / z if z else mp.mpf(0.5))
            q_ref = scale * (mp.besselj(1, z) / z if z else mp.mpf(0.5))
            if p_ref:
                p_err = max(p_err, abs(kp[i, j] / float(p_ref) - 1.0))
            q_err = max(q_err, abs(kq[i, j] - float(q_ref)))
    assert p_err <= 1e-13
    if (lam / alpha) * s * s <= 400.0:
        # the alternating float64 sum loses up to eps * max|P| to cancellation
        assert q_err <= np.finfo(float).eps * kp[0, n]
    else:
        assert q_err <= 1e-15 * np.max(np.abs(np.triu(kq)))
    f = np.cos(3.0 * np.linspace(0.0, 1.0, n + 1))
    for apply_fn in (apply_direct, apply_inverse):
        start = time.perf_counter()
        assert np.all(np.isfinite(apply_fn(f, s, lam, alpha)))
        assert time.perf_counter() - start < 1.0
