"""Kernels and the direct/inverse transform pairs."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab.observer import observer_gain
from stefanlab.transforms import (
    apply_direct,
    apply_inverse,
    controller_inverse,
    controller_transform,
    kernel_P,
    kernel_Q,
    psi_kernel,
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
    assert w[-1] == pytest.approx(0.0, abs=1e-16)


def test_controller_transform_slope_identity_at_origin():
    """When (u, X, qc) satisfy the feedback law, the transformed field has
    zero slope at x = 0: k*w_x(0) = -qc - c*k*(I/alpha + X/beta) = 0."""
    from stefanlab.control import state_feedback
    from stefanlab.params import PhysicalParams, ScenarioConfig
    from stefanlab.plant import PlantState

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


@pytest.mark.parametrize("s", [0.1, 0.3, 0.6, 0.7])
def test_kernels_over_admitted_range(zinc, s):
    """P and Q at 0.9 x the zinc gain bound against mpmath Bessel functions;
    (lam/alpha)*s^2 runs from 324 to 1.59e4."""
    import mpmath as mp

    from stefanlab.params import lambda_upper_bound
    from stefanlab.transforms import _bessel_kernel_matrix

    p, cfg = zinc
    lam, alpha, n = 0.9 * lambda_upper_bound(cfg, p.alpha), p.alpha, 200
    kp = _bessel_kernel_matrix(s, lam, alpha, n, "P")
    kq = _bessel_kernel_matrix(s, lam, alpha, n, "Q")
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
