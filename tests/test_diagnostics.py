"""Norms, Lyapunov machinery, constraint monitor, decay fits: the library's
stacked and folded forms against the one-snapshot and whole-trace oracles."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanlab import RunSummary, runner
from stefanlab.diagnostics import (
    _lyapunov_rows,
    h1_norm_sq,
    lyapunov_constants,
    monitor_constraints,
)
from stefanlab.params import PhysicalParams, ScenarioConfig
from stefanlab.transforms import apply_inverse, controller_inverse, controller_transform

from oracles import fit_decay_rate, lyapunov_sample

P = PhysicalParams(rho=6570.0, cp=389.5687, k=116.0, dh=111.961, tm=692.68)

# frozen direct arithmetic on the zinc scenario
P_CONST = 0.3254384290321431
A_CONST = 123.56044491724137
B_CONST = 4.6246885223770795e-05
D_CONST = 43.24615572103448


def cfg_for(**over):
    base = dict(
        s0=0.01, H=100.0, Hhat=1000.0, c=0.001, lam=0.001, sr=0.35,
        grid_n=200, dt=0.05, t_end=10.0,
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_h1_zero_field():
    assert h1_norm_sq(np.zeros(65), 0.3) == 0.0


def test_h1_linear_profile_closed_form():
    H, s, n = 100.0, 0.01, 200
    xi = np.linspace(0.0, 1.0, n + 1)
    f = H * s * (1.0 - xi)
    expected = H * H * s + H * H * s**3 / 3.0
    assert h1_norm_sq(f, s) == pytest.approx(expected, rel=1e-9)
    # the stencils differentiate a line exactly; the trapezoid overshoots
    # int (1 - xi)^2 dxi = 1/3 by exactly 1/(6 n^2)
    discrete = H * H * s + H * H * s**3 * (1.0 / 3.0 + 1.0 / (6.0 * n * n))
    assert h1_norm_sq(f, s) == pytest.approx(discrete, rel=1e-12)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=50, deadline=None)
def test_h1_homogeneity(scale):
    xi = np.linspace(0.0, 1.0, 65)
    f = np.sin(2.0 * xi) - 0.4 * xi
    base = h1_norm_sq(f, 0.2)
    assert h1_norm_sq(scale * f, 0.2) == pytest.approx(scale * scale * base, rel=1e-12)


def test_lyapunov_constants_frozen():
    pc, a, b, d = lyapunov_constants(cfg_for(), P)
    assert pc == pytest.approx(P_CONST, rel=1e-12)
    assert a == pytest.approx(A_CONST, rel=1e-12)
    assert b == pytest.approx(B_CONST, rel=1e-12)
    assert d == pytest.approx(D_CONST, rel=1e-12)


def test_lyapunov_constants_past_the_float_range_are_inf():
    """sr^2 overflows at sr = 1e200: a and d are inf and b is 0, not an
    OverflowError; a sample whose Vtot is then inf has V = inf, not the NaN
    of inf * exp(-inf)."""
    cfg = cfg_for(sr=1e200)
    pc, a, b, d = lyapunov_constants(cfg, P)
    assert (a, b, d) == (np.inf, 0.0, np.inf)
    assert 0.0 < pc < 1e-190
    xi = np.linspace(0.0, 1.0, 65)
    _, vtot, V = _lyapunov_rows(np.sin(xi), np.cos(xi), 0.3, 0.3 - cfg.sr, pc, a, d)
    assert vtot == V == np.inf
    sample = lyapunov_sample(np.sin(xi), np.cos(xi), 0.3, 1.0, cfg, P)
    assert sample.Vtot == sample.V == np.inf


def test_lyapunov_constants_whose_divisors_underflow_are_inf():
    """sr^2 underflows at sr = 1e-170 and beta^2 at dh = 1e300, both in
    scenarios validate admits: b is then min(c, 2*lam) and p_const inf, not
    a ZeroDivisionError."""
    cfg = cfg_for(s0=1e-200, sr=1e-170)
    assert lyapunov_constants(cfg, P)[2] == min(cfg.c, 2.0 * cfg.lam)
    melt = PhysicalParams(rho=6570.0, cp=389.5687, k=116.0, dh=1e300, tm=692.68)
    assert lyapunov_constants(cfg_for(), melt)[0] == np.inf


def test_stacked_h1_norms_equal_one_field_calls():
    """_lyapunov_rows takes both of its norms in one stacked call: each
    row's bits are those of its own call."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(64, 301))
        pair = rng.normal(size=(2, n + 1)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 1))
        s = float(rng.uniform(0.01, 1.0))
        one_by_one = np.array([h1_norm_sq(row, s) for row in pair])
        assert h1_norm_sq(pair, s).tobytes() == one_by_one.tobytes()


def test_stacked_checkpoint_rows_equal_one_row_calls():
    """The engine forms the checkpoints of every member of a lockstep batch
    that flushes in one stacked call of each of controller_transform,
    controller_inverse and the Lyapunov sample, with one extent, setpoint
    error and time per row, and each row's own c, sr, material (alpha,
    beta) and Lyapunov constants: each row's bits are those of its own
    call (``oracles.lyapunov_sample`` for the Lyapunov sample), through the
    sines, cosines and exponentials too."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        n, rows = int(rng.integers(16, 301)), int(rng.integers(1, 65))
        u = rng.normal(size=(rows, n + 1)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
        u[:, -1] = 0.0
        w_err = rng.normal(size=(rows, n + 1))
        s = rng.uniform(0.001, 1.0, size=rows)
        t = rng.uniform(0.0, 4500.0, size=rows)
        cfgs = [
            cfg_for(c=float(c), sr=float(sr), lam=float(lam))
            for c, sr, lam in zip(
                10.0 ** rng.uniform(-4.0, 0.0, rows),
                rng.uniform(0.05, 1.0, rows),
                10.0 ** rng.uniform(-6.0, -2.0, rows),
            )
        ]
        mats = [
            PhysicalParams(rho=P.rho * f, cp=P.cp, k=P.k * g, dh=P.dh * h, tm=P.tm)
            for f, g, h in rng.uniform(0.5, 2.0, size=(rows, 3))
        ]
        c, sr = (np.array([getattr(cfg, name) for cfg in cfgs]) for name in ("c", "sr"))
        alpha, beta = (np.array([getattr(p, name) for p in mats]) for name in ("alpha", "beta"))
        X = s - sr
        args = list(zip(X, s, c, alpha, beta))
        w_hat = controller_transform(u, X, s, c, alpha, beta)
        one_by_one = np.array([controller_transform(row, *a) for row, a in zip(u, args)])
        assert w_hat.tobytes() == one_by_one.tobytes()
        back = controller_inverse(w_hat, X, s, c, alpha, beta)
        one_by_one = np.array([controller_inverse(row, *a) for row, a in zip(w_hat, args)])
        assert back.tobytes() == one_by_one.tobytes()
        # one row's Vtot overflows to inf, where V is inf too
        w_hat[rng.integers(rows)] *= 1e160
        p_const, a, _, d = np.array([lyapunov_constants(*pair) for pair in zip(cfgs, mats)]).T
        stacked = _lyapunov_rows(w_err, w_hat, s, X, p_const, a, d)
        samples = [lyapunov_sample(*row) for row in zip(w_err, w_hat, s, t, cfgs, mats)]
        assert np.isinf(stacked[1]).sum() == np.isinf(stacked[2]).sum() == 1
        for name, got in zip(("V1_tilde", "Vtot", "V"), stacked):
            one_by_one = np.array([getattr(sample, name) for sample in samples])
            assert got.tobytes() == one_by_one.tobytes(), name
        # a stack of one scenario's rows, with its constants as floats
        p_const, a, _, d = lyapunov_constants(cfgs[0], mats[0])
        stacked = _lyapunov_rows(w_err, w_hat, s, s - cfgs[0].sr, p_const, a, d)
        samples = [lyapunov_sample(*row, cfgs[0], mats[0]) for row in zip(w_err, w_hat, s, t)]
        for name, got in zip(("V1_tilde", "Vtot", "V"), stacked):
            one_by_one = np.array([getattr(sample, name) for sample in samples])
            assert got.tobytes() == one_by_one.tobytes(), name


def test_lyapunov_constants_branch_selection():
    # raise c so that b = alpha/(8 sr^2) stops being the binding branch
    pc, a, b, d = lyapunov_constants(cfg_for(c=1.0, lam=5.0), P)
    alpha = P.alpha
    assert a == pytest.approx(16.0 * 1.0 * 0.35 / alpha, rel=1e-12)
    assert b == pytest.approx(alpha / (8 * 0.35**2), rel=1e-12)
    # tiny gains: b limited by c or 2*lam
    _, _, b2, _ = lyapunov_constants(cfg_for(lam=1e-9), P)
    assert b2 == pytest.approx(2e-9, rel=1e-12)


def test_lyapunov_sample_nonnegative_and_consistent():
    cfg = cfg_for(grid_n=64)
    xi = np.linspace(0.0, 1.0, 65)
    theta = 2.0 * (1.0 - xi)
    theta_hat = 3.0 * (1.0 - xi)
    s = 0.02
    w_err = apply_inverse(theta - theta_hat, s, cfg.lam, P.alpha)
    w_hat = controller_transform(theta_hat, s - cfg.sr, s, cfg.c, P.alpha, P.beta)
    p_const, a, _, d = lyapunov_constants(cfg, P)
    v1, vtot, V = _lyapunov_rows(w_err, w_hat, s, s - cfg.sr, p_const, a, d)
    assert v1 >= 0.0
    assert vtot >= v1  # d >= 1
    assert V == pytest.approx(vtot * np.exp(-A_CONST * s), rel=1e-12)
    sample = lyapunov_sample(w_err, w_hat, s, 1.0, cfg, P)
    assert (sample.V1_tilde, sample.Vtot, sample.V) == (v1, vtot, V)


def _trace(t, s, qc, theta_min=None, utilde_max=None, dt=0.1, grid_n=64, sr=0.35):
    n = len(t)
    return SimpleNamespace(
        t=np.asarray(t, dtype=float),
        s=np.asarray(s, dtype=float),
        qc=np.asarray(qc, dtype=float),
        theta_min=np.zeros(n) if theta_min is None else np.asarray(theta_min, float),
        utilde_max=np.full(n, -1.0) if utilde_max is None else np.asarray(utilde_max, float),
        dt=dt,
        grid_n=grid_n,
        sr=sr,
    )


def test_monitor_all_pass():
    rep = monitor_constraints(_trace([0, 1, 2], [0.01, 0.02, 0.03], [5.0, 4.0, 3.0]))
    assert rep.passed
    assert all(v is None for v in rep.first_violation.values())


def test_monitor_flags_nonpositive_flux():
    rep = monitor_constraints(_trace([0, 1, 2], [0.01, 0.02, 0.03], [5.0, -1.0, 3.0]))
    assert not rep.passed
    assert rep.first_violation["qc_positive"] == 1.0
    assert rep.first_violation["s_increasing"] is None


def test_monitor_flags_stalled_interface():
    rep = monitor_constraints(_trace([0, 1, 2], [0.01, 0.01, 0.01], [0.0, 0.0, 0.0]))
    assert rep.first_violation["s_increasing"] == 1.0
    assert rep.first_violation["qc_positive"] == 0.0


def test_monitor_flags_overshoot():
    rep = monitor_constraints(_trace([0, 1], [0.2, 0.4], [1.0, 1.0]))
    assert rep.first_violation["s_below_sr"] == 1.0


def test_monitor_field_flags_respect_grid_tolerance():
    eps = (1.0 / 64) ** 2 + 0.1
    ok = monitor_constraints(
        _trace([0, 1], [0.01, 0.02], [1.0, 1.0], theta_min=[-0.5 * eps, 0.0],
               utilde_max=[0.5 * eps, -1.0])
    )
    assert ok.passed
    bad = monitor_constraints(
        _trace([0, 1], [0.01, 0.02], [1.0, 1.0], theta_min=[-2 * eps, 0.0],
               utilde_max=[2 * eps, -1.0])
    )
    assert bad.first_violation["u_nonnegative"] == 0.0
    assert bad.first_violation["error_nonpositive"] == 0.0


def test_monitor_is_pure():
    tr = _trace([0, 1, 2], [0.01, 0.02, 0.03], [5.0, 4.0, 3.0])
    a, b = monitor_constraints(tr), monitor_constraints(tr)
    assert a.first_violation == b.first_violation
    assert np.array_equal(a.qc_positive, b.qc_positive)


FLAGS = ("qc_positive", "s_increasing", "s_below_sr", "u_nonnegative", "error_nonpositive")


@pytest.mark.parametrize("cuts", [(3,), (1, 2, 3, 4, 5, 6, 7), (2, 6)], ids=["at_stall", "rows", "wide"])
def test_monitor_block_by_block_equals_whole_trace(cuts):
    # a stall from row 2 to row 3, and the other violations in later blocks
    s = [0.01, 0.02, 0.03, 0.03, 0.04, 0.36, 0.37, 0.38]
    qc = [5.0, 4.0, 3.0, 2.0, 1.0, -1.0, 1.0, -2.0]
    theta_min = [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0]
    whole = _trace(range(8), s, qc, theta_min=theta_min)
    report, flags, edges = None, {name: [] for name in FLAGS}, [0, *cuts, 8]
    for lo, hi in zip(edges, edges[1:]):
        block = _trace(range(lo, hi), s[lo:hi], qc[lo:hi], theta_min=theta_min[lo:hi])
        report = monitor_constraints(block, s[lo - 1] if lo else None, report)
        for name in FLAGS:
            flags[name].append(getattr(report, name))
    want = monitor_constraints(whole)
    assert want.first_violation == {
        "qc_positive": 5.0, "s_increasing": 3.0, "s_below_sr": 5.0,
        "u_nonnegative": 5.0, "error_nonpositive": None,
    }
    assert report.first_violation == want.first_violation
    assert report.format() == want.format()
    for name in FLAGS:
        assert np.array_equal(np.concatenate(flags[name]), getattr(want, name)), name


def _folded_decay_rate(cfg, h1_err):
    """RunSummary's decay rate of an h1_err column given as one block, with
    every other column of the Trace ones."""
    columns = {name: np.ones(h1_err.size) for name in runner._array_fields(runner.Trace)}
    columns["h1_err"] = h1_err
    summary = RunSummary(cfg, P)
    summary.write(runner._trace_of(columns, h1_err.size, cfg))
    return summary.decay_rate()


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 5.0, 101)
    assert fit_decay_rate(t, np.exp(-3.0 * t)) == pytest.approx(3.0, abs=1e-6)
    # the library's fit, at the logged times i * dt, in the oracle's bits
    cfg = cfg_for(dt=0.05, t_end=5.0)
    t = np.arange(cfg.rows) * cfg.dt
    rate = _folded_decay_rate(cfg, np.exp(-3.0 * t))
    assert rate == fit_decay_rate(t, np.exp(-3.0 * t))
    assert rate == pytest.approx(3.0, abs=1e-6)


def test_fit_decay_rate_constant_series():
    t = np.linspace(0.0, 5.0, 50)
    assert fit_decay_rate(t, np.ones(50)) == pytest.approx(0.0, abs=1e-12)
    assert _folded_decay_rate(cfg_for(dt=0.125, t_end=6.125), np.ones(50)) == 0.0


def test_fit_decay_rate_input_validation():
    with pytest.raises(ValueError):
        fit_decay_rate(np.arange(5), np.ones(5))
    with pytest.raises(ValueError):
        fit_decay_rate(np.arange(12), np.concatenate([np.ones(11), [0.0]]))
    # the library fits no rate there: it needs 20 rows, all positive
    assert _folded_decay_rate(cfg_for(), np.ones(19)) is None
    assert _folded_decay_rate(cfg_for(), np.concatenate([np.ones(21), [0.0]])) is None
