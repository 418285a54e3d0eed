"""Closed-loop engine: loop ordering, logging, equivalence, failure modes."""

import numpy as np
import pytest

from stefanlab import observer
from stefanlab._scheme import advance_field
from stefanlab.control import field_energy, output_feedback, state_feedback
from stefanlab.diagnostics import h1_norm_sq, lyapunov_sample
from stefanlab.errors import BlowUpError, NumericalError
from stefanlab.observer import estimate_flux, init_observer, step_observer
from stefanlab.params import PhysicalParams, ScenarioConfig
from stefanlab.plant import init_plant, interface_flux, step_plant
from stefanlab.runner import _BLOCK_ROWS, lockstep_batches, simulate, simulate_batch
from stefanlab.transforms import (
    apply_direct,
    apply_inverse,
    controller_inverse,
    controller_transform,
)

from conftest import refuse_j1_above

P = PhysicalParams(rho=6570.0, cp=389.5687, k=116.0, dh=111.961, tm=692.68)

TRACE_HEADER = (
    "t", "s", "qc", "T0", "That0", "Ttilde0", "h1_u", "h1_err", "energy", "V", "Vtot",
    "utilde_x_s", "theta_min", "utilde_max",
    "qc_positive", "s_increasing", "s_below_sr", "u_nonnegative", "error_nonpositive",
)
CHECKPOINT_HEADER = (
    "t", "s", "X", "V1_tilde", "Vtot", "V", "wtilde_max", "utilde_sup",
    "rt_error_pair_abs", "what_sup", "rt_ctrl_abs", "what_boundary",
)


def cfg_for(**over):
    base = dict(
        s0=0.01, H=100.0, Hhat=1000.0, c=0.001, lam=0.001, sr=0.35,
        grid_n=64, dt=0.1, t_end=20.0, mode="output_feedback",
        checkpoint_every=50, domain_cap=0.7,
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_trace_shape_and_time_grid():
    cfg = cfg_for()
    res = simulate(cfg, P)
    tr = res.trace
    assert res.completed
    assert tr.t.size == int(round(cfg.t_end / cfg.dt)) + 1
    assert np.allclose(np.diff(tr.t), cfg.dt, rtol=0, atol=1e-12)
    cols = tr.columns()
    assert tuple(cols) == TRACE_HEADER
    assert all(c.shape == tr.t.shape for c in cols.values())


def test_first_row_matches_initial_data():
    cfg = cfg_for()
    tr = simulate(cfg, P).trace
    assert tr.s[0] == cfg.s0
    assert tr.T0[0] == pytest.approx(P.tm + cfg.H * cfg.s0, rel=1e-12)
    assert tr.That0[0] == pytest.approx(P.tm + cfg.Hhat * cfg.s0, rel=1e-12)
    assert tr.Ttilde0[0] == pytest.approx((cfg.H - cfg.Hhat) * cfg.s0, rel=1e-12)


def test_lyapunov_columns_nan_off_checkpoints():
    cfg = cfg_for(checkpoint_every=50)
    tr = simulate(cfg, P).trace
    assert np.isfinite(tr.V[0]) and np.isfinite(tr.V[-1])
    assert np.isfinite(tr.V[50])
    assert np.isnan(tr.V[1]) and np.isnan(tr.Vtot[37])


def test_checkpoint_table_contents(zinc_run):
    ck = zinc_run.checkpoints
    assert ck["t"][0] == 0.0
    assert np.all(np.diff(ck["t"]) > 0)
    assert np.all(ck["V1_tilde"] >= 0.0)
    assert np.all(ck["Vtot"] >= 0.0)
    assert np.all(ck["what_boundary"] == 0.0)


def test_feedback_mode_equivalence_with_exact_estimate(equivalence_runs):
    out_run, state_run = equivalence_runs
    assert np.array_equal(out_run.trace.qc, state_run.trace.qc)
    assert np.array_equal(out_run.trace.s, state_run.trace.s)
    assert np.max(np.abs(out_run.trace.Ttilde0)) == 0.0


def test_state_feedback_ignores_observer_gain():
    a = simulate(cfg_for(mode="state_feedback", lam=0.001), P)
    b = simulate(cfg_for(mode="state_feedback", lam=0.0), P)
    assert np.array_equal(a.trace.s, b.trace.s)
    assert np.array_equal(a.trace.qc, b.trace.qc)


def test_blow_up_reports_partial_trace():
    res = simulate(cfg_for(c=1e9, t_end=50.0), P)
    assert not res.completed
    assert "domain cap" in res.failure
    assert 1 <= res.trace.t.size < 501


def test_gain_beyond_table_limit_reports_partial_trace(monkeypatch):
    # the first step's gain series needs 5 terms
    monkeypatch.setattr(observer, "_GAIN_MAX_ROWS", 3)
    res = simulate(cfg_for(), P)
    assert not res.completed
    assert "needs more than 3 terms" in res.failure
    assert res.trace.t.size == 1


def test_first_checkpoint_beyond_series_cap_reports_partial_trace(monkeypatch):
    cfg = cfg_for()
    refuse_j1_above(monkeypatch, 0.5 * (cfg.lam / P.alpha) * cfg.s0**2)
    res = simulate(cfg, P)
    assert not res.completed
    assert "exceeds the series cap" in res.failure
    assert res.trace.t.size == 1
    assert res.checkpoints == {}


@pytest.mark.parametrize("every, bad", [(50, 2), (127, 1)], ids=["mid_block", "block_end"])
def test_later_checkpoint_beyond_series_cap_keeps_its_row(monkeypatch, every, bad):
    cfg = cfg_for(checkpoint_every=every)
    full = simulate(cfg, P)
    z2 = (cfg.lam / P.alpha) * full.checkpoints["s"] ** 2
    refuse_j1_above(monkeypatch, 0.5 * (z2[bad - 1] + z2[bad]))
    res = simulate(cfg, P)
    row = bad * every
    assert not res.completed
    assert "exceeds the series cap" in res.failure
    assert res.trace.t.size == row + 1
    for name, values in full.checkpoints.items():
        assert _same_bits(res.checkpoints[name], values[:bad]), name
    # every logged column of rows 0..row as in the full run, except the
    # Lyapunov values of the failed checkpoint
    got = res.trace.columns()
    for name, values in full.trace.columns().items():
        want = np.array(values[: row + 1], dtype=float)
        if name in ("V", "Vtot"):
            want[row] = np.nan
        assert _same_bits(got[name], want), name


def test_determinism_in_process():
    cfg = cfg_for()
    a, b = simulate(cfg, P), simulate(cfg, P)
    for name in ("s", "qc", "h1_err", "energy"):
        assert np.array_equal(getattr(a.trace, name), getattr(b.trace, name))


def test_constraint_monitor_passes_on_zinc_run(zinc_run):
    from stefanlab.diagnostics import monitor_constraints

    report = monitor_constraints(zinc_run.trace)
    assert report.passed, report.first_violation


def _reference_run(cfg, p):
    """The per-step loop the engine replaced: one plant step and one observer
    step per row, every diagnostic evaluated on that row alone."""
    n_rows = int(round(cfg.t_end / cfg.dt)) + 1
    domain_cap = cfg.domain_cap if cfg.domain_cap is not None else 2.0 * cfg.sr
    alpha, beta = p.alpha, p.beta
    st, ob = init_plant(cfg), init_observer(cfg)
    trace = {}
    checkpoints = {name: [] for name in CHECKPOINT_HEADER}
    failure = None
    for i in range(n_rows):
        y = st.s
        t = i * cfg.dt
        if cfg.mode == "state_feedback":
            qc = state_feedback(st, cfg, p)
        else:
            qc = output_feedback(ob, y, cfg, p)
        u_err = st.theta - ob.theta_hat
        row = {
            "t": t,
            "s": y,
            "qc": qc,
            "T0": p.tm + st.theta[0],
            "That0": p.tm + ob.theta_hat[0],
            "Ttilde0": st.theta[0] - ob.theta_hat[0],
            "h1_u": h1_norm_sq(st.theta, y),
            "h1_err": h1_norm_sq(u_err, y),
            "energy": field_energy(st.theta, st.s, p),
            "V": np.nan,
            "Vtot": np.nan,
            "utilde_x_s": interface_flux(st) - estimate_flux(ob, y),
            "theta_min": float(np.min(st.theta)),
            "utilde_max": float(np.max(u_err)),
        }
        if i % cfg.checkpoint_every == 0 or i == n_rows - 1:
            X = y - cfg.sr
            w_err = apply_inverse(u_err, y, cfg.lam, alpha)
            w_hat = controller_transform(ob.theta_hat, X, y, cfg.c, alpha, beta)
            sample = lyapunov_sample(w_err, w_hat, y, t, cfg, p)
            rt_err = apply_direct(w_err, y, cfg.lam, alpha) - u_err
            rt_ctrl = controller_inverse(w_hat, X, y, cfg.c, alpha, beta) - ob.theta_hat
            ck = {
                "t": t,
                "s": y,
                "X": X,
                "V1_tilde": sample.V1_tilde,
                "Vtot": sample.Vtot,
                "V": sample.V,
                "wtilde_max": np.max(w_err),
                "utilde_sup": np.max(np.abs(u_err)),
                "rt_error_pair_abs": np.max(np.abs(rt_err)),
                "what_sup": np.max(np.abs(w_hat)),
                "rt_ctrl_abs": np.max(np.abs(rt_ctrl)),
                "what_boundary": abs(w_hat[-1]),
            }
            for name in CHECKPOINT_HEADER:
                checkpoints[name].append(ck[name])
            row["V"], row["Vtot"] = sample.V, sample.Vtot
        for name, value in row.items():
            trace.setdefault(name, []).append(value)
        if i == n_rows - 1:
            break
        try:
            st_next = step_plant(st, qc, cfg.dt, p, domain_cap=domain_cap)
            ob = step_observer(ob, y, qc, cfg.dt, cfg, p)
        except (BlowUpError, NumericalError) as exc:
            failure = str(exc)
            break
        st = st_next
    return trace, checkpoints, failure, st, ob


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# scenarios on one grid that mix the modes and zero and nonzero gains, end
# at different rows, and blow up part-way through a block
REFERENCE_CASES = {
    "output_feedback": dict(lam=0.05, checkpoint_every=5),
    "state_feedback": dict(mode="state_feedback", lam=0.05),
    "zero_gain": dict(lam=0.0),
    "whole_blocks": dict(t_end=12.7),  # 128 rows: two full blocks, no partial one
    "blow_up": dict(c=1e9, t_end=50.0),  # blows up part-way through a block
}


def _assert_matches_reference(res, cfg):
    trace, checkpoints, failure, st, ob = _reference_run(cfg, P)

    assert res.failure == failure
    assert res.completed == (failure is None)
    if failure is not None:
        assert res.trace.t.size % _BLOCK_ROWS != 0
    for name, values in trace.items():
        assert _same_bits(getattr(res.trace, name), values), name
    assert tuple(res.checkpoints) == CHECKPOINT_HEADER
    for name, values in checkpoints.items():
        assert _same_bits(res.checkpoints[name], values), name
    assert (res.final_plant.t, res.final_plant.s, res.final_plant.s_prev) == (st.t, st.s, st.s_prev)
    assert res.final_observer.y_prev == ob.y_prev
    assert _same_bits(res.final_plant.theta, st.theta)
    assert _same_bits(res.final_observer.theta_hat, ob.theta_hat)


@pytest.mark.parametrize("over", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_engine_matches_reference_loop(over):
    cfg = cfg_for(**over)
    _assert_matches_reference(simulate(cfg, P), cfg)


def test_lockstep_batch_matches_reference_loop():
    # all the reference scenarios advance as one batch; each member must
    # still match its own per-step loop bit for bit
    cfgs = [cfg_for(**over) for over in REFERENCE_CASES.values()]
    left = list(simulate_batch([(cfg, P) for cfg in cfgs]))
    # the blow-up leaves first; the shortest member completes next
    names = list(REFERENCE_CASES)
    assert [j for j, _ in left][:2] == [names.index("blow_up"), names.index("whole_blocks")]
    assert sorted(j for j, _ in left) == list(range(len(cfgs)))
    for j, res in left:
        _assert_matches_reference(res, cfgs[j])


def test_lockstep_batches_group_by_grid_within_the_budget(zinc):
    _, zinc_cfg = zinc
    sweep = cfg_for(t_end=500.0)  # 5,001 rows on the 64-interval grid
    cfgs = [sweep] * 6 + [zinc_cfg, cfg_for(grid_n=32), zinc_cfg, sweep]
    # four sweep members fit the budget, a 90,001-row zinc run only alone
    assert lockstep_batches(cfgs) == [[0, 1, 2, 3], [4, 5, 9], [6], [8], [7]]


def test_lockstep_batch_refuses_mixed_grids():
    with pytest.raises(ValueError, match="share one"):
        list(simulate_batch([(cfg_for(), P), (cfg_for(dt=0.05), P)]))


def _one_block_solves(rows, extent, rates, qc, alpha, k, source, dt=0.1):
    """advance_field on each block alone."""
    out, failed = np.empty_like(rows), {}
    for b in range(rows.shape[1]):
        one = slice(b, b + 1)
        src = source[one] if b < source.shape[0] else None
        out[:, one], bad = advance_field(
            rows[:, one], extent[one], [r[one] for r in rates], qc[one], dt, alpha[one], k[one],
            source=src,
        )
        if bad:
            failed[b] = bad[0]
    return out, failed


def _random_blocks(rng, blocks, n=32):
    rows = rng.standard_normal((2, blocks, n + 1)) * 10.0 ** rng.integers(-3, 4, (2, blocks, 1))
    rows[..., -1] = 0.0
    extent = 0.01 + rng.random(blocks)
    rates = list(rng.standard_normal((2, blocks)) * 0.03)  # some beyond the clamp
    qc = rng.standard_normal(blocks) * 1e3
    alpha = 4.5e-5 * (0.5 + rng.random(blocks))
    k = 116.0 * (0.5 + rng.random(blocks))
    source = rng.standard_normal((rng.integers(0, blocks + 1), n + 1))
    return rows, extent, rates, qc, alpha, k, source


def test_block_diagonal_solve_matches_one_block_solves():
    rng = np.random.default_rng(7)
    for _ in range(200):
        args = _random_blocks(rng, int(rng.integers(2, 9)))
        rows, extent, rates, qc, alpha, k, source = args
        got, failed = advance_field(rows, extent, rates, qc, 0.1, alpha, k, source=source)
        want, want_failed = _one_block_solves(*args)
        assert failed == want_failed == {}
        assert _same_bits(got, want)


def test_block_diagonal_solve_isolates_a_non_finite_block():
    # a non-finite block would spread NaN across the zero couplings (0 * inf)
    rng = np.random.default_rng(3)
    rows, extent, rates, qc, alpha, k, source = _random_blocks(rng, 4)
    rows[1, 2, 5] = np.inf
    got, failed = advance_field(rows, extent, rates, qc, 0.1, alpha, k, source=source)
    want, want_failed = _one_block_solves(rows, extent, rates, qc, alpha, k, source)
    assert failed == want_failed == {2: "temperature field became non-finite"}
    assert _same_bits(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
    assert np.isfinite(got[:, [0, 1, 3]]).all()
