"""Closed-loop engine: loop ordering, logging, equivalence, failure modes."""

import gc
import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from stefanlab import runner, specfun, transforms
from stefanlab._scheme import Workspace, bind_dgtsv, block_row, one_sided_edge_flux, stable_rate_cap
from stefanlab.cli import bundled_config, parse_config
from stefanlab.control import field_energy
from stefanlab.diagnostics import h1_norm_sq
from stefanlab.errors import BlowUpError, ConfigurationError, NumericalError
from stefanlab.params import PhysicalParams, ScenarioConfig, lambda_upper_bound
from stefanlab.runner import (
    _BLOCK_ROWS,
    convection_rate,
    initial_fields,
    lockstep_batches,
    simulate,
    simulate_batch,
)
from stefanlab.specfun import gain_sources, gain_term_count
from stefanlab.transforms import (
    apply_direct,
    apply_inverse,
    controller_inverse,
    controller_transform,
)

from conftest import checkpoint_member, log_checkpoints, refuse_j1_above
from oracles import (
    ObserverState,
    PlantState,
    advance_field,
    estimate_flux,
    interface_flux,
    lyapunov_sample,
    output_feedback,
    state_feedback,
    step_observer,
    step_plant,
)

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
    cfg = cfg_for(c=1e9, t_end=50.0)
    res = simulate(cfg, P)
    assert not res.completed
    assert "domain cap" in res.failure
    assert 1 <= res.trace.t.size < 501
    # the failed update is labelled with the time of the row it did not reach
    assert res.failure.endswith(f" at t = {res.trace.t[-1] + cfg.dt:.6g}")


def test_gain_beyond_table_limit_reports_partial_trace(monkeypatch):
    # every gain series takes at least 31 terms
    monkeypatch.setattr(specfun, "_GAIN_MAX_ROWS", 3)
    res = simulate(cfg_for(), P)
    assert not res.completed
    assert "needs more than 3 terms" in res.failure
    assert res.trace.t.size == 1


def test_gain_cap_stops_one_batch_member_mid_run(monkeypatch):
    # the gain series of the first member takes one term more at its row
    # 158 than at its row 40; with the cap at the count of row 40, that
    # member leaves at row 158 and its batch-mates run on as they do alone
    cfgs = [cfg_for(lam=1.0), cfg_for(lam=0.001), cfg_for(lam=0.0), cfg_for(mode="state_feedback")]
    lam_alpha = cfgs[0].lam / P.alpha
    s = simulate(cfgs[0], P).trace.s
    counts = [specfun.gain_term_count(lam_alpha * y * y) for y in s]
    cap = counts[40]
    row = next(i for i, count in enumerate(counts) if count > cap)
    assert row == 158
    monkeypatch.setattr(specfun, "_GAIN_MAX_ROWS", cap)
    alone = [simulate(cfg, P) for cfg in cfgs]
    z2 = lam_alpha * s[row] * s[row]
    assert alone[0].failure == f"gain series at (lam/alpha)*y^2 = {z2:.6g} needs more than {cap} terms"
    assert alone[0].trace.t.size == row + 1
    assert all(res.completed for res in alone[1:])
    left = list(simulate_batch([(cfg, P) for cfg in cfgs]))
    assert left[0][0] == 0
    for j, res in left:
        assert res.failure == alone[j].failure
        for name, values in alone[j].trace.columns().items():
            assert _same_bits(res.trace.columns()[name], values), (j, name)
        for name, values in alone[j].checkpoints.items():
            assert _same_bits(res.checkpoints[name], values), (j, name)
        assert _same_bits(res.final_fields, alone[j].final_fields), j


def test_member_failing_as_another_completes_keeps_its_own_final_state():
    # the first member's last row is the step whose interface update takes
    # the second to the domain cap: the first leaves and the batch compacts,
    # and then the second leaves with its final state from the compacted buffer
    blow = cfg_for(c=100.0)
    alone_blow = simulate(blow, P)
    row = alone_blow.trace.t.size - 1
    assert row == 43 and "domain cap" in alone_blow.failure
    short = cfg_for(t_end=row * blow.dt)
    alone = [simulate(short, P), alone_blow]
    assert alone[0].completed and alone[0].trace.t.size == row + 1
    left = dict(simulate_batch([(short, P), (blow, P)]))
    for j, res in left.items():
        assert res.failure == alone[j].failure
        assert _same_bits(res.trace.s, alone[j].trace.s)
        assert _same_bits(res.final_fields, alone[j].final_fields), j


def test_batch_lets_go_of_its_ring_before_its_last_yield():
    # the consumer of a last departure writes the member's outputs while the
    # generator is suspended at its yield: the ring and the workspace are
    # gone by then, so the generator's end frees less than the ring
    cfg = cfg_for()
    batch = simulate_batch([(cfg, P), (cfg_for(t_end=cfg.t_end / 2), P)])
    ring = _BLOCK_ROWS * 2 * (cfg.grid_n + 1) * 8  # of the last member alone
    tracemalloc.start()
    try:
        assert next(batch)[0] == 1
        index, result = next(batch)
        at_yield = tracemalloc.get_traced_memory()[0]
        with pytest.raises(StopIteration):
            next(batch)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert index == 0 and result.completed
    assert at_yield - after < ring


def test_first_checkpoint_beyond_series_cap_reports_partial_trace(monkeypatch):
    cfg = cfg_for()
    refuse_j1_above(monkeypatch, 0.5 * (cfg.lam / P.alpha) * cfg.s0**2)
    res = simulate(cfg, P)
    assert not res.completed
    assert "exceeds the series cap" in res.failure
    assert res.trace.t.size == 1
    assert res.checkpoints == {}


def test_checkpoint_series_beyond_max_terms_reports_partial_trace(monkeypatch):
    # the first checkpoint's series, at (lam/alpha)*s0^2 = 2.2e-3, needs 5 terms
    monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
    transforms._ratio_rows.cache_clear()
    res = simulate(cfg_for(), P)
    assert not res.completed
    assert "needs more than 3 terms" in res.failure
    assert res.trace.t.size == 1
    assert res.checkpoints == {}


def test_warm_checkpoint_row_allocates_no_kernel_matrix(zinc):
    """One (N+1)^2 float array at N = 200 is 323 KB; the error pair's ratio
    rows, summed afresh at each new extent, are 183 KB."""
    p, cfg = zinc
    xi = np.linspace(0.0, 1.0, cfg.grid_n + 1)
    theta = 3.0 * (1.0 - xi) ** 2
    theta_hat = theta + 0.1 * np.sin(np.pi * xi)
    member = checkpoint_member(cfg, p)
    block = np.empty((_BLOCK_ROWS, 2, cfg.grid_n + 1))
    log_checkpoints(member, block, [(theta, theta_hat, 0.2, 10.0)])
    tracemalloc.start()
    try:
        log_checkpoints(member, block, [(theta, theta_hat, 0.21, 11.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert member.checkpoints_logged == 2
    assert peak < 400 * 1024


@pytest.mark.parametrize(
    "every, bad, lam, t_end, max_terms",
    [
        (50, 2, 0.001, 20.0, None),
        (127, 1, 0.001, 20.0, None),
        (5, 19, 0.001, 20.0, None),
        (5, 13, 0.05, 200.0, 9),
    ],
    ids=["mid_block", "block_end", "dense_mid_block", "real_kernel"],
)
def test_later_checkpoint_beyond_series_cap_keeps_its_row(
    monkeypatch, every, bad, lam, t_end, max_terms
):
    # dense_mid_block fails at row 95, with the checkpoints of rows 65 to 90
    # of its block still to be logged.  real_kernel caps the kernel series
    # itself at max_terms: row 60's series sums within 9 terms and row 65's
    # does not, so the check at the row and the flush's kernel rows must agree
    cfg = cfg_for(checkpoint_every=every, lam=lam, t_end=t_end)
    full = simulate(cfg, P)
    if max_terms is None:
        z2 = (cfg.lam / P.alpha) * full.checkpoints["s"] ** 2
        refuse_j1_above(monkeypatch, 0.5 * (z2[bad - 1] + z2[bad]))
        failure = "exceeds the series cap"
    else:
        y = float(full.checkpoints["s"][bad])
        z2 = cfg.lam / P.alpha * y * y
        monkeypatch.setattr(specfun, "_MAX_TERMS", max_terms)
        transforms._ratio_rows.cache_clear()
        failure = (
            f"checkpoint kernel series at (lam/alpha)*s^2 = {z2:.6g} "
            f"needs more than {max_terms} terms"
        )
    res = simulate(cfg, P)
    row = bad * every
    assert not res.completed
    assert failure in res.failure
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
    for name in ("V", "Vtot"):
        assert np.isfinite(got[name][0:row:every]).all() and np.isnan(got[name][row]), name


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
    theta, theta_hat = initial_fields(cfg)
    st, ob = PlantState(t=0.0, s=cfg.s0, theta=theta), ObserverState(t=0.0, theta_hat=theta_hat)
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
        # the observer measures the plant's interface rate
        edge_flux = one_sided_edge_flux(st.theta, 1.0 / cfg.grid_n)
        v = convection_rate(y, st.s_prev, edge_flux, cfg.dt, beta)
        try:
            st_next = step_plant(st, qc, cfg.dt, p, domain_cap=domain_cap)
            ob = step_observer(ob, y, v, qc, cfg.dt, cfg, p)
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
    "solve_fails": dict(sr=1e307, domain_cap=None),  # the first heat flux overflows
    "dense": dict(lam=0.05, checkpoint_every=1),  # 64 checkpoints per block
    # 164 rows: 36 in the last block, whose last row is a checkpoint off the stride
    "dense_state_feedback": dict(mode="state_feedback", lam=0.05, checkpoint_every=5, t_end=16.3),
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
    # the oracle's clock adds dt once per step; the trace's is i*dt
    tr = res.trace
    assert tr.t[-1] == pytest.approx(st.t, rel=1e-13, abs=0.0)
    assert (tr.s[-1], tr.s[-2] if tr.s.size > 1 else None) == (st.s, st.s_prev)
    assert _same_bits(res.final_fields, [st.theta, ob.theta_hat])


@pytest.mark.parametrize("over", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_engine_matches_reference_loop(over):
    cfg = cfg_for(**over)
    _assert_matches_reference(simulate(cfg, P), cfg)


def test_lockstep_batch_matches_reference_loop():
    # all the reference scenarios advance as one batch, behind a zero-gain
    # observer started on the true profile; each member must still match
    # its own per-step loop bit for bit
    cases = {"matched_zero_gain": dict(lam=0.0, Hhat=cfg_for().H), **REFERENCE_CASES}
    cfgs = [cfg_for(**over) for over in cases.values()]
    left = list(simulate_batch([(cfg, P) for cfg in cfgs]))
    # the two first-step failures leave first; the shortest member completes next
    names = list(cases)
    order = [j for j, _ in left]
    assert set(order[:2]) == {names.index("blow_up"), names.index("solve_fails")}
    assert order[2] == names.index("whole_blocks")
    assert sorted(j for j, _ in left) == list(range(len(cfgs)))
    for j, res in left:
        _assert_matches_reference(res, cfgs[j])
    # the first block's zero source leaves its observer a copy of its plant
    matched, alone = dict(left)[0], simulate(cfgs[0], P)
    assert matched.completed
    assert _same_bits(matched.final_fields[1], matched.final_fields[0])
    assert _same_bits(matched.trace.That0, matched.trace.T0)
    assert not matched.trace.h1_err.any() and not matched.trace.utilde_max.any()
    for name, values in alone.trace.columns().items():
        assert _same_bits(matched.trace.columns()[name], values), name
    for name, values in alone.checkpoints.items():
        assert _same_bits(matched.checkpoints[name], values), name
    assert _same_bits(matched.final_fields, alone.final_fields)


def test_lockstep_members_with_their_own_constants_match_their_own_runs():
    # members that share only (N, dt), each with its own material, c, sr,
    # checkpoint stride and horizon, have their checkpoints formed in one
    # stacked pass per flush; each must still match its own run bit for
    # bit, as the first leaves mid-block and the second blows up mid-block
    tin = PhysicalParams(rho=7000.0, cp=230.0, k=60.0, dh=59.2, tm=505.1)
    scenarios = [
        (cfg_for(c=0.003, sr=0.3, lam=0.05, checkpoint_every=7, t_end=9.0), tin),
        (cfg_for(c=1e9, checkpoint_every=3, t_end=50.0), P),
        (cfg_for(lam=0.05, checkpoint_every=5), P),
        (cfg_for(c=0.002, sr=0.25, mode="state_feedback", checkpoint_every=2, t_end=15.0), tin),
    ]
    alone = [simulate(cfg, p) for cfg, p in scenarios]
    assert alone[0].completed and alone[0].trace.t.size % _BLOCK_ROWS != 0
    assert not alone[1].completed and alone[1].trace.t.size % _BLOCK_ROWS != 0
    left = list(simulate_batch(scenarios))
    assert [j for j, _ in left] == [1, 0, 3, 2]
    for j, res in left:
        assert res.failure == alone[j].failure
        for name, values in alone[j].trace.columns().items():
            assert _same_bits(res.trace.columns()[name], values), (j, name)
        assert res.checkpoints.keys() == alone[j].checkpoints.keys()
        for name, values in alone[j].checkpoints.items():
            assert _same_bits(res.checkpoints[name], values), (j, name)
        assert _same_bits(res.final_fields, alone[j].final_fields), j


def test_unallocatable_checkpoint_table_is_named(monkeypatch):
    cfg = cfg_for(checkpoint_every=1)
    shape = (len(CHECKPOINT_HEADER), cfg.rows + 1)  # (rows - 1) // checkpoint_every + 2
    empty = np.empty

    def refusing(*args, **kwargs):
        if args[0] == shape:
            raise MemoryError("refused")
        return empty(*args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    rows = cfg.rows + 1
    message = f"the checkpoint table's 12 columns of {rows} rows need {8 * 12 * rows} bytes"
    with pytest.raises(ConfigurationError, match=message):
        simulate(cfg, P)


def _warm_step_peak(cfg, p, n, blocks=1, resum=True):
    """tracemalloc's (peak, current) over 200 steps of a workspace of
    `blocks` gain blocks on the n-interval grid, once round the ring first;
    current is what the steps leave held.  Each step sums its gain sources
    afresh if `resum`; else they are summed once, before the steps."""
    y = cfg.s0
    ring = np.empty((_BLOCK_ROWS, 2, blocks, n + 1))
    ring[0] = initial_fields(replace(cfg, grid_n=n))[:, np.newaxis]
    ws = Workspace(ring, cfg.dt)
    z2 = (cfg.lam / p.alpha) * y * y
    row = block_row(y, 0.0, 50.0, p.alpha * cfg.dt, stable_rate_cap(p.alpha, cfg.dt), p.k, 1.0 / n)
    sources = [z2] * blocks, [-cfg.lam * y * cfg.dt] * blocks, [gain_term_count(z2)] * blocks
    gain_sources(*sources, n, ws.source)

    def steps(count):
        for _ in range(count):
            if resum:
                gain_sources(*sources, n, ws.source)
            ws.entries[:] = row * blocks
            assert ws.step() == {}

    steps(_BLOCK_ROWS)
    tracemalloc.start()
    try:
        steps(200)
        current, peak = tracemalloc.get_traced_memory()
        return peak, current
    finally:
        tracemalloc.stop()


def test_warm_steps_allocate_no_field_sized_array(zinc):
    """Every buffer of a step is made with its workspace: 200 warm steps on
    zinc's grid allocate no array of N+1 floats.  numpy's own bookkeeping
    per call (up to about 1.5 KB, no array) does not grow with the grid, and
    an array of N+1 floats would: with it the peak on a grid four times
    finer would be at least 3*(N+1) floats higher."""
    p, cfg = zinc
    n = cfg.grid_n
    assert _warm_step_peak(cfg, p, 4 * n)[0] - _warm_step_peak(cfg, p, n)[0] < 8 * (n + 1)


def test_warm_steps_take_no_buffer_per_block(zinc):
    """numpy takes no buffer in a warm step of 24 blocks on zinc's grid that
    it does not take at one block.  numpy buffers the operands of an
    operation it cannot walk as one run, as (B, 1) rates times an (N-1,)
    row or a strided (2, B, N-1) difference, up to 8,192 entries of each
    per call: 132 KB per step at B = 24.  What does grow with B is the
    Python lists of floats that ``sample`` hands the member pass, which the
    steps leave held, and a step holds the old lists while it makes the new
    ones: so the peak less twice what the steps leave held is within 2 KB
    of one block's.  The gain sources are summed once: their term table is
    B rows of the member pass's work."""
    p, cfg = zinc
    n = cfg.grid_n
    runs = [_warm_step_peak(cfg, p, n, blocks, resum=False) for blocks in (1, 24)]
    (one, one_held), (many, many_held) = runs
    assert (many - 2 * many_held) - (one - 2 * one_held) < 2048


def test_workspace_refuses_a_ring_it_cannot_solve_in_place():
    ring = np.zeros((4, 2, 3, 9))[:, :, [0, 2]]
    with pytest.raises(ValueError, match="C-contiguous"):
        Workspace(ring, 0.1)


@pytest.mark.parametrize(
    "dl, d, du, b",
    [
        (np.ones(4), np.ones(5), np.ones(4), np.ones((5, 2))),  # b in C order
        (np.ones(4), np.ones(5), np.ones(3), np.ones((5, 1))),  # du one short
        (np.ones(4), np.ones(5), np.ones(4), np.ones((6, 1))),  # b one row long
        (np.ones(4), np.ones(10)[::2], np.ones(4), np.ones((5, 1))),  # d strided
        (np.ones(4), np.ones(5, dtype=np.float32), np.ones(4), np.ones((5, 1))),
    ],
    ids=["b_c_order", "du_short", "b_long", "d_strided", "d_float32"],
)
def test_bound_solve_refuses_arrays_it_cannot_solve_in_place(dl, d, du, b):
    with pytest.raises(ValueError, match="solves in place"):
        bind_dgtsv(dl, d, du, b)


@pytest.mark.parametrize("blocks", [1, 3])
def test_singular_step_table_row_fails_its_block_with_dgtsv_info(blocks):
    """An all-zero row of the step table leaves its block a zero pivot, which
    dgtsv reports as info > 0: alone, and after the per-block re-solve of a
    batch, where only that block fails and the others step."""
    n = 16
    ring = np.zeros((2, 2, blocks, n + 1))
    ring[0] = initial_fields(cfg_for(grid_n=n))[:, np.newaxis]
    ws = Workspace(ring, 0.1)
    ws.entries[:] = block_row(0.01, 0.0, 50.0, P.alpha * 0.1, 1.0, P.k, 1.0 / n) * blocks
    ws.table[-1] = 0.0
    ws.source[:] = 0.0
    failed = ws.step()
    assert list(failed) == [blocks - 1]
    message, info = failed[blocks - 1].split(" = ")
    assert message == "tridiagonal solve failed: dgtsv info" and int(info) > 0
    assert np.isfinite(ws.fields[:, : blocks - 1]).all()


def test_deleted_workspace_leaves_no_reference_cycles():
    """Reference counting alone frees a Workspace: its bound solves hold
    their arrays' addresses as plain pointers."""
    ring = np.zeros((_BLOCK_ROWS, 2, 1, 65))
    gc.collect()
    gc.disable()
    try:
        ws = Workspace(ring, 0.1)
        assert ws.sample()
        del ws
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bound_solve_holds_the_arrays_it_solves():
    n = 6
    diagonals = np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)
    b = np.ones((n, 1), order="F")
    held = [weakref.ref(a) for a in (*diagonals, b)]
    solve = bind_dgtsv(*diagonals, b)
    del diagonals, b
    assert all(ref() is not None for ref in held)
    assert solve() == 0
    solved = held[-1]()[:, 0]
    assert np.allclose(4.0 * solved - np.append(solved[1:], 0.0) - np.append(0.0, solved[:-1]), 1.0)
    del solve, solved
    assert all(ref() is None for ref in held)


# a caller's error state that differs from numpy's default and from the
# engine's quiet one
CALLER_ERRSTATE = dict(divide="ignore", over="warn", under="ignore", invalid="warn")


class _ErrstateLog(runner._TraceLog):
    """The default log, recording numpy's error state at each call."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.seen = []

    def write(self, block):
        self.seen.append(np.geterr())
        super().write(block)

    def trace(self):
        self.seen.append(np.geterr())
        return super().trace()


# members that leave with 1, 1, 44 and 201 rows, the first three on failures
# off their checkpoint rows
APART = {"blow_up": 1, "solve_fails": 1, "blow_up_mid_block": 44, "output_feedback": 201}


@pytest.mark.parametrize(
    "cases, close",
    [
        (["output_feedback"], False),
        (["blow_up_mid_block"], False),
        (list(APART), False),
        (list(APART), True),
    ],
    ids=["completes", "blow_up_mid_block", "members_leave_apart", "closed_after_first"],
)
def test_consumer_sees_its_own_error_state(cases, close):
    """simulate_batch quiets overflow and invalid operations over its own
    work, but its logs' write and trace calls and its consumer see the error
    state the caller set: at every result, after the last and after closing
    the generator early."""
    over = {**REFERENCE_CASES, "blow_up_mid_block": dict(c=100.0)}
    cfgs = [cfg_for(**over[name]) for name in cases]
    logs = [_ErrstateLog(cfg) for cfg in cfgs]
    batch = simulate_batch([(cfg, P) for cfg in cfgs], logs)
    rows = {}
    with np.errstate(**CALLER_ERRSTATE):
        for j, res in batch:
            assert np.geterr() == CALLER_ERRSTATE
            rows[cases[j]] = res.trace.t.size
            if close:
                batch.close()
        assert np.geterr() == CALLER_ERRSTATE
    assert rows == ({"blow_up": 1} if close else {name: APART[name] for name in cases})
    # a write per block of rows begun, and a trace per result
    for name, log in zip(cases, logs):
        if name in rows:
            assert len(log.seen) == -(-rows[name] // _BLOCK_ROWS) + 1
        assert all(state == CALLER_ERRSTATE for state in log.seen), name


def test_lockstep_batches_group_by_grid_within_the_budget(zinc):
    _, zinc_cfg = zinc
    sweep = cfg_for(t_end=500.0)  # 5,001 rows on the 64-interval grid
    cfgs = [sweep] * 6 + [zinc_cfg, cfg_for(grid_n=32), zinc_cfg, sweep]
    # the seven sweep members fit the budget, a 90,001-row zinc run only alone
    assert lockstep_batches(cfgs) == [[0, 1, 2, 3, 4, 5, 9], [6], [8], [7]]


def test_lockstep_batches_split_the_benchmark_sweep_in_two():
    # 24 members shaped as the benchmark's sweep: each holds its summary's
    # two kept columns, its 12 x 102 checkpoint table, its 14 x 64 block of
    # columns and its ring, 163,536 B, so eighteen fit the 3 MB budget
    bench = cfg_for(t_end=500.0, checkpoint_every=50)
    assert runner._held_bytes(bench) == 8 * (
        5_001 * 2 + 12 * 102 + 14 * 64 + 64 * 2 * 65
    ) == 163_536
    batches = lockstep_batches([bench] * 24)
    assert [len(batch) for batch in batches] == [18, 6]
    assert sum(batches, []) == list(range(24))


def test_held_bytes_count_a_checkpoint_at_every_row():
    # at a stride of 1 the 5,002-entry checkpoint table is most of a member,
    # and the budget takes four such members, not fourteen
    every = cfg_for(t_end=500.0, checkpoint_every=1)
    assert runner._held_bytes(every) == 8 * (
        5_001 * 2 + 12 * 5_002 + 14 * 64 + 64 * 2 * 65
    ) == 633_936
    assert [len(batch) for batch in lockstep_batches([every] * 6)] == [4, 2]
    # the table simulate_batch allocates is the one counted: a result's
    # checkpoint columns are rows of it
    for stride in (1, 7):
        short = replace(every, t_end=5.0, checkpoint_every=stride)
        ((_, res),) = simulate_batch([(short, P)])
        assert res.checkpoints["t"].base.shape == (12, runner._checkpoint_slots(short))


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
            rows[:, one], extent[one], rates[one], qc[one], dt, alpha[one], k[one],
            source=src,
        )
        if bad:
            failed[b] = bad[0]
    return out, failed


def _random_blocks(rng, blocks, n=32):
    rows = rng.standard_normal((2, blocks, n + 1)) * 10.0 ** rng.integers(-3, 4, (2, blocks, 1))
    rows[..., -1] = 0.0
    extent = 0.01 + rng.random(blocks)
    rates = rng.standard_normal(blocks) * 0.03  # some beyond the clamp
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


def _solved_both_ways(dl, d, du, b):
    """The solution, the three factored diagonals and info from the bound
    solve and from scipy's dgtsv, each on its own copies."""
    from scipy.linalg.lapack import dgtsv

    mine = [dl.copy(), d.copy(), du.copy(), b.copy(order="F")]
    info = bind_dgtsv(*mine)()
    theirs = dgtsv(dl, d, du, b)
    return (mine[3], *mine[:3], info), (theirs[3], *theirs[:3], theirs[4])


def test_bound_solve_matches_scipy_dgtsv():
    """The Workspace's solve, numpy's OpenBLAS through ctypes where it
    exports dgtsv, gives scipy's dgtsv bit for bit on block-diagonal systems
    of 1 to 8 blocks and 1 to 3 right-hand sides, and its info on singular
    ones (a zero row, and a zero first pivot with no row to swap in)."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        blocks, n1, nrhs = int(rng.integers(1, 9)), int(rng.integers(3, 66)), int(rng.integers(1, 4))
        size = blocks * n1
        dl, du = -rng.random(size - 1), -rng.random(size - 1)
        dl[n1 - 1 :: n1] = du[n1 - 1 :: n1] = 0.0  # the couplings
        d = 2.0 + rng.random(size)
        b = rng.standard_normal((size, nrhs)) * 10.0 ** rng.integers(-3, 4)
        mine, theirs = _solved_both_ways(dl, d, du, b)
        assert mine[-1] == theirs[-1] == 0
        assert all(_same_bits(x, y) for x, y in zip(mine[:-1], theirs[:-1]))
    dl, d, du, b = np.full(11, -1.0), np.full(12, 4.0), np.full(11, -1.0), np.ones((12, 2))
    d[5], dl[4], du[5] = 0.0, 0.0, 0.0  # row 5 all zero
    mine, theirs = _solved_both_ways(dl, d, du, b)
    assert mine[-1] == theirs[-1] > 0
    d[0], dl[0] = 0.0, 0.0
    mine, theirs = _solved_both_ways(dl, d, du, b)
    assert mine[-1] == theirs[-1] == 1


def _seen_rates(monkeypatch, scenarios):
    """The (rate, cap) pairs with which the lockstep batch of the scenarios
    builds its step-table rows, where it clamps each rate to its cap; checks
    that it sees one rate per stepping member per step."""
    seen = []

    def counting(extent, rate, qc, alpha_dt, cap, *constants):
        seen.append((rate, cap))
        return block_row(extent, rate, qc, alpha_dt, cap, *constants)

    monkeypatch.setattr(runner, "block_row", counting)
    steps = 0
    for _, res in simulate_batch(scenarios):
        assert res.completed, res.failure
        steps += res.trace.t.size - 1
    assert len(seen) == steps
    return seen


def _clamped(seen, p, dt):
    assert {cap for _, cap in seen} == {stable_rate_cap(p.alpha, dt)}
    return [rate for rate, cap in seen if abs(rate) > cap]


def test_rate_clamp_binds_nowhere_on_bundled_and_sweep_corner_runs(monkeypatch, zinc):
    p, zinc_cfg = zinc
    seen = _seen_rates(monkeypatch, [(replace(zinc_cfg, t_end=50.0), p)])
    assert len(seen) == 1000
    assert _clamped(seen, p, zinc_cfg.dt) == []
    # the smoke run and the corners of the benchmark sweep's box on its grid
    p, smoke = parse_config(bundled_config("zinc_smoke"))
    bound = lambda_upper_bound(smoke, p.alpha)
    corners = [
        replace(smoke, lam=lam, c=c, sr=sr)
        for lam, c, sr in itertools.product((0.0, 0.1 * bound), (0.001, 0.01), (0.2, 0.35))
    ]
    seen = _seen_rates(monkeypatch, [(cfg, p) for cfg in [smoke, *corners]])
    assert _clamped(seen, p, smoke.dt) == []
