"""Closed-loop engine: loop ordering, logging, equivalence, failure modes."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from stefanlab import observer, specfun
from stefanlab.control import field_energy, output_feedback, state_feedback
from stefanlab.diagnostics import h1_norm_sq, lyapunov_sample
from stefanlab.errors import BlowUpError, NumericalError
from stefanlab.observer import estimate_flux, init_observer, step_observer
from stefanlab.params import PhysicalParams, ScenarioConfig
from stefanlab.plant import init_plant, interface_flux, step_plant
from stefanlab.runner import _BLOCK_ROWS, simulate
from stefanlab.transforms import (
    apply_direct,
    apply_inverse,
    controller_inverse,
    controller_transform,
)

from conftest import run_quiet

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
    res = run_quiet(cfg, P)
    tr = res.trace
    assert res.completed
    assert tr.t.size == int(round(cfg.t_end / cfg.dt)) + 1
    assert np.allclose(np.diff(tr.t), cfg.dt, rtol=0, atol=1e-12)
    cols = tr.columns()
    assert tuple(cols) == TRACE_HEADER
    assert all(c.shape == tr.t.shape for c in cols.values())


def test_first_row_matches_initial_data():
    cfg = cfg_for()
    tr = run_quiet(cfg, P).trace
    assert tr.s[0] == cfg.s0
    assert tr.T0[0] == pytest.approx(P.tm + cfg.H * cfg.s0, rel=1e-12)
    assert tr.That0[0] == pytest.approx(P.tm + cfg.Hhat * cfg.s0, rel=1e-12)
    assert tr.Ttilde0[0] == pytest.approx((cfg.H - cfg.Hhat) * cfg.s0, rel=1e-12)


def test_lyapunov_columns_nan_off_checkpoints():
    cfg = cfg_for(checkpoint_every=50)
    tr = run_quiet(cfg, P).trace
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
    a = run_quiet(cfg_for(mode="state_feedback", lam=0.001), P)
    b = run_quiet(cfg_for(mode="state_feedback", lam=0.0), P)
    assert np.array_equal(a.trace.s, b.trace.s)
    assert np.array_equal(a.trace.qc, b.trace.qc)


def test_blow_up_reports_partial_trace():
    res = run_quiet(cfg_for(c=1e9, t_end=50.0), P)
    assert not res.completed
    assert "domain cap" in res.failure
    assert 1 <= res.trace.t.size < 501


def test_gain_beyond_table_limit_reports_partial_trace(monkeypatch):
    # the first step's gain series needs 5 terms
    monkeypatch.setattr(observer, "_GAIN_MAX_ROWS", 3)
    res = run_quiet(cfg_for(), P)
    assert not res.completed
    assert "needs more than 3 terms" in res.failure
    assert res.trace.t.size == 1


def test_first_checkpoint_beyond_series_cap_reports_partial_trace(monkeypatch):
    cfg = cfg_for()
    monkeypatch.setattr(specfun, "Z2_CAP", 0.5 * (cfg.lam / P.alpha) * cfg.s0**2)
    res = run_quiet(cfg, P)
    assert not res.completed
    assert "exceeds the series cap" in res.failure
    assert res.trace.t.size == 1
    assert res.checkpoints == {}


@pytest.mark.parametrize("every, bad", [(50, 2), (127, 1)], ids=["mid_block", "block_end"])
def test_later_checkpoint_beyond_series_cap_keeps_its_row(monkeypatch, every, bad):
    cfg = cfg_for(checkpoint_every=every)
    full = run_quiet(cfg, P)
    z2 = (cfg.lam / P.alpha) * full.checkpoints["s"] ** 2
    monkeypatch.setattr(specfun, "Z2_CAP", 0.5 * (z2[bad - 1] + z2[bad]))
    res = run_quiet(cfg, P)
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


def test_zinc_start_warns_of_courant_number(zinc):
    # the explicit convection term runs at Courant numbers up to 8.8 in the
    # first 84 zinc steps
    p, cfg = zinc
    with pytest.warns(RuntimeWarning, match="Courant number exceeds 0.5"):
        res = simulate(replace(cfg, t_end=100 * cfg.dt), p)
    assert res.completed
    assert res.trace.t.size == 101


def test_determinism_in_process():
    cfg = cfg_for()
    a, b = run_quiet(cfg, P), run_quiet(cfg, P)
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
            "h1_u": h1_norm_sq(st.theta, y, cfg.h1_l2_term),
            "h1_err": h1_norm_sq(u_err, y, cfg.h1_l2_term),
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


@pytest.mark.parametrize(
    "over",
    [
        dict(lam=0.05, checkpoint_every=5),
        dict(mode="state_feedback", lam=0.05),
        dict(smoothing=0.3),
        dict(lam=0.0),
        dict(t_end=12.7),  # 128 rows: two full blocks, no partial one
        dict(c=1e9, t_end=50.0),  # blows up part-way through a block
    ],
    ids=["output_feedback", "state_feedback", "smoothing", "zero_gain", "whole_blocks", "blow_up"],
)
def test_engine_matches_reference_loop(over):
    cfg = cfg_for(**over)
    res = run_quiet(cfg, P)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
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
    assert (res.final_observer.y_prev, res.final_observer.v_prev) == (ob.y_prev, ob.v_prev)
    assert _same_bits(res.final_plant.theta, st.theta)
    assert _same_bits(res.final_observer.theta_hat, ob.theta_hat)
