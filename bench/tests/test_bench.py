"""Tests of the benchmark itself: each check rejects a corrupted output, and a
tiny round runs end to end, traced and untraced.  Nothing here asserts on time.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {**workloads.SWEEP_GRID, "t_end": 20.0, "lambda": 0.05, "checkpoint_every": 50}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 201-step smoke-grid scenario with checkpoints every 5 steps."""
    base = tmp_path_factory.mktemp("tiny")
    values = workloads.write_config(
        base / "tiny.cfg", workloads.read_config(workloads.ZINC_CFG), **TINY
    )
    sc = workloads.Scenario("tiny", base / "tiny.cfg", values, checkpoint_every=5)
    wl = workloads.Workload("tiny", (sc,))
    plain = run.run_round(wl, base / "plain")
    traced = run.run_round(wl, base / "traced", trace=True)
    return wl, plain, traced


@pytest.fixture
def outputs(tiny):
    wl, plain, _ = tiny
    d = plain.out_dir / "tiny"
    return (
        wl.scenarios[0],
        checks.read_csv(d / "trace.csv", checks.TRACE_COLUMNS),
        checks.read_csv(d / "transforms.csv"),
        (d / "summary.txt").read_text(),
    )


def test_tiny_round_completes_and_passes(tiny):
    wl, plain, traced = tiny
    for rd in (plain, traced):
        assert rd.failed == 0 and rd.problems == []
        assert rd.rows == wl.scenarios[0].rows
        assert rd.wall_s > 0.0 and rd.peak_rss_mb > 0.0


def test_tracing_changes_no_output(tiny, tmp_path):
    wl, plain, traced = tiny
    assert run.differing_outputs(wl, plain.out_dir, traced.out_dir) == []
    copy = tmp_path / "copy"
    shutil.copytree(traced.out_dir, copy)
    with open(copy / "tiny" / "trace.csv", "r+b") as fh:
        fh.seek(-2, 2)
        fh.write(b"7\n")
    assert run.differing_outputs(wl, plain.out_dir, copy) == ["tiny/trace.csv"]


def test_traced_round_counts_calls(tiny):
    wl, _, traced = tiny
    totals = tracing.layer_totals(traced.out_dir / "spans.npz")
    steps = wl.scenarios[0].rows - 1
    assert set(totals) == set(tracing.TRACED)
    assert totals["runner.simulate"][0] == 1
    assert totals["plant.step_plant"][0] == steps
    assert totals["scheme.advance_field"][0] == 2 * steps
    assert totals["runner._checkpoint_row"][0] == steps // 5 + 1
    assert all(self_s >= 0.0 for _, self_s in totals.values())


def test_clean_outputs_pass(outputs):
    sc, trace, ckpt, summary = outputs
    assert checks.check_summary(summary) == []
    assert checks.check_trace(trace, sc.values) == []
    assert checks.check_transforms(ckpt, sc.values, sc.checkpoint_every, float(trace["s"].max())) == []


def _corrupt_trace(trace, values, how):
    out = {k: v.copy() for k, v in trace.items()}
    mid = out["t"].size // 2
    if how == "qc_negated":
        out["qc"][mid] = -out["qc"][mid]
    elif how == "s_lowered":
        out["s"][mid] = out["s"][mid - 1] - 1e-9
    elif how == "s_at_setpoint":
        out["s"][-1] = 1e3
    elif how == "energy_shifted":
        out["energy"][mid:] += 2.0 * checks.energy_tolerance(values, out["energy"][0])
    elif how == "row_missing":
        out = {k: v[:-1] for k, v in out.items()}
    return out


@pytest.mark.parametrize(
    "how", ["qc_negated", "s_lowered", "s_at_setpoint", "energy_shifted", "row_missing"]
)
def test_trace_check_rejects(outputs, how):
    sc, trace, _, _ = outputs
    assert checks.check_trace(_corrupt_trace(trace, sc.values, how), sc.values) != []


def test_setpoint_reach_rejects_short_run(outputs):
    sc, trace, _, _ = outputs
    assert checks.check_trace(trace, sc.values, reach_setpoint=True) != []


@pytest.mark.parametrize(
    "old,new", [("validation: PASS", "validation: FAIL"), ("completed = True", "completed = False")]
)
def test_summary_check_rejects(outputs, old, new):
    _, _, _, summary = outputs
    assert checks.check_summary(summary.replace(old, new)) != []


@pytest.mark.parametrize(
    "column,value",
    [
        ("what_boundary", 1e-6),
        ("wtilde_max", 1e-6),
        ("V1_tilde", -1e-9),
        ("rt_error_pair_abs", 1.0),
        ("rt_ctrl_abs", 1.0),
    ],
)
def test_transform_check_rejects(outputs, column, value):
    sc, trace, ckpt, _ = outputs
    bad = {k: v.copy() for k, v in ckpt.items()}
    bad[column][len(bad[column]) // 2] = value
    assert checks.check_transforms(bad, sc.values, sc.checkpoint_every, float(trace["s"].max())) != []


def test_transform_check_rejects_missing_row_and_series_cap(outputs):
    sc, trace, ckpt, _ = outputs
    short = {k: v[:-1] for k, v in ckpt.items()}
    assert checks.check_transforms(short, sc.values, sc.checkpoint_every, float(trace["s"].max())) != []
    assert checks.check_transforms(ckpt, sc.values, sc.checkpoint_every, 10.0) != []


def test_workload_inputs_follow_the_seed(tmp_path):
    a = workloads.make("sweep", 7, tmp_path / "a")
    b = workloads.make("sweep", 7, tmp_path / "b")
    c = workloads.make("sweep", 8, tmp_path / "c")
    text = lambda wl: [sc.config.read_text() for sc in wl.scenarios]  # noqa: E731
    assert text(a) == text(b) and text(a) != text(c)

    bound = workloads.gain_bound(workloads.read_config(workloads.ZINC_CFG))
    for wl in (a, c):
        v = [sc.values for sc in wl.scenarios]
        assert len(v) == workloads.SWEEP_MEMBERS
        assert sum(x["lambda"] == 0.0 for x in v) == workloads.SWEEP_ZERO_GAIN
        assert all(0.0 <= x["lambda"] <= 0.1 * bound for x in v)
        assert all(0.001 <= x["c"] <= 0.01 and 0.2 <= x["sr"] <= 0.35 for x in v)
        assert sum(x["mode"] == "state_feedback" for x in v) == len(v) // 2
        assert len({(x["grid_n"], x["dt"], x["t_end"]) for x in v}) == 1

    ck = workloads.make("checkpoints", 7, tmp_path / "ck").scenarios[0]
    assert 0.045 * bound <= ck.values["lambda"] <= 0.055 * bound
    assert ck.rows == 5001 and ck.checkpoint_every == 5
    assert np.isclose(workloads.make("zinc", 7, tmp_path / "z").scenarios[0].values["t_end"], 4500)
