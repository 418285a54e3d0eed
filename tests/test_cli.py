"""Config parsing, CSV artifacts, exit codes, determinism, compare, sweep."""

import configparser
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stefanlab import cli, observer
from stefanlab.cli import (
    _CSV_CHUNK_ROWS,
    bundled_config,
    compare_traces,
    main,
    parse_config,
    read_csv,
    run_scenario,
    write_csv,
)
from stefanlab.control import qc_ode_residual
from stefanlab.errors import ConfigurationError
from stefanlab.params import PhysicalParams, ScenarioConfig, validate_scenario

from conftest import refuse_j1_above


def _tweaked_config(tmp_path, edits=None, name="tweaked.cfg"):
    """Copy the smoke config and override {(section, key): value} pairs."""
    parser = configparser.ConfigParser()
    parser.read(bundled_config("zinc_smoke"))
    for (section, key), value in (edits or {}).items():
        parser[section][key] = str(value)
    out = tmp_path / name
    with open(out, "w") as fh:
        parser.write(fh)
    return out


def test_bundled_configs_parse_and_validate():
    for name in ("zinc", "zinc_smoke"):
        p, cfg = parse_config(bundled_config(name))
        assert validate_scenario(cfg, p).passed


def test_parse_rejects_missing_key(tmp_path):
    path = _tweaked_config(tmp_path)
    text = path.read_text().replace("sr = 0.35\n", "")
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="sr"):
        parse_config(path)


def test_parse_rejects_unknown_key(tmp_path):
    path = _tweaked_config(tmp_path)
    path.write_text(path.read_text() + "\nextra_knob = 1\n")
    with pytest.raises(ConfigurationError, match="extra_knob"):
        parse_config(path)


def test_parse_rejects_malformed_value(tmp_path):
    path = _tweaked_config(tmp_path, {("scenario", "sr"): "not_a_number"})
    with pytest.raises(ConfigurationError):
        parse_config(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(tmp_path / "nope.cfg")


def test_parse_accepts_exactly_the_dataclass_fields():
    keys = {k for group in (cli._REQUIRED, cli._OPTIONAL) for ks in group.values() for k in ks}
    names = {"lam" if k == "lambda" else k for k in keys}
    assert names == {f.name for f in fields(PhysicalParams) + fields(ScenarioConfig)}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "section, key, value",
    [("output", "smoothing", 0.3), ("numerics", "h1_l2_term", "false")],
    ids=["smoothing", "h1_l2_term"],
)
def test_removed_config_keys_exit_2(tmp_path, capsys, command, section, key, value):
    cfg = _tweaked_config(tmp_path, {(section, key): value})
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"invalid config: unknown key '{key}' in [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_fast_flag_exits_2(tmp_path, capsys, command):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, str(bundled_config("zinc_smoke")), "--out-dir", str(out), "--fast"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fast" in capsys.readouterr().err
    assert not out.exists()


def test_run_smoke_scenario(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists()
    assert (out / "transforms.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "validation: PASS" in summary
    assert "completed = True" in summary


def test_run_is_byte_deterministic(tmp_path):
    cfg = bundled_config("zinc_smoke")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out-dir", str(a)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "transforms.csv").read_bytes() == (b / "transforms.csv").read_bytes()


def test_validate_subcommand_passes_and_fails(tmp_path, capsys):
    assert main(["validate", str(bundled_config("zinc_smoke"))]) == 0
    bad = _tweaked_config(tmp_path, {("scenario", "lambda"): "2.0"})
    assert main(["validate", str(bad)]) == 2
    assert "lambda_bound: FAIL" in capsys.readouterr().out


def test_run_rejects_large_lambda(tmp_path, capsys):
    bad = _tweaked_config(tmp_path, {("scenario", "lambda"): "2.0"})
    code = main(["run", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "lambda_bound" in capsys.readouterr().err
    assert "validation: FAIL" in (tmp_path / "o" / "summary.txt").read_text()


def test_run_rejects_small_setpoint(tmp_path, capsys):
    bad = _tweaked_config(tmp_path, {("scenario", "sr"): "0.05"})
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "setpoint_bound" in capsys.readouterr().err


def test_run_blow_up_exits_3_with_partial_trace(tmp_path):
    bad = _tweaked_config(tmp_path, {("scenario", "c"): "1e9"})
    out = tmp_path / "o"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 3
    cols = read_csv(out / "trace.csv")
    assert cols["t"].size >= 1
    assert "completed = False" in (out / "summary.txt").read_text()


def test_run_gain_beyond_table_limit_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(observer, "_GAIN_MAX_ROWS", 3)
    out = tmp_path / "o"
    assert main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(out)]) == 3
    assert read_csv(out / "trace.csv")["t"].size == 1
    summary = (out / "summary.txt").read_text()
    assert "completed = False" in summary
    assert "gain series" in summary


def test_run_checkpoint_beyond_series_cap_exits_3(tmp_path, monkeypatch):
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    refuse_j1_above(monkeypatch, 0.5 * (cfg.lam / p.alpha) * cfg.s0**2)
    out = tmp_path / "o"
    assert main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(out)]) == 3
    assert read_csv(out / "trace.csv")["t"].size == 1
    summary = (out / "summary.txt").read_text()
    assert "completed = False" in summary
    assert "exceeds the series cap" in summary


def test_smoke_run_does_not_load_scipy_special(tmp_path):
    # scipy.special adds 3.6 MB resident; only J1 kernels past z2 = 400 need it
    script = (
        "import sys\n"
        "from stefanlab.cli import bundled_config, main\n"
        f"code = main(['run', str(bundled_config('zinc_smoke')), '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, 'scipy.special' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.split() == ["0", "False"]
    assert out.stderr == ""


def test_summary_reports_full_trace_qc_residual(tmp_path):
    out = tmp_path / "o"
    assert main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(out)]) == 0
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    tr = SimpleNamespace(**read_csv(out / "trace.csv"))
    r = np.abs(qc_ode_residual(tr, cfg, p))
    assert r.size == tr.t.size - 1
    worst = int(np.argmax(r))
    expected = (
        f"qc ODE residual: max|r| = {r[worst]:.6g} at t = {tr.t[worst]:.6g}"
        f"  median|r| = {np.median(r):.6g}"
    )
    assert expected in (out / "summary.txt").read_text().splitlines()


def test_compare_identical_traces(tmp_path):
    out = tmp_path / "o"
    main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(out)])
    diffs = compare_traces(out / "trace.csv", out / "trace.csv")
    assert set(diffs) and all(v == 0.0 for v in diffs.values())


def test_compare_distinguishes_feedback_modes(tmp_path):
    sf = _tweaked_config(tmp_path, {("scenario", "mode"): "state_feedback"}, name="sf.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(a)])
    main(["run", str(sf), "--out-dir", str(b)])
    diffs = compare_traces(a / "trace.csv", b / "trace.csv")
    assert diffs["qc"] > 0.0
    assert diffs["t"] == 0.0


def test_compare_grid_refinement_shrinks_diffs(tmp_path):
    paths = {}
    for n in (32, 64, 128):
        cfgp = _tweaked_config(tmp_path, {("numerics", "grid_n"): n}, name=f"n{n}.cfg")
        out = tmp_path / f"out{n}"
        assert main(["run", str(cfgp), "--out-dir", str(out)]) == 0
        paths[n] = out / "trace.csv"
    coarse = compare_traces(paths[32], paths[64])
    fine = compare_traces(paths[64], paths[128])
    assert fine["s"] < coarse["s"]
    assert fine["qc"] < coarse["qc"]


def test_compare_schema_mismatch(tmp_path):
    write_csv(tmp_path / "a.csv", {"t": np.array([0.0]), "s": np.array([1.0])})
    write_csv(tmp_path / "b.csv", {"t": np.array([0.0]), "x": np.array([1.0])})
    with pytest.raises(ConfigurationError):
        compare_traces(tmp_path / "a.csv", tmp_path / "b.csv")
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2


def test_compare_length_mismatch(tmp_path):
    write_csv(tmp_path / "a.csv", {"t": np.array([0.0, 1.0])})
    write_csv(tmp_path / "b.csv", {"t": np.array([0.0])})
    with pytest.raises(ConfigurationError):
        compare_traces(tmp_path / "a.csv", tmp_path / "b.csv")


@pytest.mark.parametrize(
    "va, vb, want",
    [
        ([np.nan, 1.0], [2.0, 1.0], np.inf),
        ([2.0, 1.0], [np.nan, 1.0], np.inf),
        ([np.nan, 1.0], [np.nan, 1.5], 0.5),  # NaN in both files is a shared checkpoint gap
        ([np.inf, 1.0], [np.inf, 1.5], 0.5),
        ([np.inf, 1.0], [-np.inf, 1.0], np.inf),
    ],
    ids=["nan_in_a", "nan_in_b", "nan_in_both", "same_inf", "opposite_inf"],
)
def test_compare_nan_in_one_file_is_infinite(tmp_path, va, vb, want):
    write_csv(tmp_path / "a.csv", {"t": np.array([0.0, 1.0]), "V": np.array(va)})
    write_csv(tmp_path / "b.csv", {"t": np.array([0.0, 1.0]), "V": np.array(vb)})
    assert compare_traces(tmp_path / "a.csv", tmp_path / "b.csv") == {"t": 0.0, "V": want}


@pytest.mark.parametrize(
    "text, message",
    [(None, "not readable"), ("t,s\n0,1\n1,oops\n", "malformed"), ("t,s\n0,1\n1,2,3\n", "malformed")],
    ids=["missing", "non_numeric", "ragged"],
)
def test_compare_bad_trace_exits_2(tmp_path, capsys, text, message):
    write_csv(tmp_path / "good.csv", {"t": np.array([0.0, 1.0]), "s": np.array([1.0, 2.0])})
    bad = tmp_path / "bad.csv"
    if text is not None:
        bad.write_text(text)
    with pytest.raises(ConfigurationError, match=message):
        compare_traces(tmp_path / "good.csv", bad)
    assert main(["compare", str(tmp_path / "good.csv"), str(bad)]) == 2
    assert "compare failed: " in capsys.readouterr().err


def test_csv_roundtrip_preserves_floats(tmp_path):
    cols = {"x": np.array([1.0 / 3.0, 1e-300, 123456.789]), "flag": np.array([1, 0, 1])}
    write_csv(tmp_path / "t.csv", cols)
    back = read_csv(tmp_path / "t.csv")
    assert np.array_equal(back["x"], cols["x"])
    assert np.array_equal(back["flag"], cols["flag"].astype(float))


def _reference_csv(columns: dict) -> bytes:
    """The per-cell writer that the chunked one replaced."""
    arrays = [np.asarray(a) for a in columns.values()]
    n_rows = arrays[0].shape[0] if arrays else 0
    lines = [",".join(columns)]
    for i in range(n_rows):
        lines.append(
            ",".join(str(int(a[i])) if a.dtype.kind in "bi" else f"{a[i]:.17g}" for a in arrays)
        )
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS + 37])
def test_write_csv_matches_per_cell_reference(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 1.0 / 3.0]
    x = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    x[::7] = np.resize(special, x[::7].size)
    cols = {
        "x": x,
        "flag": rng.random(n_rows) < 0.5,
        "count": rng.integers(-(10**15), 10**15, n_rows),
        "y": rng.random(n_rows),
    }
    write_csv(tmp_path / "t.csv", cols)
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(cols)


def test_sweep_runs_isolated_outputs(tmp_path):
    c1 = _tweaked_config(tmp_path, name="one.cfg")
    c2 = _tweaked_config(tmp_path, {("numerics", "t_end"): 20}, name="two.cfg")
    out = tmp_path / "sweep"
    code = main(["sweep", str(c1), str(c2), "--out-dir", str(out)])
    assert code == 0
    assert (out / "one" / "trace.csv").exists()
    assert (out / "two" / "trace.csv").exists()


def test_constraint_monitor_runs_once_per_trace(tmp_path, monkeypatch):
    from stefanlab import diagnostics

    traces = []
    real = diagnostics.monitor_constraints

    def counting(trace):
        traces.append(trace)
        return real(trace)

    monkeypatch.setattr(diagnostics, "monitor_constraints", counting)
    one = _tweaked_config(tmp_path, {("numerics", "t_end"): 20}, name="one.cfg")
    assert main(["run", str(one), "--out-dir", str(tmp_path / "run")]) == 0
    assert len(traces) == 1
    traces.clear()
    two = _tweaked_config(tmp_path, {("scenario", "mode"): "state_feedback"}, name="two.cfg")
    blow_up = _tweaked_config(tmp_path, {("scenario", "c"): 1e9}, name="blow_up.cfg")
    invalid = _tweaked_config(tmp_path, {("scenario", "sr"): 0.05}, name="invalid.cfg")
    configs = [str(c) for c in (one, two, blow_up, invalid)]
    assert main(["sweep", *configs, "--out-dir", str(tmp_path / "sweep")]) == 3
    # one call per member that ran: the invalid member never made a trace
    assert len(traces) == 3
    assert len({id(trace) for trace in traces}) == 3


def test_sweep_propagates_worst_exit(tmp_path):
    good = _tweaked_config(tmp_path, name="good.cfg")
    bad = _tweaked_config(tmp_path, {("scenario", "sr"): "0.05"}, name="bad.cfg")
    code = main(["sweep", str(good), str(bad), "--out-dir", str(tmp_path / "s")])
    assert code == 2


@pytest.mark.parametrize("n_batches, pools_made", [(1, []), (2, [2])])
def test_sweep_pool_has_no_more_workers_than_batches(tmp_path, monkeypatch, n_batches, pools_made):
    # a fake pool that records its size and maps in-process; the real one
    # forks all of its workers at the first submit
    pools, swept = [], []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "_sweep_batch", lambda batch: swept.extend(r.out.name for r in batch) or 0)
    # three valid configs on n_batches grids: one lockstep batch per grid
    grids = [64, 64, 64 if n_batches == 1 else 72]
    configs = [
        str(_tweaked_config(tmp_path, {("numerics", "grid_n"): g}, name=f"c{i}.cfg"))
        for i, g in enumerate(grids)
    ]
    assert main(["sweep", *configs, "--out-dir", str(tmp_path / "s"), "--jobs", "5000"]) == 0
    assert pools == pools_made
    assert swept == [Path(c).stem for c in configs]


def test_sweep_refuses_colliding_stems(tmp_path, capsys):
    (tmp_path / "d1").mkdir()
    (tmp_path / "d2").mkdir()
    first = _tweaked_config(tmp_path / "d1", name="m.cfg")
    second = _tweaked_config(tmp_path / "d2", name="m.cfg")
    out = tmp_path / "s"
    assert main(["sweep", str(first), str(second), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "edits, flag, message",
    [
        ({}, ["--checkpoint-every", "0"], "checkpoint_every must be at least 1"),
        ({("numerics", "t_end"): "inf"}, [], "t_end must be finite"),
        ({("physical", "rho"): "inf"}, [], "rho must be finite"),
        ({("physical", "tm"): "inf"}, [], "tm must be finite"),
    ],
    ids=["checkpoint_every_0", "t_end_inf", "rho_inf", "tm_inf"],
)
def test_invalid_override_exits_2(tmp_path, capsys, command, edits, flag, message):
    cfg = _tweaked_config(tmp_path, edits)
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "o"), *flag]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_members_match_their_own_runs(tmp_path, jobs):
    edits = {
        "output": {},
        "state": {("scenario", "mode"): "state_feedback"},
        "zero_gain": {("scenario", "lambda"): 0.0},
        "blow_up": {("scenario", "c"): 1e9},
        "invalid": {("scenario", "sr"): 0.05},
        "coarse": {("numerics", "grid_n"): 32},
    }
    configs = [str(_tweaked_config(tmp_path, edit, name=f"{name}.cfg")) for name, edit in edits.items()]
    out = tmp_path / "sweep"
    assert main(["sweep", *configs, "--out-dir", str(out), "--jobs", jobs]) == 3
    codes = {}
    for path in configs:
        stem = Path(path).stem
        own = tmp_path / "own" / stem
        codes[stem] = main(["run", path, "--out-dir", str(own)])
        files = ["summary.txt"] if stem == "invalid" else ["trace.csv", "transforms.csv", "summary.txt"]
        assert sorted(p.name for p in (out / stem).iterdir()) == sorted(files)
        for f in files:
            assert (out / stem / f).read_bytes() == (own / f).read_bytes(), (stem, f)
    assert codes == {name: {"blow_up": 3, "invalid": 2}.get(name, 0) for name in edits}


def test_run_scenario_accepts_checkpoint_override(tmp_path):
    out = tmp_path / "o"
    code = run_scenario(bundled_config("zinc_smoke"), out_dir=out, checkpoint_every=100)
    assert code == 0
    ck = read_csv(out / "transforms.csv")
    # rows at steps 0, 100, ..., 500 (the final row is already on the stride)
    assert ck["t"].size == 6
