"""Config parsing, CSV artifacts, exit codes, determinism, compare, sweep."""

import concurrent.futures
import configparser
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stefanlab import RunSummary, _scheme, cli, diagnostics, runner, specfun, transforms
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
from stefanlab.errors import ConfigurationError
from stefanlab.params import (
    MODES,
    PhysicalParams,
    ScenarioConfig,
    lambda_upper_bound,
    setpoint_lower_bound,
    validate_scenario,
)
from stefanlab.runner import lockstep_batches

from conftest import refuse_series_above
from oracles import fit_decay_rate, qc_ode_residual, whole_trace_summary


FLAG_COLUMNS = ("qc_positive", "s_increasing", "s_below_sr", "u_nonnegative", "error_nonpositive")


def _tweaked_config(tmp_path, edits=None, name="tweaked.cfg", base="zinc_smoke"):
    """Copy a bundled config and override {(section, key): value} pairs."""
    parser = configparser.ConfigParser()
    parser.read(bundled_config(base))
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


def test_parse_rejects_missing_section(tmp_path):
    parser = configparser.ConfigParser()
    parser.read(bundled_config("zinc_smoke"))
    parser.remove_section("numerics")
    path = tmp_path / "no_numerics.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigurationError, match=r"^missing section \[numerics\]$"):
        parse_config(path)


def test_parse_rejects_unknown_section(tmp_path):
    path = _tweaked_config(tmp_path)
    path.write_text(path.read_text() + "\n[extra]\nknob = 1\n")
    with pytest.raises(ConfigurationError, match=r"^unknown section \[extra\]$"):
        parse_config(path)


def test_parse_rejects_malformed_value(tmp_path):
    path = _tweaked_config(tmp_path, {("scenario", "sr"): "not_a_number"})
    with pytest.raises(ConfigurationError):
        parse_config(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(tmp_path / "nope.cfg")


# config files that configparser cannot read: name -> (the file's bytes made
# from zinc_smoke's, part of the message)
MALFORMED = {
    "duplicate_section": (lambda text: text + b"\n[scenario]\nc = 0.002\n", "section 'scenario'"),
    "duplicate_key": (lambda text: text.replace(b"sr = 0.35\n", b"sr = 0.35\nsr = 0.3\n"), "option 'sr'"),
    "no_section_header": (lambda text: b"sr = 0.35\n" + text, "no section headers"),
    "non_utf8": (lambda text: b"# \xff\n" + text, "config file not UTF-8"),
    "percent_sign": (lambda text: text.replace(b"sr = 0.35\n", b"sr = 0.35%\n"), "malformed value"),
}


@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
@pytest.mark.parametrize("edit, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_file_exits_2(tmp_path, capsys, command, edit, message):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(edit(bundled_config("zinc_smoke").read_bytes()))
    out = tmp_path / "o"
    if command == "validate":
        assert main(["validate", str(bad)]) == 2
    elif command == "run":
        assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    else:
        # the bad member exits 2 and the good one runs
        smoke = _tweaked_config(tmp_path, name="smoke.cfg")
        assert main(["sweep", str(bad), str(smoke), "--out-dir", str(out), "--jobs", "1"]) == 2
        assert (out / "smoke" / "summary.txt").read_text().count("completed = True") == 1
        assert not (out / "bad").exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("invalid config") == 1
    assert message in err


def test_parse_accepts_exactly_the_dataclass_fields():
    keys = {k for ks in cli._KEYS.values() for k in ks}
    names = {"lam" if k == "lambda" else k for k in keys}
    assert names == {f.name for f in fields(PhysicalParams) + fields(ScenarioConfig)}


def test_schema_requires_every_key_but_two_in_file_order():
    required = {
        section: [key for key, (_, needed) in keys.items() if needed]
        for section, keys in cli._KEYS.items()
    }
    assert required == {
        "physical": ["rho", "cp", "k", "dh", "tm"],
        "scenario": ["s0", "H", "Hhat", "c", "lambda", "sr", "mode"],
        "numerics": ["grid_n", "dt", "t_end"],
        "output": [],
    }
    optional = [key for keys in cli._KEYS.values() for key, (_, needed) in keys.items() if not needed]
    assert optional == ["domain_cap", "checkpoint_every"]
    # the bundled configs write every key in the schema's order
    for name in ("zinc", "zinc_smoke"):
        parser = configparser.ConfigParser()
        parser.read(bundled_config(name))
        assert {section: list(parser[section]) for section in parser.sections()} == {
            section: [key.lower() for key in keys] for section, keys in cli._KEYS.items()
        }


# configs with two errors each: the edits of zinc_smoke's lines, and the one
# message the CLI reports (the material first, then the values in file order)
TWO_ERRORS = {
    "rho_and_sr": (
        {"rho = 6570": "rho = -1", "sr = 0.35": "sr = abc"},
        "invalid config: rho must be strictly positive\n",
    ),
    "grid_n_and_mode": (
        {"grid_n = 64": "grid_n = 6.5", "mode = output_feedback": "mode = nope"},
        "invalid config: malformed value in config: invalid literal for int() with base 10: '6.5'\n",
    ),
    "lambda_and_dt": (
        {"lambda = 0.001": "lambda = x", "dt = 0.1": "dt = -1"},
        "invalid config: malformed value in config: could not convert string to float: 'x'\n",
    ),
}


def _edited_smoke(tmp_path, edits):
    """zinc_smoke's text with each of its lines in edits replaced."""
    text = bundled_config("zinc_smoke").read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "edited.cfg"
    path.write_text(text)
    return path


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("edits, message", TWO_ERRORS.values(), ids=TWO_ERRORS.keys())
def test_config_with_two_errors_reports_the_first(tmp_path, capsys, command, edits, message):
    config = _edited_smoke(tmp_path, edits)
    out = tmp_path / "o"
    argv = [command, str(config)] + (["--out-dir", str(out)] if command == "run" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_keys_match_in_any_case(tmp_path, capsys, command):
    config = _edited_smoke(tmp_path, {"Hhat = 1000": "HHAT = 1000", "lambda = 0.001": "Lambda = 0.001"})
    assert parse_config(config) == parse_config(bundled_config("zinc_smoke"))
    argv = [command, str(config)] + (["--out-dir", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


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


def test_run_into_an_existing_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid output directory: {taken}: ") and err.count("\n") == 1
    assert taken.read_text() == "kept"


def test_sweep_member_whose_directory_is_a_file_exits_2_and_the_others_run(tmp_path, capsys):
    configs = [str(_tweaked_config(tmp_path, name=f"m{i}.cfg")) for i in range(3)]
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "m1").write_text("kept")
    assert main(["sweep", *configs, "--out-dir", str(out), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid output directory: {out / 'm1'}: ") and err.count("\n") == 1
    assert (out / "m1").read_text() == "kept"
    for member in ("m0", "m2"):
        assert "completed = True" in (out / member / "summary.txt").read_text()


def test_sweep_into_an_existing_file_exits_2(tmp_path, capsys):
    configs = [str(_tweaked_config(tmp_path, name=f"m{i}.cfg")) for i in range(2)]
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["sweep", *configs, "--out-dir", str(taken), "--jobs", "1"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in lines] == [
        ["invalid output directory", str(taken / "m0")],
        ["invalid output directory", str(taken / "m1")],
    ]
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_1_exits_2(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli, "_sweep", lambda *args: pytest.fail("the sweep started"))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(bundled_config("zinc_smoke")), "--out-dir", str(out), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_jobs_not_an_integer_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_sweep", lambda *args: pytest.fail("the sweep started"))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(bundled_config("zinc_smoke")), "--out-dir", str(out), "--jobs", "two"])
    assert exc.value.code == 2
    assert "argument --jobs: invalid int value: 'two'" in capsys.readouterr().err
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


@pytest.mark.parametrize("overflowed", [("h1_u",), ("h1_u", "h1_err")], ids=["h1_u", "both"])
def test_overflowed_norms_are_logged_as_inf(tmp_path, capsys, overflowed):
    """A diverging run's H1 norms overflow to inf (``h1_norm_sq``): trace.csv
    logs them as inf with no warning, and the summary fits a decay rate only
    to a finite h1_err.  A synthetic trace, so the check does not rest on
    which admitted gain happens to overflow before it collapses."""
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    names = [f.name for f in fields(runner.Trace) if f.type is np.ndarray]
    cols = {name: np.linspace(1.0, 2.0, 30) for name in names}
    cols["t"] = cfg.dt * np.arange(30)
    cols["h1_err"] = np.exp(-0.5 * cols["t"])
    for name in overflowed:
        cols[name][-5:] = np.inf
    trace = runner.Trace(**cols, dt=cfg.dt, grid_n=cfg.grid_n, sr=cfg.sr)
    failure = "interface collapsed: s = -1 at t = 2.9"
    run = cli._Run(cfg, p, validate_scenario(cfg, p), tmp_path)
    # the CLI's log, given the synthetic trace as one block
    with cli._TraceWriter(run) as log:
        log.write(trace)
        result = runner.SimulationResult(log.trace(), {}, completed=False, failure=failure)
    assert cli._write_outputs(run, log, result) == 3
    assert f"run aborted: {failure}" in capsys.readouterr().err
    written = read_csv(tmp_path / "trace.csv")
    for name in ("h1_u", "h1_err"):
        assert np.isposinf(written[name]).sum() == (5 if name in overflowed else 0), name
        assert not np.isnan(written[name]).any(), name
    summary = (tmp_path / "summary.txt").read_text()
    assert "completed = False" in summary
    assert ("decay rate = 0.5\n" in summary) == ("h1_err" not in overflowed)


def _steep_zinc(tmp_path, H, Hhat, setpoint_factor):
    """Zinc over 2 s with initial slopes H and Hhat, the gain at 0.9 x its
    bound and the setpoint at setpoint_factor x its bound; admitted."""
    p, cfg = parse_config(bundled_config("zinc"))
    steep = replace(cfg, H=H, Hhat=Hhat)
    lam = 0.9 * lambda_upper_bound(steep, p.alpha)
    sr = setpoint_factor * setpoint_lower_bound(steep, p.alpha, p.beta)
    assert validate_scenario(replace(steep, lam=lam, sr=sr), p).passed
    edits = {
        ("scenario", "H"): repr(H),
        ("scenario", "Hhat"): repr(Hhat),
        ("scenario", "lambda"): repr(lam),
        ("scenario", "sr"): repr(sr),
        ("numerics", "t_end"): "2",
    }
    return _tweaked_config(tmp_path, edits, base="zinc")


def test_run_with_setpoint_past_float_square_exits_without_traceback(tmp_path, capsys):
    """sr = 1.8e154 m: sr^2 overflows, and ``lyapunov_constants`` forms it as
    a float product (inf), where ``**`` raised OverflowError."""
    out = tmp_path / "o"
    config = _steep_zinc(tmp_path, 1e155, 1.01e155, 1000.0)
    assert main(["run", str(config), "--out-dir", str(out)]) == 3
    assert "run aborted: interface collapsed" in capsys.readouterr().err
    assert "a = inf  b = 0  d = inf" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("sr", [1e160, 1e300])
def test_run_with_huge_setpoint_logs_overflowed_energy_as_inf(tmp_path, capsys, sr):
    """The first heat flux sends s past 1e154, so the energy column of row 1
    overflows in the trapezoid integral; it is logged as inf."""
    edits = {("scenario", "sr"): sr, ("numerics", "domain_cap"): 2 * sr, ("numerics", "t_end"): 2}
    config = _tweaked_config(tmp_path, edits)
    assert main(["validate", str(config)]) == 0
    out = tmp_path / "o"
    assert main(["run", str(config), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "run aborted: gain series at (lam/alpha)*y^2 = inf needs more than 400 terms" in err
    assert np.isposinf(read_csv(out / "trace.csv")["energy"][1])


def test_run_with_overflowed_lyapunov_total_logs_inf_v(tmp_path, capsys):
    """H = 1e156: Vtot overflows while exp(-a*s) is 0, so V is inf, not the
    NaN of inf * 0 and its warning.  The slope's square overflows too, so
    h1_u is inf from row 0 on."""
    out = tmp_path / "o"
    config = _steep_zinc(tmp_path, 1e156, 2e156, 2.0)
    assert main(["run", str(config), "--out-dir", str(out)]) == 3
    assert "run aborted: interface collapsed" in capsys.readouterr().err
    trace, checkpoints = read_csv(out / "trace.csv"), read_csv(out / "transforms.csv")
    assert np.isposinf(trace["h1_u"][0])
    logged = np.isin(trace["t"], checkpoints["t"])
    assert logged.sum() == checkpoints["t"].size >= 1
    for name in ("V", "Vtot"):
        assert not np.isnan(checkpoints[name]).any(), name
        assert np.array_equal(trace[name][logged], checkpoints[name]), name
    assert np.isposinf(checkpoints["V"]).all()


def _diverging_observer(tmp_path):
    """Zinc over 300 s under state feedback with the gain at 0.9 x its
    bound, whose observer diverges."""
    p, cfg = parse_config(bundled_config("zinc"))
    lam = 0.9 * lambda_upper_bound(cfg, p.alpha)
    edits = {
        ("scenario", "lambda"): repr(lam),
        ("scenario", "mode"): "state_feedback",
        ("numerics", "t_end"): "300",
    }
    return _tweaked_config(tmp_path, edits, base="zinc")


def test_run_diverging_observer_exits_3_with_inf_error_norms(tmp_path, capsys):
    """Under state feedback the plant ignores the estimate, so an observer
    that diverges at 0.9 x the gain bound grows for hundreds of rows after
    its H1 error norm overflows, until its field is no longer finite.  The
    run exits 3 with no warning, logs those norms as inf, and the summary
    fits no decay rate to them."""
    bad = _diverging_observer(tmp_path)
    out = tmp_path / "o"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 3
    assert "run aborted: temperature field became non-finite" in capsys.readouterr().err
    cols = read_csv(out / "trace.csv")
    assert np.isposinf(cols["h1_err"]).sum() > 100
    assert not np.isnan(cols["h1_err"]).any()
    assert np.isfinite(cols["h1_u"]).all()
    summary = (out / "summary.txt").read_text()
    assert "completed = False" in summary
    assert "decay rate" not in summary


def test_run_gain_beyond_table_limit_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(specfun, "_GAIN_MAX_ROWS", 3)
    out = tmp_path / "o"
    assert main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(out)]) == 3
    assert read_csv(out / "trace.csv")["t"].size == 1
    summary = (out / "summary.txt").read_text()
    assert "completed = False" in summary
    assert "gain series" in summary


def test_run_checkpoint_beyond_series_cap_exits_3(tmp_path, monkeypatch):
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    refuse_series_above(monkeypatch, 0.5 * (cfg.lam / p.alpha) * cfg.s0**2)
    out = tmp_path / "o"
    assert main(["run", str(bundled_config("zinc_smoke")), "--out-dir", str(out)]) == 3
    assert read_csv(out / "trace.csv")["t"].size == 1
    summary = (out / "summary.txt").read_text()
    assert "completed = False" in summary
    assert "exceeds the series cap" in summary


def _python(script):
    """Run script in a fresh interpreter under -W error, with this
    process's import path; its completed process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )


def _extreme_s0_config(tmp_path, s0):
    """zinc_smoke at s0; past 1 with sr = 1e300 and no domain_cap."""
    name = f"s0_{s0}.cfg"
    if float(s0) < 1.0:
        return _tweaked_config(tmp_path, {("scenario", "s0"): s0}, name=name)
    path = _tweaked_config(tmp_path, {("scenario", "s0"): s0, ("scenario", "sr"): "1e300"}, name=name)
    path.write_text(path.read_text().replace("domain_cap = 0.7\n", ""))
    return path


@pytest.mark.parametrize(
    "command, s0, code",
    [("validate", "1e200", 2), ("validate", "1e-200", 0), ("run", "1e-160", 3), ("run", "1e-200", 3)],
)
def test_extreme_s0_exits_with_a_code_not_a_traceback(tmp_path, capsys, command, s0, code):
    """An s0 whose square overflows or underflows: validate reports its
    bounds, and an admitted s0 too small for the step's matrix (its square
    times dxi^2 underflows) stops the run at its first step with exit 3."""
    args = [command, str(_extreme_s0_config(tmp_path, s0))]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "o")]
    assert main(args) == code
    out, err = capsys.readouterr()
    if command == "validate":
        assert out.endswith(f"validation: {'PASS' if code == 0 else 'FAIL'}\n")
        assert ("setpoint_bound: FAIL  value=1e+300  bound=inf" in out) == (code == 2)
    else:
        assert err == "run aborted: temperature field became non-finite\n"
        assert "completed = False" in (tmp_path / "o" / "summary.txt").read_text()


@pytest.mark.parametrize(
    "section, key, value, code, failure",
    [
        ("physical", "dh", "1e200", 0, None),
        ("physical", "dh", "1e300", 0, None),
        ("scenario", "c", "1e300", 3, "interface reached the domain cap"),
        ("physical", "k", "1e100", 3, "interface collapsed"),
        ("physical", "rho", "1e-300", 3, "interface collapsed"),
        ("scenario", "H", "0", 0, None),
        ("physical", "tm", "1e308", 0, None),
        ("physical", "tm", "-1e308", 0, None),
    ],
    ids=["dh_1e200", "dh_1e300", "c_1e300", "k_1e100", "rho_1e-300", "H_0", "tm_1e308", "tm_-1e308"],
)
def test_admitted_extremes_exit_with_a_code_not_a_warning(
    tmp_path, capsys, section, key, value, code, failure
):
    """zinc_smoke with one admitted extreme: a tiny beta (dh) or a huge c
    overflows the controller pair of a checkpoint, which the engine logs
    as inf without a warning; the run ends in its claims or a typed exit."""
    path = _tweaked_config(tmp_path, {(section, key): value})
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == code
    out, err = capsys.readouterr()
    assert out == ""
    if failure is None:
        assert err == ""
    else:
        assert err.startswith(f"run aborted: {failure}: s = ") and err.count("\n") == 1
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert f"completed = {failure is None}" in summary


# the stderr line of every failure a run may stop with
TYPED_FAILURE = re.compile(
    r"run aborted: (?:"
    r"interface (?:collapsed|reached the domain cap): s = \S+ at t = \S+"
    r"|gain series at \(lam/alpha\)\*y\^2 = \S+ needs more than \d+ terms"
    r"|temperature field became non-finite"
    r"|tridiagonal solve failed: dgtsv info = -?\d+)"
)


def _admitted_box(seed: int, draws: int) -> tuple[PhysicalParams, list[ScenarioConfig]]:
    """The zinc material and the scenarios of `draws` seeded draws from a box
    over the admitted range that ``validate_scenario`` passes: s0, H,
    Hhat/H - 1, c, dt and the setpoint's margin sr/bound - 1 log-uniform,
    lambda 0 or uniform below 0.99 of its bound, grid_n uniform in 8..79,
    either mode, 200 steps and the default domain cap of 2 sr."""
    rng = random.Random(seed)
    p, zinc = parse_config(bundled_config("zinc"))

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    admitted = []
    for _ in range(draws):
        s0, H, dt = log_uniform(1e-3, 0.3), log_uniform(1e-2, 1e8), log_uniform(1e-3, 1.0)
        cfg = replace(
            zinc, s0=s0, H=H, Hhat=H * (1.0 + log_uniform(1e-3, 100.0)), c=log_uniform(1e-5, 1.0),
            grid_n=rng.randint(8, 79), dt=dt, t_end=200 * dt, mode=rng.choice(MODES),
            domain_cap=None,
        )
        share = rng.choice((0.0, rng.uniform(0.0, 0.99)))
        cfg = replace(cfg, lam=share * lambda_upper_bound(cfg, p.alpha))
        margin = 1.0 + log_uniform(1e-3, 10.0)
        cfg = replace(cfg, sr=margin * setpoint_lower_bound(cfg, p.alpha, p.beta))
        if validate_scenario(cfg, p).passed:
            admitted.append(cfg)
    return p, admitted


def _box_config(tmp_path, cfg: ScenarioConfig):
    """A config file that ``parse_config`` reads back as the box scenario cfg."""
    # str of a float is its shortest round-trip form, so parse_config reads
    # back the very scenario drawn
    scenario = dict(s0=cfg.s0, H=cfg.H, Hhat=cfg.Hhat, c=cfg.c, sr=cfg.sr, mode=cfg.mode)
    edits = {("scenario", key): value for key, value in scenario.items()}
    edits[("scenario", "lambda")] = cfg.lam
    edits.update({("numerics", key): getattr(cfg, key) for key in ("grid_n", "dt", "t_end")})
    path = _tweaked_config(tmp_path, edits, name="box.cfg", base="zinc")
    path.write_text(path.read_text().replace("domain_cap = 0.7\n", ""))
    assert parse_config(path)[1] == cfg
    return path


def test_admitted_box_runs_end_in_the_claims_or_a_typed_exit(tmp_path, capsys):
    """Every admitted scenario of a seeded box, through ``run`` under the
    suite's warnings-as-errors: no exception and no warning, exit 0 or 3,
    and an exit 3 says only which typed failure stopped the run.  Whether
    an exit-0 run meets every claim is not asserted here."""
    _, cfgs = _admitted_box(seed=5, draws=120)
    assert len(cfgs) >= 90
    for j, cfg in enumerate(cfgs):
        path = _box_config(tmp_path, cfg)
        code = main(["run", str(path), "--out-dir", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code in (0, 3) and out == "", (j, cfg, code, out, err)
        lines = err.splitlines()
        if code == 0:
            assert not lines, (j, cfg, err)
        else:
            assert lines and all(TYPED_FAILURE.fullmatch(line) for line in lines), (j, cfg, err)


def test_box_checkpoint_past_the_series_cap_forms_no_checkpoint(tmp_path, capsys):
    # draw 252's row 1 takes (lam/alpha)*y^2 = 2.45e5, past the I1 series'
    # one cap: the run stops at that row, before its checkpoint
    _, cfgs = _admitted_box(seed=5, draws=300)
    path = _box_config(tmp_path, cfgs[252])
    out = tmp_path / "o"
    assert main(["run", str(path), "--out-dir", str(out), "--checkpoint-every", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "run aborted: gain series at (lam/alpha)*y^2 = 245172 needs more than 400 terms\n"
    assert read_csv(out / "trace.csv")["t"].size == 2
    assert read_csv(out / "transforms.csv")["t"].size == 1


def test_sweep_with_an_unsteppable_s0_still_runs_the_other_grid(tmp_path, capsys):
    tiny = _extreme_s0_config(tmp_path, "1e-160")
    other = _tweaked_config(tmp_path, {("numerics", "grid_n"): "32", ("numerics", "t_end"): "5"}, name="other.cfg")
    out = tmp_path / "o"
    assert main(["sweep", str(tiny), str(other), "--out-dir", str(out), "--jobs", "1"]) == 3
    assert "completed = False" in (out / tiny.stem / "summary.txt").read_text()
    assert "completed = True" in (out / "other" / "summary.txt").read_text()
    assert read_csv(out / "other" / "trace.csv")["t"].size == 51


def test_smoke_run_does_not_load_scipy_special(tmp_path):
    # scipy.special adds 24 MiB resident (scipy 1.17.1); only runs with a
    # checkpoint whose J1 kernel goes past z2 = 400 pay it
    script = (
        "import sys\n"
        "from stefanlab.cli import bundled_config, main\n"
        f"code = main(['run', str(bundled_config('zinc_smoke')), '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, 'scipy.special' in sys.modules)\n"
    )
    out = _python(script)
    assert out.stdout.split() == ["0", "False"]
    assert out.stderr == ""


def test_run_does_not_import_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma on first use, about 25 ms
    script = (
        "import sys\n"
        "from stefanlab.cli import bundled_config, main\n"
        f"code = main(['run', str(bundled_config('zinc_smoke')), '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    out = _python(script)
    assert out.stdout.split() == ["0", "False"]
    assert out.stderr == ""


def test_run_and_serial_sweep_load_no_linalg_f2py_or_pool(tmp_path):
    # scipy.linalg's package init imports numpy.f2py (a quarter second and
    # 25 MB resident) and scipy's own OpenBLAS; dgtsv comes from numpy's;
    # the process pool is for --jobs > 1 only; fractions and its import of
    # decimal serve only the test oracles
    configs = [str(_tweaked_config(tmp_path, name=f"m{i}.cfg")) for i in range(2)]
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from stefanlab.cli import bundled_config, main\n"
        f"run = main(['run', str(bundled_config('zinc_smoke')), '--out-dir', {str(tmp_path / 'run')!r}])\n"
        f"sweep = main(['sweep', *{configs!r}, '--out-dir', {str(tmp_path / 'sweep')!r}, '--jobs', '1'])\n"
        "modules = ('scipy.linalg', 'numpy.f2py', 'concurrent.futures', 'fractions', 'decimal')\n"
        "print(run, sweep, *(m in sys.modules for m in modules))\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "maps = Path('/proc/self/maps')\n"
        "print(maps.exists() and 'libscipy_openblas-' in maps.read_text())\n"
    )
    out = _python(script)
    loaded, scipy_modules, scipy_openblas = out.stdout.split("\n")[:3]
    assert loaded.split() == ["0", "0"] + ["False"] * 5
    assert scipy_modules == ""
    assert scipy_openblas == "False"
    assert out.stderr == ""


def test_run_after_scipy_linalg_import_writes_the_same_bytes(tmp_path):
    # scipy.linalg loads scipy's own OpenBLAS beside numpy's; the engine's
    # dgtsv stays numpy's, and the outputs stay the same bytes
    smoke = str(bundled_config("zinc_smoke"))
    script = (
        "import sys\n"
        "from stefanlab.cli import main\n"
        f"before = main(['run', {smoke!r}, '--out-dir', {str(tmp_path / 'before')!r}])\n"
        "loaded = 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg\n"
        f"after = main(['run', {smoke!r}, '--out-dir', {str(tmp_path / 'after')!r}])\n"
        "print(before, loaded, after)\n"
    )
    out = _python(script)
    assert out.stdout.split() == ["0", "False", "0"]
    assert out.stderr == ""
    for name in ("trace.csv", "transforms.csv", "summary.txt"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes(), name


def test_failed_symbol_lookup_falls_back_to_the_same_outputs(tmp_path):
    # the lookup of numpy's dgtsv fails at `import stefanlab`, so the solve
    # is scipy's and scipy.linalg gets loaded
    smoke = str(bundled_config("zinc_smoke"))
    assert main(["run", smoke, "--out-dir", str(tmp_path / "numpy")]) == 0
    script = (
        "import ctypes, sys\n"
        "def refuse(*args, **kwargs):\n"
        "    raise OSError('symbol lookup made to fail')\n"
        "ctypes.CDLL = refuse\n"
        "from stefanlab import _scheme\n"
        "from stefanlab.cli import main\n"
        f"code = main(['run', {smoke!r}, '--out-dir', {str(tmp_path / 'fallback')!r}])\n"
        "print(_scheme._dgtsv is None, 'scipy.linalg' in sys.modules, code)\n"
    )
    out = _python(script)
    assert out.stdout.split() == ["True", "True", "0"]
    assert out.stderr == ""
    for name in ("trace.csv", "transforms.csv", "summary.txt"):
        assert (tmp_path / "fallback" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes(), name


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


def test_compare_header_only_traces(tmp_path, capsys):
    # a header with no data line, or only blank ones, has empty columns,
    # with no np.loadtxt warning
    (tmp_path / "a.csv").write_text("t,s\n")
    (tmp_path / "b.csv").write_text("t,s\n \n\n")
    write_csv(tmp_path / "rows.csv", {"t": np.array([0.0, 1.0]), "s": np.array([0.1, 0.2])})
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
    assert capsys.readouterr().out == "t: 0\ns: 0\n"
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == "compare failed: column 't' length mismatch\n"


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


def test_compare_reads_a_hash_line_as_a_malformed_row(tmp_path, capsys):
    # a trace has no comments: np.loadtxt's default would skip the line and
    # warn that the file holds no data
    write_csv(tmp_path / "good.csv", {"t": np.array([0.0]), "s": np.array([1.0])})
    (tmp_path / "note.csv").write_text("t,s\n# note\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", str(tmp_path / "good.csv"), str(tmp_path / "note.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"compare failed: malformed trace file: {tmp_path / 'note.csv'}")


def test_read_csv_refuses_an_empty_file(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(ConfigurationError, match=f"^empty trace file: {re.escape(str(tmp_path))}"):
        read_csv(tmp_path / "empty.csv")


def test_read_csv_refuses_rows_wider_than_the_header(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("t,s\n1,2,3\n4,5,6\n")
    with pytest.raises(ConfigurationError, match=f"^malformed trace file: {re.escape(str(path))}$"):
        read_csv(path)


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


def _library_run(config, out: Path):
    """The library ``simulate`` result of a config, with its whole trace
    written to out/trace.csv by ``write_csv(result.trace.columns())`` and
    the summary formed from the whole trace (``oracles.whole_trace_summary``)
    written to out/summary.txt."""
    p, cfg = parse_config(config)
    result = runner.simulate(cfg, p)
    out.mkdir(parents=True)
    write_csv(out / "trace.csv", result.trace.columns())
    (out / "summary.txt").write_text(whole_trace_summary(cfg, p, validate_scenario(cfg, p), result))
    return result


def _fold_summary(cfg, p, result, block_rows=None) -> str:
    """summary.txt of a library result, its trace given to a
    ``RunSummary`` in blocks of block_rows rows (one block if None)."""
    trace, summary = result.trace, RunSummary(cfg, p)
    names = runner._array_fields(runner.Trace)
    step = block_rows or trace.t.size
    for start in range(0, trace.t.size, step):
        block = {name: getattr(trace, name)[start : start + step] for name in names}
        summary.write(runner._trace_of(block, block["t"].size, cfg))
    return cli._summary_text(cfg, p, validate_scenario(cfg, p), replace(result, trace=None), summary)


@pytest.mark.parametrize("case", ["smoke", "diverging_observer"])
def test_summary_fold_is_independent_of_block_size(tmp_path, case):
    # the diverging run overflows in the fold's residual before it fails,
    # with no warning
    config = bundled_config("zinc_smoke") if case == "smoke" else _diverging_observer(tmp_path)
    p, cfg = parse_config(config)
    result = runner.simulate(cfg, p)
    assert result.completed == (case == "smoke")
    want = whole_trace_summary(cfg, p, validate_scenario(cfg, p), result)
    assert ("qc ODE residual" in want) == ("decay rate" in want) == (case == "smoke")
    for block_rows in (1, 2, 63, 64, 65, None):
        assert _fold_summary(cfg, p, result, block_rows) == want, block_rows


@pytest.mark.parametrize("rows", [2, 3, 19, 20])
def test_summary_of_a_short_trace_matches_the_whole_trace_summary(rows):
    # the residual line needs 3 rows and the decay fit 20
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    full = runner.simulate(cfg, p)
    columns = {name: getattr(full.trace, name) for name in runner._array_fields(runner.Trace)}
    short = replace(full, trace=runner._trace_of(columns, rows, cfg))
    want = whole_trace_summary(cfg, p, validate_scenario(cfg, p), short)
    assert ("qc ODE residual" in want) == (rows >= 3)
    assert ("decay rate" in want) == (rows >= 20)
    for block_rows in (1, None):
        assert _fold_summary(cfg, p, short, block_rows) == want, block_rows


def test_run_log_holds_two_row_length_columns(tmp_path):
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    run = cli._Run(cfg, p, validate_scenario(cfg, p), tmp_path)
    tracemalloc.start()
    try:
        log = cli._TraceWriter(run)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 16 * cfg.rows <= held < 16 * cfg.rows + 4096
    with log:
        runner.simulate(cfg, p, log)
    values = list(vars(log.summary).values())
    values += [v for d in values if isinstance(d, dict) for v in d.values()]
    long = [(v.dtype, v.shape) for v in values if isinstance(v, np.ndarray) and v.size >= cfg.rows]
    assert long == [(np.dtype(float), (cfg.rows,))] * 2


def test_fold_statistics_equal_the_whole_trace_functions():
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    fold = RunSummary(cfg, p)
    assert runner.simulate(cfg, p, fold).trace is None
    tr = runner.simulate(cfg, p).trace
    assert fold.rows == tr.t.size == cfg.rows
    assert np.array_equal(fold.residual[: fold.rows - 1], qc_ode_residual(tr, cfg, p))
    assert np.array_equal(fold.h1_err[: fold.rows], tr.h1_err)
    assert fold.decay_rate() == fit_decay_rate(tr.t, tr.h1_err)
    assert fold.qdot_floor == np.min(np.diff(tr.qc) / np.diff(tr.t) + cfg.c * tr.qc[:-1])


@pytest.mark.parametrize("case", ["smoke", "diverging_observer"])
def test_run_summary_is_a_library_log(tmp_path, case):
    """A library run logged by a ``RunSummary`` keeps no trace; its
    statistics are the lines the CLI's summary.txt ends with, and that
    summary is the one formed from the whole trace."""
    config = bundled_config("zinc_smoke") if case == "smoke" else _diverging_observer(tmp_path)
    p, cfg = parse_config(config)
    summary = RunSummary(cfg, p)
    result = runner.simulate(cfg, p, log=summary)
    assert result.trace is None
    assert result.completed == (case == "smoke")
    text = summary.format(result.completed)
    assert main(["run", str(config), "--out-dir", str(tmp_path / "o")]) == (0 if case == "smoke" else 3)
    written = (tmp_path / "o" / "summary.txt").read_text()
    assert written.endswith("\n" + text + "\n")
    full = runner.simulate(cfg, p)
    assert written == whole_trace_summary(cfg, p, validate_scenario(cfg, p), full)


def test_run_summary_formats_alike_twice():
    """format reorders the residual column in place; a second call still
    reports the residual's maximum at the time the first did."""
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    summary = RunSummary(cfg, p)
    assert runner.simulate(cfg, p, log=summary).completed
    text = summary.format(True)
    assert "max|r| = " in text
    assert summary.format(True) == text


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name", ["trace.csv", "transforms.csv", "summary.txt"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, command, name):
    # a directory where the file goes; in a sweep the other member runs on
    smoke = _tweaked_config(tmp_path, name="smoke.cfg")
    other = _tweaked_config(tmp_path, {("scenario", "c"): 0.002}, name="other.cfg")
    out = tmp_path / "o"
    member = out / "smoke" if command == "sweep" else out
    (member / name).mkdir(parents=True)
    files = ["trace.csv", "transforms.csv", "summary.txt"]
    if command == "run":
        assert main(["run", str(smoke), "--out-dir", str(out)]) == 2
    else:
        assert main(["sweep", str(smoke), str(other), "--out-dir", str(out), "--jobs", "1"]) == 2
        own = tmp_path / "own"
        assert main(["run", str(other), "--out-dir", str(own)]) == 0
        for f in files:
            assert (out / "other" / f).read_bytes() == (own / f).read_bytes(), f
    assert capsys.readouterr().err == f"cannot write output: {member / name}: Is a directory\n"
    written = sorted(f.name for f in member.iterdir() if f.is_file())
    assert written == sorted(files[: files.index(name)])


def test_unwritable_summary_of_an_invalid_scenario_exits_2(tmp_path, capsys):
    invalid = _tweaked_config(tmp_path, {("scenario", "sr"): 0.05}, name="invalid.cfg")
    out = tmp_path / "o"
    (out / "summary.txt").mkdir(parents=True)
    assert main(["run", str(invalid), "--out-dir", str(out)]) == 2
    p, cfg = parse_config(invalid)
    report = validate_scenario(cfg, p).format()
    want = f"cannot write output: {out / 'summary.txt'}: Is a directory\n{report}\n"
    assert capsys.readouterr().err == want


def _summary_monitor_lines(summary: str) -> list[str]:
    lines = summary.splitlines()
    start = lines.index("constraint monitor") + 1
    return lines[start : lines.index("", start)]


def test_constraint_flags_and_verdicts_match_the_whole_trace_monitor(tmp_path):
    # the diverging gain violates four claims, each first after six blocks,
    # so the monitor of a later block carries the verdicts
    p, smoke = parse_config(bundled_config("zinc_smoke"))
    lam = 0.9 * lambda_upper_bound(smoke, p.alpha)
    diverging = _tweaked_config(tmp_path, {("scenario", "lambda"): repr(lam)}, name="diverging.cfg")
    state = _tweaked_config(tmp_path, {("scenario", "mode"): "state_feedback"}, name="state.cfg")
    blow_up = _tweaked_config(tmp_path, {("scenario", "c"): 1e9}, name="blow_up.cfg")
    assert main(["run", str(diverging), "--out-dir", str(tmp_path / "run" / "diverging")]) == 3
    configs = [str(c) for c in (diverging, state, blow_up)]
    assert main(["sweep", *configs, "--out-dir", str(tmp_path / "sweep")]) == 3
    for out in [tmp_path / "run" / "diverging"] + [tmp_path / "sweep" / Path(c).stem for c in configs]:
        p, cfg = parse_config(tmp_path / f"{out.name}.cfg")
        want = diagnostics.monitor_constraints(runner.simulate(cfg, p).trace)
        written = read_csv(out / "trace.csv")
        for name in FLAG_COLUMNS:
            assert np.array_equal(written[name], getattr(want, name)), (out, name)
        summary = (out / "summary.txt").read_text()
        assert _summary_monitor_lines(summary) == want.format().splitlines(), out
        if out.name == "diverging":
            first = [t for t in want.first_violation.values() if t is not None]
            assert len(first) == 4 and min(first) > 6 * runner._BLOCK_ROWS * cfg.dt, first


@pytest.mark.parametrize(
    "edits, code",
    [({}, 0), ({("scenario", "mode"): "state_feedback"}, 0), ({("scenario", "c"): 30.0}, 3)],
    ids=["smoke", "state_feedback", "fails_mid_block"],
)
def test_run_writes_the_library_trace_and_summary(tmp_path, edits, code):
    # c = 30 reaches the domain cap after 224 rows, half-way through a block
    config = _tweaked_config(tmp_path, edits)
    assert main(["run", str(config), "--out-dir", str(tmp_path / "cli")]) == code
    result = _library_run(config, tmp_path / "lib")
    assert result.completed == (code == 0)
    if code:
        assert result.trace.t.size == 224
    for name in ("trace.csv", "summary.txt"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name


def test_sweep_writes_the_library_traces_and_summaries(tmp_path):
    # two zero-gain members (whose injection source is zero) beside a gain
    # member that fails mid-block, in one lockstep batch
    edits = {
        "zero_gain": {("scenario", "lambda"): 0.0},
        "zero_gain_state": {("scenario", "lambda"): 0.0, ("scenario", "mode"): "state_feedback"},
        "fails": {("scenario", "c"): 30.0},
        "smoke": {},
    }
    configs = [_tweaked_config(tmp_path, edit, name=f"{name}.cfg") for name, edit in edits.items()]
    runs = [cli._prepare(c, tmp_path / "unused", None) for c in configs]
    assert lockstep_batches([r.cfg for r in runs]) == [[0, 1, 2, 3]]
    assert main(["sweep", *map(str, configs), "--out-dir", str(tmp_path / "sweep"), "--jobs", "1"]) == 3
    for config in configs:
        _library_run(config, tmp_path / "lib" / config.stem)
        for name in ("trace.csv", "summary.txt"):
            got = (tmp_path / "sweep" / config.stem / name).read_bytes()
            assert got == (tmp_path / "lib" / config.stem / name).read_bytes(), (config.stem, name)


def test_trace_writer_flags_a_stall_across_blocks(tmp_path):
    # the interface stalls at the first row of the second block and falls at
    # the first of the third: only the extent of the row before tells
    p, cfg = parse_config(bundled_config("zinc_smoke"))
    trace = runner.simulate(cfg, p).trace
    trace.s[64], trace.s[128] = trace.s[63], trace.s[127] - 1e-9
    run = cli._Run(cfg, p, validate_scenario(cfg, p), tmp_path / "blocks")
    run.out.mkdir()
    names = runner._array_fields(runner.Trace)
    with cli._TraceWriter(run) as log:
        for start in range(0, trace.t.size, runner._BLOCK_ROWS):
            block = {name: getattr(trace, name)[start:] for name in names}
            log.write(runner._trace_of(block, runner._BLOCK_ROWS, cfg))
        assert log.trace() is None
    report = diagnostics.monitor_constraints(trace)
    assert report.first_violation["s_increasing"] == trace.t[64]
    assert log.summary.constraints.format() == report.format()
    write_csv(tmp_path / "whole.csv", trace.columns(report))
    assert (run.out / "trace.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_run_stopped_from_outside_keeps_its_completed_blocks(tmp_path, monkeypatch):
    smoke = str(bundled_config("zinc_smoke"))
    assert main(["run", smoke, "--out-dir", str(tmp_path / "full")]) == 0
    real, calls = _scheme.Workspace.step, []

    def interrupted(ws):
        calls.append(None)
        if len(calls) == 200:
            raise KeyboardInterrupt
        return real(ws)

    monkeypatch.setattr(_scheme.Workspace, "step", interrupted)
    out = tmp_path / "stopped"
    with pytest.raises(KeyboardInterrupt):
        main(["run", smoke, "--out-dir", str(out)])
    # rows 0 to 199 were logged; the three blocks of 64 completed reached the file
    full = (tmp_path / "full" / "trace.csv").read_bytes().splitlines(keepends=True)
    assert (out / "trace.csv").read_bytes() == b"".join(full[: 1 + 3 * runner._BLOCK_ROWS])
    assert sorted(f.name for f in out.iterdir()) == ["trace.csv"]


def test_run_holds_less_than_its_whole_trace(tmp_path):
    # 20,001 rows of the 14 logged columns are 2.24 MB; the run keeps five
    config = _tweaked_config(tmp_path, {("numerics", "t_end"): 2000})
    rows = parse_config(config)[1].rows
    assert rows == 20_001
    run_scenario(config, out_dir=tmp_path / "warm")  # caches and lazy imports
    tracemalloc.start()
    try:
        assert run_scenario(config, out_dir=tmp_path / "o") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * 14 * 8


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
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
        ({("numerics", "t_end"): "1e300"}, [], "t_end/dt is too large"),
        ({("numerics", "t_end"): "1.07"}, [], "t_end must be a whole number of steps dt"),
    ],
    ids=["checkpoint_every_0", "t_end_inf", "rho_inf", "tm_inf", "t_end_huge", "t_end_off_grid"],
)
def test_invalid_override_exits_2(tmp_path, capsys, command, edits, flag, message):
    cfg = _tweaked_config(tmp_path, edits)
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "o"), *flag]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unallocatable_trace_exits_2(tmp_path, capsys, monkeypatch, command):
    # an addressable horizon whose trace the host cannot hold: np.empty is
    # made to refuse it, so nothing that large is ever really allocated
    huge = _tweaked_config(tmp_path, {("numerics", "t_end"): "1e12"}, name="huge.cfg")
    rows = parse_config(huge)[1].rows
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if np.prod(shape) >= rows:
            raise MemoryError("refused")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    out = tmp_path / "o"
    if command == "run":
        assert main(["run", str(huge), "--out-dir", str(out)]) == 2
    else:
        smoke = _tweaked_config(tmp_path, name="smoke.cfg")
        assert main(["sweep", str(huge), str(smoke), "--out-dir", str(out), "--jobs", "1"]) == 2
        own = tmp_path / "own"
        assert main(["run", str(smoke), "--out-dir", str(own)]) == 0
        for f in ("trace.csv", "transforms.csv", "summary.txt"):
            assert (out / "smoke" / f).read_bytes() == (own / f).read_bytes(), f
    message = (
        f"invalid config: t_end/dt is too large: the trace's 2 columns of {rows} rows need "
        f"{8 * 2 * rows} bytes, which cannot be allocated\n"
    )
    assert capsys.readouterr().err == message
    assert not (out / "huge" / "trace.csv").exists() and not (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("grid_n", [10**12, 100_000], ids=["ring", "geometry"])
def test_unallocatable_grid_exits_2(tmp_path, capsys, monkeypatch, command, grid_n):
    # 10^12 intervals: the field ring alone needs 931 TiB, which every host
    # refuses.  10^5: the ring (102 MB, nearly all of it untouched) is made,
    # and the Bessel grid, 74.5 GiB of index, is made to refuse, so nothing
    # that large is ever really allocated
    huge = _tweaked_config(tmp_path, {("numerics", "grid_n"): grid_n}, name="huge.cfg")
    p, cfg = parse_config(huge)
    assert validate_scenario(cfg, p).passed and cfg.lam > 0.0
    bessel_grid = transforms._bessel_grid

    def refusing(n):
        if n >= 100_000:
            raise MemoryError("refused")
        return bessel_grid(n)

    monkeypatch.setattr(transforms, "_bessel_grid", refusing)
    out = tmp_path / "o"
    if command == "run":
        assert main(["run", str(huge), "--out-dir", str(out)]) == 2
    else:
        smoke = _tweaked_config(tmp_path, name="smoke.cfg")
        assert main(["sweep", str(huge), str(smoke), "--out-dir", str(out), "--jobs", "1"]) == 2
        own = tmp_path / "own"
        assert main(["run", str(smoke), "--out-dir", str(own)]) == 0
        for f in ("trace.csv", "transforms.csv", "summary.txt"):
            assert (out / "smoke" / f).read_bytes() == (own / f).read_bytes(), f
    message = (
        f"invalid config: grid_n is too large: a batch's buffers on {grid_n} grid intervals "
        "cannot be allocated\n"
    )
    assert capsys.readouterr().err == message
    assert not (out / "huge" / "trace.csv").exists() and not (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_gain_runs_without_the_bessel_grid(tmp_path, monkeypatch, command):
    # a batch whose members all have lambda = 0 runs no Bessel transform, so
    # it runs, with the bytes of a run that could make the Bessel grid, when
    # that grid cannot be allocated
    zero = _tweaked_config(tmp_path, {("scenario", "lambda"): 0.0}, name="zero.cfg")
    own = tmp_path / "own"
    assert main(["run", str(zero), "--out-dir", str(own)]) == 0

    def refusing(n):
        raise MemoryError("refused")

    monkeypatch.setattr(transforms, "_bessel_grid", refusing)
    out = tmp_path / "o"
    if command == "run":
        assert main(["run", str(zero), "--out-dir", str(out)]) == 0
        dirs = [out]
    else:
        twin = _tweaked_config(tmp_path, {("scenario", "lambda"): 0.0}, name="twin.cfg")
        assert main(["sweep", str(zero), str(twin), "--out-dir", str(out), "--jobs", "1"]) == 0
        dirs = [out / "zero", out / "twin"]
    for d in dirs:
        for f in ("trace.csv", "transforms.csv", "summary.txt"):
            assert (d / f).read_bytes() == (own / f).read_bytes(), (d, f)


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
