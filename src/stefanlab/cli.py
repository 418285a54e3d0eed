"""Scenario runner: config parsing, CSV traces, summaries, and the CLI.

Config files are flat ``key = value`` text with four sections::

    [physical]  rho, cp, k, dh, tm
    [scenario]  s0, H, Hhat, c, lambda, sr, mode
    [numerics]  grid_n, dt, t_end            (+ optional domain_cap)
    [output]    optional checkpoint_every

All keys are mandatory except domain_cap and checkpoint_every.
Floats in the CSV artifacts are printed with 17 significant digits so that
identical configs yield byte-identical files.

Exit codes: 0 success, 2 invalid config, 3 numerical blow-up (partial trace
still written).  ``sweep`` returns the largest exit code of its members.
"""

import argparse
import configparser
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import diagnostics
from .control import qc_ode_residual
from .errors import ConfigurationError
from .params import (
    PhysicalParams,
    ScenarioConfig,
    ValidationReport,
    validate_scenario,
)
from .runner import lockstep_batches, simulate, simulate_batch

_REQUIRED = {
    "physical": ("rho", "cp", "k", "dh", "tm"),
    "scenario": ("s0", "H", "Hhat", "c", "lambda", "sr", "mode"),
    "numerics": ("grid_n", "dt", "t_end"),
}
_OPTIONAL = {
    "numerics": ("domain_cap",),
    "output": ("checkpoint_every",),
}


def bundled_config(name: str) -> Path:
    """Path of a config shipped with the package (e.g. 'zinc')."""
    ref = resources.files("stefanlab") / "configs" / f"{name}.cfg"
    with resources.as_file(ref) as path:
        return Path(path)


def parse_config(path) -> tuple[PhysicalParams, ScenarioConfig]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"config file not readable: {path}")

    for section, keys in _REQUIRED.items():
        if not parser.has_section(section):
            raise ConfigurationError(f"missing section [{section}]")
        for key in keys:
            if key not in parser[section]:
                raise ConfigurationError(f"missing key '{key}' in [{section}]")
    for section in parser.sections():
        known = _REQUIRED.get(section, ()) + _OPTIONAL.get(section, ())
        if not known:
            raise ConfigurationError(f"unknown section [{section}]")
        for key in parser[section]:
            if key.lower() not in [k.lower() for k in known]:
                raise ConfigurationError(f"unknown key '{key}' in [{section}]")

    phys = parser["physical"]
    scen = parser["scenario"]
    num = parser["numerics"]
    out = parser["output"] if parser.has_section("output") else {}

    try:
        p = PhysicalParams(
            rho=phys.getfloat("rho"),
            cp=phys.getfloat("cp"),
            k=phys.getfloat("k"),
            dh=phys.getfloat("dh"),
            tm=phys.getfloat("tm"),
        )
        cfg = ScenarioConfig(
            s0=scen.getfloat("s0"),
            H=scen.getfloat("H"),
            Hhat=scen.getfloat("Hhat"),
            c=scen.getfloat("c"),
            lam=scen.getfloat("lambda"),
            sr=scen.getfloat("sr"),
            mode=scen.get("mode"),
            grid_n=num.getint("grid_n"),
            dt=num.getfloat("dt"),
            t_end=num.getfloat("t_end"),
            domain_cap=num.getfloat("domain_cap") if "domain_cap" in num else None,
            checkpoint_every=int(out.get("checkpoint_every", 50)),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"malformed value in config: {exc}") from exc
    return p, cfg


# Rows formatted per write: enough to amortise the per-chunk calls, few
# enough that the chunk's text stays small next to the trace itself.
_CSV_CHUNK_ROWS = 256


def write_csv(path: Path, columns: dict) -> None:
    """Header line, then one row per index: integers and booleans as %d,
    floats with 17 significant digits (%.17g)."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n_rows = arrays[0].shape[0] if arrays else 0
    row_fmt = ",".join("%d" if a.dtype.kind in "bi" else "%.17g" for a in arrays) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            chunk = [a[start : start + _CSV_CHUNK_ROWS].tolist() for a in arrays]
            values = tuple(itertools.chain.from_iterable(zip(*chunk)))
            fh.write((row_fmt * len(chunk[0])) % values)


def read_csv(path) -> dict:
    """Column name -> float array of a trace file.  Raises
    ConfigurationError if the file cannot be read, is empty, or holds a
    non-numeric cell or a row of the wrong length."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header:
                raise ConfigurationError(f"empty trace file: {path}")
            names = header.split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigurationError(f"trace file not readable: {path}: {exc.strerror}") from exc
    except ValueError as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"malformed trace file: {path}: {exc}") from exc
    if data.size == 0:
        data = data.reshape(0, len(names))
    if data.shape[1] != len(names):
        raise ConfigurationError(f"malformed trace file: {path}")
    return {name: data[:, j] for j, name in enumerate(names)}


def compare_traces(path_a, path_b) -> dict:
    """Column-wise max absolute difference between two trace files.

    Raises ConfigurationError on schema mismatch.  Equal cells (infinite ones
    too) and NaNs in both files (checkpoint gaps) are 0; NaN in one only is inf.
    """
    a, b = read_csv(path_a), read_csv(path_b)
    if list(a) != list(b):
        raise ConfigurationError("trace schema mismatch")
    out = {}
    for name in a:
        va, vb = a[name], b[name]
        if va.shape != vb.shape:
            raise ConfigurationError(f"column '{name}' length mismatch")
        nan_a, nan_b = np.isnan(va), np.isnan(vb)
        # subtract only unequal cells: inf - inf would be NaN
        same = (va == vb) | (nan_a & nan_b)
        diff = np.abs(np.subtract(va, vb, out=np.zeros_like(va), where=~same))
        diff[nan_a != nan_b] = np.inf
        out[name] = float(np.max(diff)) if diff.size else 0.0
    return out


def _summary_text(cfg, p, report, result, monitor="") -> str:
    """summary.txt: the validation report, then, given a result, its run and
    `monitor`, the trace's ``monitor_constraints`` report as text."""
    alpha, beta = p.alpha, p.beta
    lines = ["scenario summary", "================"]
    lines.append(f"mode = {cfg.mode}")
    lines.append(f"alpha = {alpha:.10g}  beta = {beta:.10g}")
    lines.append("")
    lines.append("restriction checks")
    lines.append(report.format())
    if result is None:
        return "\n".join(lines) + "\n"

    tr = result.trace
    lines.append("")
    lines.append("run")
    lines.append(f"completed = {result.completed}")
    if result.failure:
        lines.append(f"failure = {result.failure}")
    lines.append(f"steps logged = {tr.t.size}")
    lines.append(f"final t = {tr.t[-1]:.10g}  final s = {tr.s[-1]:.10g}  sr = {cfg.sr}")
    lines.append("")
    lines.append("constraint monitor")
    lines.append(monitor)
    lines.append("")
    p_const, a, b, d = diagnostics.lyapunov_constants(cfg, p)
    lines.append(f"lyapunov constants: p = {p_const:.6g}  a = {a:.6g}  b = {b:.6g}  d = {d:.6g}")
    if tr.t.size >= 20 and np.all(tr.h1_err > 0.0):
        rate = diagnostics.fit_decay_rate(tr.t, tr.h1_err)
        lines.append(f"fitted H1 estimation-error decay rate = {rate:.6g}")
    if result.completed and tr.t.size >= 3:
        # in place: each full-trace temporary is 0.7 MB on zinc
        r = qc_ode_residual(tr, cfg, p)
        np.abs(r, out=r)
        worst = int(np.argmax(r))
        max_r = r[worst]
        lines.append(
            f"qc ODE residual: max|r| = {max_r:.6g} at t = {tr.t[worst]:.6g}"
            f"  median|r| = {np.median(r, overwrite_input=True):.6g}"
        )
        del r
        qdot_floor = np.diff(tr.qc)
        qdot_floor /= np.diff(tr.t)
        qdot_floor += cfg.c * tr.qc[:-1]
        lines.append(f"min of qc' + c*qc over steps = {np.min(qdot_floor):.6g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Run:
    """A parsed, overridden and validated scenario, and where it writes."""

    cfg: ScenarioConfig
    p: PhysicalParams
    report: ValidationReport
    out: Path


def _prepare(config_path: Path, out: Path, checkpoint_every) -> _Run | int:
    """Parse the config, apply the override and validate; the exit code 2
    if the scenario cannot run (with summary.txt written when it parsed)."""
    try:
        p, cfg = parse_config(config_path)
        if checkpoint_every is not None:
            cfg = replace(cfg, checkpoint_every=checkpoint_every)
    except ConfigurationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    out.mkdir(parents=True, exist_ok=True)
    report = validate_scenario(cfg, p)
    if not report.passed:
        (out / "summary.txt").write_text(_summary_text(cfg, p, report, None))
        print(report.format(), file=sys.stderr)
        return 2
    return _Run(cfg, p, report, out)


def _write_outputs(run: _Run, result) -> int:
    """Write trace.csv, transforms.csv and summary.txt; the exit code."""
    constraints = diagnostics.monitor_constraints(result.trace)
    write_csv(run.out / "trace.csv", result.trace.columns(constraints))
    monitor = constraints.format()
    # the flag arrays (0.45 MB on zinc) would otherwise stay alive through
    # the summary's full-trace temporaries, which set the run's peak
    del constraints
    write_csv(run.out / "transforms.csv", result.checkpoints)
    summary = _summary_text(run.cfg, run.p, run.report, result, monitor)
    (run.out / "summary.txt").write_text(summary)
    if not result.completed:
        print(f"run aborted: {result.failure}", file=sys.stderr)
        return 3
    return 0


def run_scenario(config_path, out_dir=None, checkpoint_every: int | None = None) -> int:
    """Validate, run, and write trace.csv / transforms.csv / summary.txt."""
    config_path = Path(config_path)
    out = Path(out_dir) if out_dir is not None else Path.cwd() / f"{config_path.stem}_out"
    run = _prepare(config_path, out, checkpoint_every)
    if isinstance(run, int):
        return run
    return _write_outputs(run, simulate(run.cfg, run.p))


def _validate_cmd(config_path) -> int:
    try:
        p, cfg = parse_config(config_path)
    except ConfigurationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    report = validate_scenario(cfg, p)
    print(report.format())
    return 0 if report.passed else 2


def _compare_cmd(a, b) -> int:
    try:
        diffs = compare_traces(a, b)
    except ConfigurationError as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return 2
    for name, d in diffs.items():
        print(f"{name}: {d:.17g}")
    return 0


def _sweep_batch(runs: list[_Run]) -> int:
    """Run one lockstep batch, writing each member's outputs as it leaves."""
    results = simulate_batch([(run.cfg, run.p) for run in runs])
    return max(_write_outputs(runs[j], result) for j, result in results)


def _sweep(configs, out_root, checkpoint_every, jobs) -> int:
    """Run every config into out_root/<config stem>; the largest exit code.

    Every config is parsed and validated first.  The valid ones run in
    lockstep batches of members that share (grid_n, dt), and --jobs spreads
    whole batches over processes.
    """
    paths = [Path(c) for c in configs]
    stems = {}
    for path in paths:
        if path.stem in stems:
            print(
                f"invalid sweep: {stems[path.stem]} and {path} both write to "
                f"{Path(out_root) / path.stem}",
                file=sys.stderr,
            )
            return 2
        stems[path.stem] = path

    codes, runs = [], []
    for path in paths:
        run = _prepare(path, Path(out_root) / path.stem, checkpoint_every)
        if isinstance(run, int):
            codes.append(run)
        else:
            runs.append(run)
    batches = [[runs[j] for j in batch] for batch in lockstep_batches([r.cfg for r in runs])]
    # the pool forks all its workers at the first submit, so it gets no
    # more than there are batches
    workers = min(jobs, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes += pool.map(_sweep_batch, batches)
    else:
        codes += [_sweep_batch(batch) for batch in batches]
    return max(codes, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stefanlab",
        description="Closed-loop simulation of boundary-controlled melting with "
        "interface-measurement-only output feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="validate and run one scenario")
    run_p.add_argument("config")
    run_p.add_argument("--out-dir", default=None)
    run_p.add_argument("--checkpoint-every", type=int, default=None)

    val_p = sub.add_parser("validate", help="check the design restrictions")
    val_p.add_argument("config")

    cmp_p = sub.add_parser("compare", help="column-wise max abs diff of two traces")
    cmp_p.add_argument("trace_a")
    cmp_p.add_argument("trace_b")

    sweep_p = sub.add_parser("sweep", help="run several scenarios")
    sweep_p.add_argument("configs", nargs="+")
    sweep_p.add_argument("--out-dir", default="sweep_out")
    sweep_p.add_argument("--checkpoint-every", type=int, default=None)
    sweep_p.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)

    if args.command == "run":
        return run_scenario(args.config, out_dir=args.out_dir, checkpoint_every=args.checkpoint_every)
    if args.command == "validate":
        return _validate_cmd(args.config)
    if args.command == "compare":
        return _compare_cmd(args.trace_a, args.trace_b)
    if args.command == "sweep":
        return _sweep(args.configs, args.out_dir, args.checkpoint_every, args.jobs)
    return 2


if __name__ == "__main__":
    sys.exit(main())
