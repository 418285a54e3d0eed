"""Scenario runner: config parsing, CSV traces, and the CLI.

Config files are flat ``key = value`` text with the four sections of ``_KEYS``::

    [physical]  rho, cp, k, dh, tm
    [scenario]  s0, H, Hhat, c, lambda, sr, mode
    [numerics]  grid_n, dt, t_end            (+ optional domain_cap)
    [output]    optional checkpoint_every

All keys are mandatory except domain_cap and checkpoint_every; any case matches.
Floats in the CSV artifacts are printed with 17 significant digits so that
identical configs yield byte-identical files.  trace.csv is written block by
block as the run goes, so a run stopped from outside keeps its completed
blocks of rows.  summary.txt is the validation report and the run, then the
statistics of ``diagnostics.RunSummary``.

Exit codes: 0 success, 2 invalid config or an output directory or file that
cannot be made or written, 3 numerical blow-up (partial trace still
written).  ``sweep`` returns the largest exit code of its members.
"""

import argparse
import configparser
import contextlib
import itertools
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import diagnostics
from .errors import ConfigurationError
from .params import (
    PhysicalParams,
    ScenarioConfig,
    ValidationReport,
    validate_scenario,
)
from .runner import Trace, lockstep_batches, simulate_batch

# The config schema in file order, section -> key -> (converter, required):
# each key sets the PhysicalParams or ScenarioConfig field of its name (lambda
# sets lam), and an optional key left out leaves its field's default.
_KEYS = {
    "physical": {key: (float, True) for key in ("rho", "cp", "k", "dh", "tm")},
    "scenario": {
        **{key: (float, True) for key in ("s0", "H", "Hhat", "c", "lambda", "sr")},
        "mode": (str, True),
    },
    "numerics": {
        "grid_n": (int, True),
        "dt": (float, True),
        "t_end": (float, True),
        "domain_cap": (float, False),
    },
    "output": {"checkpoint_every": (int, False)},
}


def bundled_config(name: str) -> Path:
    """Path of a config shipped with the package (e.g. 'zinc')."""
    ref = resources.files("stefanlab") / "configs" / f"{name}.cfg"
    with resources.as_file(ref) as path:
        return Path(path)


def parse_config(path) -> tuple[PhysicalParams, ScenarioConfig]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(str(path), encoding="utf-8")
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigurationError(f"malformed config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file not UTF-8: {path}: {exc}") from None
    if not read:
        raise ConfigurationError(f"config file not readable: {path}")

    for section, keys in _KEYS.items():
        for key in (key for key, (_, required) in keys.items() if required):
            if not parser.has_section(section):
                raise ConfigurationError(f"missing section [{section}]")
            if key not in parser[section]:
                raise ConfigurationError(f"missing key '{key}' in [{section}]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigurationError(f"unknown section [{section}]")
        known = [key.lower() for key in _KEYS[section]]
        for key in parser[section]:
            if key.lower() not in known:
                raise ConfigurationError(f"unknown key '{key}' in [{section}]")

    try:
        values = {}
        for section, keys in _KEYS.items():
            held = parser[section] if parser.has_section(section) else {}
            for key, (convert, _) in keys.items():
                if key in held:
                    values["lam" if key == "lambda" else key] = convert(held[key])
            if section == "physical":  # its errors come before the other values'
                p, values = PhysicalParams(**values), {}
        cfg = ScenarioConfig(**values)
    except (ValueError, configparser.Error) as exc:  # an interpolation error among them
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"malformed value in config: {exc}") from exc
    return p, cfg


# Rows formatted per write: enough to amortise the per-chunk calls, few
# enough that the chunk's text stays small next to the trace itself.
_CSV_CHUNK_ROWS = 256


def _write_rows(fh, arrays) -> None:
    """Append one row per index of the equal-length arrays: integers and
    booleans as %d, floats with 17 significant digits (%.17g)."""
    n_rows = arrays[0].shape[0] if arrays else 0
    row_fmt = ",".join("%d" if a.dtype.kind in "bi" else "%.17g" for a in arrays) + "\n"
    for start in range(0, n_rows, _CSV_CHUNK_ROWS):
        chunk = [a[start : start + _CSV_CHUNK_ROWS].tolist() for a in arrays]
        values = tuple(itertools.chain.from_iterable(zip(*chunk)))
        fh.write((row_fmt * len(chunk[0])) % values)


def write_csv(path: Path, columns: dict) -> None:
    """Header line, then one row per index: integers and booleans as %d,
    floats with 17 significant digits (%.17g)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        _write_rows(fh, [np.asarray(a) for a in columns.values()])


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
            first = next((line for line in fh if not line.isspace()), "")
            # np.loadtxt warns on no data: a header alone gives empty columns.
            # A trace has no comments, so a "#" line is a malformed row
            rows = itertools.chain((first,), fh)
            data = (
                np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
                if first
                else np.empty((0, 0))
            )
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


def _summary_text(cfg, p, report, result, summary) -> str:
    """summary.txt: the validation report, then, given a result and the
    ``RunSummary`` of its rows, its run and ``summary.format``."""
    lines = ["scenario summary", "================", f"mode = {cfg.mode}"]
    lines.append(f"alpha = {p.alpha:.10g}  beta = {p.beta:.10g}")
    lines += ["", "restriction checks", report.format()]
    if result is None:
        return "\n".join(lines) + "\n"

    lines += ["", "run", f"completed = {result.completed}"]
    if result.failure:
        lines.append(f"failure = {result.failure}")
    t_last, _, s_last, _ = summary.last
    lines.append(f"steps logged = {summary.rows}")
    lines.append(f"final t = {t_last:.10g}  final s = {s_last:.10g}  sr = {cfg.sr}")
    lines += ["", summary.format(result.completed)]
    return "\n".join(lines) + "\n"


def _invalid_config(exc: ConfigurationError) -> int:
    print(f"invalid config: {exc}", file=sys.stderr)
    return 2


def _cannot_write(path: Path, exc: OSError) -> int:
    print(f"cannot write output: {path}: {exc.strerror}", file=sys.stderr)
    return 2


@dataclass(frozen=True)
class _Run:
    """A parsed, overridden and validated scenario, and where it writes."""

    cfg: ScenarioConfig
    p: PhysicalParams
    report: ValidationReport
    out: Path


def _prepare(config_path: Path, out: Path, checkpoint_every) -> _Run | int:
    """Parse the config, apply the override, make the output directory and
    validate; the exit code 2 if the scenario cannot run (with summary.txt
    written when it parsed and its directory and file could be made)."""
    try:
        p, cfg = parse_config(config_path)
        if checkpoint_every is not None:
            cfg = replace(cfg, checkpoint_every=checkpoint_every)
    except ConfigurationError as exc:
        return _invalid_config(exc)

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"invalid output directory: {out}: {exc.strerror}", file=sys.stderr)
        return 2
    report = validate_scenario(cfg, p)
    if not report.passed:
        path = out / "summary.txt"
        try:
            path.write_text(_summary_text(cfg, p, report, None, None))
        except OSError as exc:
            _cannot_write(path, exc)
        print(report.format(), file=sys.stderr)
        return 2
    return _Run(cfg, p, report, out)


class _TraceWriter:
    """The log ``run`` and ``sweep`` give a member of ``simulate_batch``: a
    ``RunSummary`` of its rows (`summary`) and the trace.csv it appends each
    block of rows to.

    A block is written as ``write_csv`` would write the whole trace's
    ``Trace.columns``, its flags from the summary's monitor report; the file
    is opened at the first block and closed by ``trace()`` or on leaving a
    ``with``.  An OSError from opening, writing or closing the file is kept
    in `error`, and the file is written no further; the summary goes on, so
    that a failed member of a batch does not stop the others."""

    def __init__(self, run: _Run):
        self.summary = diagnostics.RunSummary(run.cfg, run.p)
        self.path = run.out / "trace.csv"
        self.fh = None
        self.error = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        fh, self.fh = self.fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError as exc:  # the buffered rows could not be written
                self.error = self.error or exc

    def write(self, block: Trace) -> None:
        self.summary.write(block)
        if self.error is not None:
            return
        columns = block.columns(self.summary.constraints)
        try:
            if self.fh is None:
                self.fh = open(self.path, "w", newline="\n")
                self.fh.write(",".join(columns) + "\n")
            _write_rows(self.fh, list(columns.values()))
        except OSError as exc:
            self.error = exc
            self.close()

    def trace(self) -> None:
        self.close()


def _write_outputs(run: _Run, log: _TraceWriter, result) -> int:
    """Write transforms.csv and summary.txt of a result logged by `log`;
    the exit code: 2 if an output file cannot be written, else 3 if the
    run failed."""
    if log.error is not None:
        return _cannot_write(log.path, log.error)
    summary = _summary_text(run.cfg, run.p, run.report, result, log.summary)
    path = run.out / "transforms.csv"
    try:
        write_csv(path, result.checkpoints)
        path = run.out / "summary.txt"
        path.write_text(summary)
    except OSError as exc:
        return _cannot_write(path, exc)
    if not result.completed:
        print(f"run aborted: {result.failure}", file=sys.stderr)
        return 3
    return 0


def run_scenario(config_path, out_dir=None, checkpoint_every: int | None = None) -> int:
    """Validate, run as the lockstep batch of one, and write trace.csv /
    transforms.csv / summary.txt; the exit code."""
    config_path = Path(config_path)
    out = Path(out_dir) if out_dir is not None else Path.cwd() / f"{config_path.stem}_out"
    run = _prepare(config_path, out, checkpoint_every)
    return run if isinstance(run, int) else _sweep_batch([run])


def _validate_cmd(config_path) -> int:
    try:
        p, cfg = parse_config(config_path)
    except ConfigurationError as exc:
        return _invalid_config(exc)
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
    try:
        with contextlib.ExitStack() as stack:
            logs = [stack.enter_context(_TraceWriter(run)) for run in runs]
            results = simulate_batch([(run.cfg, run.p) for run in runs], logs)
            return max(_write_outputs(runs[j], logs[j], result) for j, result in results)
    except ConfigurationError as exc:
        # a trace or a grid whose buffers cannot be allocated, raised before
        # the first step; a member that large runs alone in its batch
        return _invalid_config(exc)


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
        # imported here: concurrent.futures and multiprocessing add 15-25 ms
        # to every start that never uses a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes += pool.map(_sweep_batch, batches)
    else:
        codes += [_sweep_batch(batch) for batch in batches]
    return max(codes, default=0)


def _positive_int(text: str) -> int:
    """argparse type of --jobs: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    sweep_p.add_argument("--jobs", type=_positive_int, default=1)

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
