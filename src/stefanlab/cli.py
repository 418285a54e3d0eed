"""Scenario runner: config parsing, CSV traces, summaries, and the CLI.

Config files are flat ``key = value`` text with four sections::

    [physical]  rho, cp, k, dh, tm
    [scenario]  s0, H, Hhat, c, lambda, sr, mode
    [numerics]  grid_n, dt, t_end            (+ optional domain_cap)
    [output]    optional checkpoint_every

All keys are mandatory except domain_cap and checkpoint_every.
Floats in the CSV artifacts are printed with 17 significant digits so that
identical configs yield byte-identical files.  trace.csv is written block by
block as the run goes, so a run stopped from outside keeps its completed
blocks of rows.

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

from . import control, diagnostics
from .errors import ConfigurationError
from .params import (
    PhysicalParams,
    ScenarioConfig,
    ValidationReport,
    validate_scenario,
)
from .runner import Trace, _unallocatable, lockstep_batches, simulate, simulate_batch

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
    try:
        read = parser.read(str(path), encoding="utf-8")
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigurationError(f"malformed config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file not UTF-8: {path}: {exc}") from None
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


def _median_in_place(a: np.ndarray):
    """np.median of a non-empty float array, partitioning `a` in place;
    NaN anywhere gives NaN.  np.median itself imports numpy.ma on first use
    for its NaN check, about 25 ms of every run."""
    half = a.size // 2
    # NaN sorts last, so the partition at -1 moves one there if there is any
    a.partition((half - 1, half, -1) if a.size % 2 == 0 else (half, -1))
    if np.isnan(a[-1]):
        return a[-1]
    return a[half] if a.size % 2 else (a[half - 1] + a[half]) / 2


def _summary_text(cfg, p, report, result) -> str:
    """summary.txt: the validation report, then, given a result whose trace
    is a ``_SummaryFold``, its run, monitor report and statistics.  The
    residual column is reordered in place: the summary is its last reader."""
    alpha, beta = p.alpha, p.beta
    lines = ["scenario summary", "================"]
    lines.append(f"mode = {cfg.mode}")
    lines.append(f"alpha = {alpha:.10g}  beta = {beta:.10g}")
    lines.append("")
    lines.append("restriction checks")
    lines.append(report.format())
    if result is None:
        return "\n".join(lines) + "\n"

    fold = result.trace
    rows = fold.rows
    t_last, _, s_last, _ = fold.last
    lines.append("")
    lines.append("run")
    lines.append(f"completed = {result.completed}")
    if result.failure:
        lines.append(f"failure = {result.failure}")
    lines.append(f"steps logged = {rows}")
    lines.append(f"final t = {t_last:.10g}  final s = {s_last:.10g}  sr = {cfg.sr}")
    lines.append("")
    lines.append("constraint monitor")
    lines.append(fold.constraints.format())
    lines.append("")
    p_const, a, b, d = diagnostics.lyapunov_constants(cfg, p)
    lines.append(f"lyapunov constants: p = {p_const:.6g}  a = {a:.6g}  b = {b:.6g}  d = {d:.6g}")
    rate = fold.decay_rate()
    if rate is not None:
        lines.append(f"fitted H1 estimation-error decay rate = {rate:.6g}")
    if result.completed and rows >= 3:
        r = fold.residual[: rows - 1]
        np.abs(r, out=r)
        worst = int(np.argmax(r))
        lines.append(
            f"qc ODE residual: max|r| = {r[worst]:.6g} at t = {worst * cfg.dt:.6g}"
            f"  median|r| = {_median_in_place(r):.6g}"
        )
        lines.append(f"min of qc' + c*qc over steps = {fold.qdot_floor:.6g}")
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
            path.write_text(_summary_text(cfg, p, report, None))
        except OSError as exc:
            _cannot_write(path, exc)
        print(report.format(), file=sys.stderr)
        return 2
    return _Run(cfg, p, report, out)


class _SummaryFold:
    """The statistics summary.txt reports of a run, folded in as its rows
    are given, block by block in order (``write(block)``, a ``Trace`` of any
    number of rows), so that no block is kept: the row count; the last
    row's t, qc, s and utilde_x_s (`last`); the ``monitor_constraints``
    report of the rows so far (`constraints`); the h1_err column; the
    ``qc_ode_residual`` column, each block's rows with the last row before
    it (``control.residual_rows``); and the minimum of qc' + c*qc
    (`qdot_floor`).  It holds two full-length columns.  ``trace()`` is the
    fold itself, which ``_summary_text`` reads.  Raises ConfigurationError
    if the columns cannot be allocated."""

    def __init__(self, cfg: ScenarioConfig, p: PhysicalParams):
        self.cfg, self.p = cfg, p
        try:
            self.h1_err = np.empty(cfg.rows)
            self.residual = np.empty(cfg.rows)
        except MemoryError:
            raise _unallocatable("trace", 2, cfg.rows) from None
        self.rows = 0
        self.last = None
        self.constraints = None
        self.qdot_floor = np.inf

    def write(self, block: Trace) -> None:
        s_prev = None if self.last is None else self.last[2]
        self.constraints = diagnostics.monitor_constraints(block, s_prev, self.constraints)
        start, self.rows = self.rows, self.rows + block.t.size
        self.h1_err[start : self.rows] = block.h1_err
        cols = (block.t, block.qc, block.s, block.utilde_x_s)
        if self.last is not None:
            cols = [np.concatenate(((last,), col)) for last, col in zip(self.last, cols)]
        self.last = [col[-1] for col in cols]
        if cols[0].size < 2:
            return
        # whether the run completes is not known yet, and only a completed
        # run's residual is read: a diverging one overflows in its last blocks
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.residual[max(start - 1, 0) : self.rows - 1]
            floor = control.residual_rows(*cols, self.cfg, self.p, out)
        self.qdot_floor = np.minimum(self.qdot_floor, floor)

    def decay_rate(self) -> float | None:
        """``fit_decay_rate`` of h1_err on its last half, at the times
        ``simulate_batch`` logs, i * dt; None for fewer than 20 rows or a
        norm that is not finite and positive (a diverged run logs inf)."""
        h1_err = self.h1_err[: self.rows]
        # min and max see NaN and inf without a whole-trace temporary
        if self.rows < 20 or not (h1_err.min() > 0.0 and h1_err.max() < np.inf):
            return None
        half = self.rows // 2
        tc = np.arange(half, self.rows, dtype=float)
        tc *= self.cfg.dt
        tc -= tc.mean()
        return diagnostics.centred_decay_rate(tc, h1_err[half:])

    def trace(self):
        return self


class _TraceWriter(_SummaryFold):
    """The log ``run`` and ``sweep`` give a member of ``simulate_batch``: the
    summary's fold, which also appends each block of rows to trace.csv.

    A block is written as ``write_csv`` would write the whole trace's
    ``Trace.columns``, its flags from the fold's monitor report; the file
    is opened at the first block and closed by ``trace()`` or on leaving a
    ``with``.  An OSError from opening, writing or closing the file is kept
    in `error`, and the file is written no further; the fold goes on, so
    that a failed member of a batch does not stop the others."""

    def __init__(self, run: _Run):
        super().__init__(run.cfg, run.p)
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
        super().write(block)
        if self.error is not None:
            return
        columns = block.columns(self.constraints)
        try:
            if self.fh is None:
                self.fh = open(self.path, "w", newline="\n")
                self.fh.write(",".join(columns) + "\n")
            _write_rows(self.fh, list(columns.values()))
        except OSError as exc:
            self.error = exc
            self.close()

    def trace(self):
        self.close()
        return self


def _write_outputs(run: _Run, result) -> int:
    """Write transforms.csv and summary.txt of a result whose trace is a
    ``_TraceWriter``; the exit code: 2 if an output file cannot be written,
    else 3 if the run failed."""
    if result.trace.error is not None:
        return _cannot_write(result.trace.path, result.trace.error)
    summary = _summary_text(run.cfg, run.p, run.report, result)
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
    """Validate, run, and write trace.csv / transforms.csv / summary.txt."""
    config_path = Path(config_path)
    out = Path(out_dir) if out_dir is not None else Path.cwd() / f"{config_path.stem}_out"
    run = _prepare(config_path, out, checkpoint_every)
    if isinstance(run, int):
        return run
    try:
        with _TraceWriter(run) as log:
            result = simulate(run.cfg, run.p, log)
    except ConfigurationError as exc:  # the trace cannot be allocated
        return _invalid_config(exc)
    return _write_outputs(run, result)


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
            return max(_write_outputs(runs[j], result) for j, result in results)
    except ConfigurationError as exc:
        # a trace that cannot be allocated, raised before the first step; a
        # member that large runs alone in its batch
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
