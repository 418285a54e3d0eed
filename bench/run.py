"""Benchmark of the stefanlab closed-loop lab.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {zinc,sweep,checkpoints} --seed N \
        --seconds S --trace {0,1}

Every round of a workload runs in a fresh single-threaded Python process
(``bench/worker.py``) that imports ``stefanlab`` from ``src/`` and calls the
CLI in-process.  The outputs are then checked by ``bench/checks.py``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
several fresh set-ups), ``steps_per_s`` (trace rows over the CLI's wall
time, median over whole rounds) and ``peak_rss_mb`` (the round process's
``ru_maxrss``, median over rounds).  Whole rounds repeat until S seconds
have passed, so a round longer than S runs once.

``--trace 1`` runs one untraced and one traced round, checks that both wrote
identical files, and reports per-function call counts and self times, the
bytes ``write_csv`` wrote and the tracing overhead (traced minus untraced
wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".bench_runs"

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 80
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUT_FILES = ("trace.csv", "transforms.csv", "summary.txt")


class WorkerError(RuntimeError):
    pass


@dataclass
class Round:
    """One workload round: its measurements and the verdict on its outputs."""

    out_dir: Path
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(spec: dict, work_dir: Path) -> dict:
    """Run worker.py on spec in a fresh process and return its result."""
    work_dir.mkdir(parents=True, exist_ok=True)
    result = work_dir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps({**spec, "result": str(result)})]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def setup_time(wl: workloads.Workload, work_dir: Path) -> float:
    spec = {"configs": [str(sc.config) for sc in wl.scenarios], "argv": None, "trace": False}
    return run_worker(spec, work_dir)["setup_s"]


def _count_rows(path: Path) -> int:
    if not path.is_file():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def run_round(wl: workloads.Workload, out_dir: Path, trace: bool = False) -> Round:
    """Run every scenario of wl once in a fresh process and check the outputs.

    A scenario fails if it exits non-zero or its outputs fail a check; a
    failed check on a scenario that exited 0 is also listed in ``problems``.
    """
    rd = Round(out_dir=out_dir, attempted=len(wl.scenarios))
    spec = {
        "configs": [str(sc.config) for sc in wl.scenarios],
        "argv": wl.argv(out_dir),
        "trace": trace,
        "spans": str(out_dir / "spans.npz"),
    }
    try:
        res = run_worker(spec, out_dir)
    except WorkerError as exc:
        print(f"{wl.name}: {exc}", file=sys.stderr)
        rd.failed = rd.attempted
        return rd
    rd.wall_s, rd.setup_s = res["wall_s"], res["setup_s"]
    rd.peak_rss_mb = res["maxrss_kb"] * 1024 / 1e6
    for sc in wl.scenarios:
        d = out_dir / sc.name
        rd.rows += _count_rows(d / "trace.csv")
        # sweep reports the largest exit code; a member's own code shows in its summary
        summary = d / "summary.txt"
        exited_0 = res["exit_code"] == 0 or (
            len(wl.scenarios) > 1
            and summary.is_file()
            and not checks.check_summary(summary.read_text())
        )
        if not exited_0:
            rd.failed += 1
            continue
        problems = checks.check_scenario(sc, d)
        if problems:
            rd.failed += 1
            rd.problems += [f"{sc.name}: {p}" for p in problems]
    return rd


def differing_outputs(wl: workloads.Workload, a: Path, b: Path) -> list[str]:
    """Files that differ between two rounds of the same workload."""
    return [
        f"{sc.name}/{f}"
        for sc in wl.scenarios
        for f in OUTPUT_FILES
        if not ((a / sc.name / f).is_file() and filecmp.cmp(a / sc.name / f, b / sc.name / f, shallow=False))
    ]


def measure(wl: workloads.Workload, run_dir: Path, seconds: float) -> tuple[dict, list[Round]]:
    setups = [setup_time(wl, run_dir / "setup") for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.perf_counter()
    while True:
        rd = run_round(wl, run_dir / f"round{len(rounds)}")
        shutil.rmtree(rd.out_dir, ignore_errors=True)
        rounds.append(rd)
        if time.perf_counter() - start >= seconds:
            break
    done = [r for r in rounds if r.wall_s > 0.0]
    if not done:
        raise WorkerError("no round ran to its end")
    metrics = {
        "setup_s": (statistics.median(setups + [r.setup_s for r in done]), "s"),
        "steps_per_s": (statistics.median(r.rows / r.wall_s for r in done), "1/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in done), "MB"),
    }
    return metrics, rounds


def measure_traced(wl: workloads.Workload, run_dir: Path) -> tuple[dict, list[Round]]:
    plain = run_round(wl, run_dir / "plain")
    traced = run_round(wl, run_dir / "traced", trace=True)
    if plain.wall_s == 0.0 or traced.wall_s == 0.0:
        raise WorkerError("a round did not run to its end")
    differ = differing_outputs(wl, plain.out_dir, traced.out_dir)
    traced.problems += [f"tracing changed {f}" for f in differ]

    metrics = {}
    for name, (calls, self_s) in tracing.layer_totals(traced.out_dir / "spans.npz").items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    written = sum(
        (traced.out_dir / sc.name / f).stat().st_size
        for sc in wl.scenarios
        for f in ("trace.csv", "transforms.csv")
        if (traced.out_dir / sc.name / f).is_file()
    )
    metrics["cli.write_csv.mb"] = (written / 1e6, "MB")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "stefanlab" / "__init__.py").is_file():
        print(f"no stefanlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, run_dir / "configs")
        if args.trace:
            metrics, rounds = measure_traced(wl, run_dir)
        else:
            metrics, rounds = measure(wl, run_dir, args.seconds)
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            RUNS_DIR.rmdir()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"scenarios attempted {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
