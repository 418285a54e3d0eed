"""Seeded inputs of the benchmark's workloads.

Every workload is a list of scenarios plus the ``stefanlab`` command line that
runs them.  The benchmark reads and writes configs with its own parser, so
the values the checks rely on never come from the program under test.

* ``zinc``: the bundled acceptance scenario, unchanged (the seed is unused).
* ``sweep``: 24 scenarios on the ``zinc_smoke`` grid (N = 64, dt = 0.1 s) over
  a 500 s horizon, run by ``stefanlab sweep --jobs 1``.  The seed drives a
  Latin-hypercube draw, so every seed covers the same strata of the box and
  only the positions inside the strata move: 3 members at lambda = 0 and 21
  with lambda spread over (0, 0.1] * bound, c over [0.001, 0.01] 1/s and sr
  over [0.2, 0.35] m, 12 members in each feedback mode.
* ``checkpoints``: zinc material and grid over a 250 s horizon with
  ``--checkpoint-every 5`` (1,001 checkpoints); the seed places lambda in
  [0.045, 0.055] * bound.
"""

import configparser
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZINC_CFG = ROOT / "src" / "stefanlab" / "configs" / "zinc.cfg"

NAMES = ("zinc", "sweep", "checkpoints")

SWEEP_MEMBERS = 24
SWEEP_ZERO_GAIN = 3
SWEEP_LAMBDA_SHARE = 0.1  # of the gain bound; higher gains blow up today
SWEEP_C = (0.001, 0.01)
SWEEP_SR = (0.2, 0.35)
SWEEP_GRID = {"grid_n": 64, "dt": 0.1, "t_end": 500.0, "domain_cap": 0.7}

CHECKPOINT_EVERY = 5
CHECKPOINT_LAMBDA_SHARE = (0.045, 0.055)
CHECKPOINT_T_END = 250.0


@dataclass(frozen=True)
class Scenario:
    """One config, the output directory it writes, and what to check."""

    name: str
    config: Path
    values: dict
    reach_setpoint: bool = False
    checkpoint_every: int | None = None

    @property
    def rows(self) -> int:
        return round(self.values["t_end"] / self.values["dt"]) + 1


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple

    def argv(self, out_dir: Path) -> list[str]:
        """The ``stefanlab`` command line that runs every scenario."""
        if self.name == "sweep":
            cfgs = [str(sc.config) for sc in self.scenarios]
            return ["sweep", *cfgs, "--out-dir", str(out_dir), "--jobs", "1"]
        (sc,) = self.scenarios
        argv = ["run", str(sc.config), "--out-dir", str(out_dir / sc.name)]
        if sc.checkpoint_every is not None:
            argv += ["--checkpoint-every", str(sc.checkpoint_every)]
        return argv


def read_config(path: Path) -> dict:
    """Flat key -> value map of a config; numbers as floats, mode as text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    if not parser.read(path):
        raise FileNotFoundError(path)
    values = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            try:
                values[key] = float(raw)
            except ValueError:
                values[key] = raw
    return values


def write_config(path: Path, base: dict, **overrides) -> dict:
    """Write base updated by overrides as a config file; return its values."""
    values = {**base, **overrides}
    sections = {
        "physical": ("rho", "cp", "k", "dh", "tm"),
        "scenario": ("s0", "H", "Hhat", "c", "lambda", "sr", "mode"),
        "numerics": ("grid_n", "dt", "t_end", "domain_cap"),
        "output": ("checkpoint_every",),
    }
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key in keys:
            v = values[key]
            if key in ("grid_n", "checkpoint_every"):
                v = int(v)
            lines.append(f"{key} = {v!r}" if isinstance(v, float) else f"{key} = {v}")
        lines.append("")
    path.write_text("\n".join(lines))
    return read_config(path)


def gain_bound(values: dict) -> float:
    """(4*alpha/s0^2) * (1 - H/Hhat), the paper's observer-gain restriction."""
    alpha = values["k"] / (values["rho"] * values["cp"])
    return 4.0 * alpha / values["s0"] ** 2 * (1.0 - values["H"] / values["Hhat"])


def _latin(rng: random.Random, n: int) -> list[float]:
    """One point in each of n equal strata of (0, 1], in random order."""
    points = [(k + 1.0 - rng.random()) / n for k in range(n)]
    rng.shuffle(points)
    return points


def make(name: str, seed: int, cfg_dir: Path) -> Workload:
    """Build the named workload's inputs in cfg_dir; same seed, same inputs."""
    zinc = read_config(ZINC_CFG)
    if name == "zinc":
        return Workload(name, (Scenario("zinc", ZINC_CFG, zinc, reach_setpoint=True),))

    rng = random.Random(seed)
    bound = gain_bound(zinc)
    cfg_dir.mkdir(parents=True, exist_ok=True)
    if name == "checkpoints":
        lo, hi = CHECKPOINT_LAMBDA_SHARE
        lam = (lo + (hi - lo) * rng.random()) * bound
        path = cfg_dir / "checkpoints.cfg"
        values = write_config(path, zinc, **{"lambda": lam, "t_end": CHECKPOINT_T_END})
        sc = Scenario("checkpoints", path, values, checkpoint_every=CHECKPOINT_EVERY)
        return Workload(name, (sc,))

    if name == "sweep":
        n = SWEEP_MEMBERS
        lam = [0.0] * SWEEP_ZERO_GAIN + [
            SWEEP_LAMBDA_SHARE * bound * f for f in _latin(rng, n - SWEEP_ZERO_GAIN)
        ]
        rng.shuffle(lam)
        c = [SWEEP_C[0] + (SWEEP_C[1] - SWEEP_C[0]) * f for f in _latin(rng, n)]
        sr = [SWEEP_SR[0] + (SWEEP_SR[1] - SWEEP_SR[0]) * f for f in _latin(rng, n)]
        modes = ["output_feedback", "state_feedback"] * (n // 2)
        rng.shuffle(modes)
        scenarios = []
        for i in range(n):
            path = cfg_dir / f"m{i:02d}.cfg"
            values = write_config(
                path,
                zinc,
                **SWEEP_GRID,
                **{"lambda": lam[i], "c": c[i], "sr": sr[i], "mode": modes[i]},
                checkpoint_every=50,
            )
            scenarios.append(Scenario(path.stem, path, values))
        return Workload(name, tuple(scenarios))

    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
