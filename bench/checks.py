"""Correctness checks on a scenario's outputs, computed apart from the program.

Each check takes the parsed outputs and the scenario's config values and
returns a list of problems; an empty list means the output passed.  Nothing
here imports ``stefanlab``, and nothing compares against a stored copy of an
earlier run.

Tolerances:

* energy balance: max over rows of |E(t) - E(0) - (1/k) int_0^t qc dt| must
  not exceed ENERGY_C * E(0) * dt * alpha / s0^2, first order in dt.  The
  residual is a fixed offset taken during the first seconds of the initial
  transient; it halves when dt halves and does not depend on the grid.
* transform round trips: each error must not exceed ROUNDTRIP_C / N^2 times
  the sup of the field it reconstructs (utilde_sup or what_sup).
* exact identities (w_hat(s) = 0, w_tilde <= 0) allow round-off only:
  IDENTITY_RTOL times the matching sup.
"""

from pathlib import Path

import numpy as np

ENERGY_C = 4.0
ROUNDTRIP_C = 10.0
IDENTITY_RTOL = 1e-12
SETPOINT_SHARE = 0.9
FLOAT_SERIES_CAP = 400.0  # (lam/alpha)*s^2 above it leaves the float kernel path

TRACE_COLUMNS = ("t", "s", "qc", "energy")


def read_csv(path: Path, columns=None) -> dict:
    """Column name -> float array; reads only the named columns if given."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        wanted = names if columns is None else list(columns)
        missing = [c for c in wanted if c not in names]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        idx = [names.index(c) for c in wanted]
        data = np.loadtxt(fh, delimiter=",", usecols=idx, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(wanted)}


def check_summary(text: str) -> list[str]:
    problems = []
    if "validation: PASS" not in text.splitlines():
        problems.append("summary lacks 'validation: PASS'")
    if "completed = True" not in text.splitlines():
        problems.append("summary lacks 'completed = True'")
    return problems


def energy_tolerance(v: dict, e0: float) -> float:
    """ENERGY_C * E(0) * dt * alpha / s0^2: first order in dt."""
    alpha = v["k"] / (v["rho"] * v["cp"])
    return ENERGY_C * e0 * v["dt"] * alpha / v["s0"] ** 2


def check_trace(cols: dict, v: dict, reach_setpoint: bool = False) -> list[str]:
    """Row count, interface motion, heat-input sign and energy balance."""
    problems = []
    t, s, qc, energy = (cols[c] for c in TRACE_COLUMNS)
    rows = round(v["t_end"] / v["dt"]) + 1
    if t.size != rows:
        return [f"trace has {t.size} rows, expected {rows}"]
    if not np.all(np.diff(s) > 0.0):
        problems.append(f"interface not strictly rising (min ds = {np.min(np.diff(s)):.3g})")
    if not np.all(s < v["sr"]):
        problems.append(f"interface reached the setpoint (max s = {np.max(s):.17g})")
    target = v["s0"] + SETPOINT_SHARE * (v["sr"] - v["s0"])
    if reach_setpoint and not s[-1] >= target:
        problems.append(f"s(t_end) = {s[-1]:.6g} below {target:.6g}")
    if not np.all(qc > 0.0):
        problems.append(f"qc not positive on every row (min qc = {np.min(qc):.3g})")

    heat_in = np.concatenate(([0.0], np.cumsum(0.5 * (qc[1:] + qc[:-1]) * np.diff(t)))) / v["k"]
    residual = np.max(np.abs(energy - energy[0] - heat_in))
    tol = energy_tolerance(v, energy[0])
    if not residual <= tol:
        problems.append(f"energy balance residual {residual:.6g} exceeds {tol:.6g}")
    return problems


def check_transforms(cols: dict, v: dict, every: int, s_max: float) -> list[str]:
    """Checkpoint diagnostics: exact identities, signs and round trips."""
    problems = []
    steps = round(v["t_end"] / v["dt"])
    expected = len(range(0, steps + 1, every)) + (1 if steps % every else 0)
    if cols["t"].size != expected:
        return [f"{cols['t'].size} checkpoints, expected {expected}"]

    alpha = v["k"] / (v["rho"] * v["cp"])
    z2 = v["lambda"] / alpha * s_max**2
    if not z2 < FLOAT_SERIES_CAP:
        problems.append(f"(lambda/alpha)*s^2 = {z2:.6g} leaves the float kernel path")

    what_sup, utilde_sup = cols["what_sup"], cols["utilde_sup"]
    if not np.all(np.abs(cols["what_boundary"]) <= IDENTITY_RTOL * what_sup):
        problems.append("w_hat(s) is not 0")
    if not np.all(cols["wtilde_max"] <= IDENTITY_RTOL * utilde_sup):
        problems.append(f"w_tilde not <= 0 (max {np.max(cols['wtilde_max']):.3g})")
    if not np.all(cols["V1_tilde"] >= 0.0):
        problems.append("V1_tilde negative")
    grid = ROUNDTRIP_C / v["grid_n"] ** 2
    if not np.all(cols["rt_error_pair_abs"] <= grid * utilde_sup):
        problems.append(
            f"error-pair round trip {np.max(cols['rt_error_pair_abs'] / utilde_sup):.3g} "
            f"of utilde_sup exceeds {grid:.3g}"
        )
    if not np.all(cols["rt_ctrl_abs"] <= grid * what_sup):
        problems.append(
            f"controller-pair round trip {np.max(cols['rt_ctrl_abs'] / what_sup):.3g} "
            f"of what_sup exceeds {grid:.3g}"
        )
    return problems


def check_scenario(sc, out_dir: Path) -> list[str]:
    """Every check that applies to one scenario's output directory."""
    summary = out_dir / "summary.txt"
    if not summary.is_file():
        return ["no summary.txt"]
    problems = check_summary(summary.read_text())
    if problems:
        return problems
    trace = read_csv(out_dir / "trace.csv", TRACE_COLUMNS)
    problems += check_trace(trace, sc.values, sc.reach_setpoint)
    if sc.checkpoint_every is not None:
        ckpt = read_csv(out_dir / "transforms.csv")
        problems += check_transforms(ckpt, sc.values, sc.checkpoint_every, float(np.max(trace["s"])))
    return problems
