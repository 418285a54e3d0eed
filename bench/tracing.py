"""Span tracing of ``stefanlab`` from outside the program.

``install`` replaces each traced function, in every ``stefanlab`` module that
holds it, with a wrapper that records a span (name, start, end, parent).  A
module that imported the function by name (``runner`` imports
``step_plant``) therefore calls the wrapper too.  Spans stay in compact
arrays in memory and are written once, when the run ends; ``layer_totals``
turns them into per-name call counts and self times.
"""

import functools
import sys
import time
from array import array

import numpy as np

# Metric prefix -> (module, attribute) pairs recorded under that name.  The two
# feedback laws share a name: each workload runs only one of them on most of
# its scenarios, and a layer that reads 0 on a workload shows nothing there.
# ``_scheme`` is reported as ``scheme`` because metric names begin with a letter.
TRACED = {
    "cli.parse_config": [("cli", "parse_config")],
    "params.validate_scenario": [("params", "validate_scenario")],
    "cli.write_csv": [("cli", "write_csv")],
    "cli.run_scenario": [("cli", "run_scenario")],
    "cli._summary_text": [("cli", "_summary_text")],
    "runner.simulate": [("runner", "simulate")],
    "runner.Trace.columns": [("runner", "Trace.columns")],
    "runner._checkpoint_row": [("runner", "_checkpoint_row")],
    "scheme.advance_field": [("_scheme", "advance_field")],
    "plant.step_plant": [("plant", "step_plant")],
    "plant.interface_flux": [("plant", "interface_flux")],
    "observer.step_observer": [("observer", "step_observer")],
    "observer.estimate_flux": [("observer", "estimate_flux")],
    "observer.gain_profile": [("observer", "gain_profile")],
    "control.feedback": [("control", "output_feedback"), ("control", "state_feedback")],
    "control.internal_energy": [("control", "internal_energy")],
    "control.qc_ode_residual": [("control", "qc_ode_residual")],
    "diagnostics.h1_norm_sq": [("diagnostics", "h1_norm_sq")],
    "diagnostics.lyapunov_sample": [("diagnostics", "lyapunov_sample")],
    "diagnostics.monitor_constraints": [("diagnostics", "monitor_constraints")],
    "transforms.apply_inverse": [("transforms", "apply_inverse")],
    "transforms.apply_direct": [("transforms", "apply_direct")],
    "transforms.controller_transform": [("transforms", "controller_transform")],
    "transforms.controller_inverse": [("transforms", "controller_inverse")],
    "specfun.i1_ratio_array": [("specfun", "i1_ratio_array")],
    "specfun.j1_ratio_array": [("specfun", "j1_ratio_array")],
}


class SpanRecorder:
    """In-memory span log; span i's parent is the span open when i began."""

    def __init__(self):
        self.names = list(TRACED)
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, fn, name: str):
        nid = self.names.index(name)
        name_idx, parent, start, end, open_ = (
            self.name_idx, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_idx.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every traced function; returns the targets that do not exist."""
    modules = [m for n, m in sys.modules.items() if n == "stefanlab" or n.startswith("stefanlab.")]
    missing = []
    for name, targets in TRACED.items():
        for modname, attr in targets:
            mod = sys.modules.get(f"stefanlab.{modname}")
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapped = recorder.wrap(orig, name)
            if owner_name:
                setattr(owner, fname, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
    return missing


def layer_totals(path) -> dict:
    """name -> (calls, self seconds) from a saved span log.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children nest inside parents.
    """
    with np.load(path) as d:
        names = [str(n) for n in d["names"]]
        idx, parent = d["name_idx"], d["parent"]
        dur = d["end"] - d["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    calls = np.bincount(idx, minlength=len(names))
    self_s = np.bincount(idx, weights=own, minlength=len(names))
    return {n: (int(calls[j]), float(self_s[j])) for j, n in enumerate(names)}
