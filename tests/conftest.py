"""Shared fixtures: the bundled zinc scenario and its session-scoped runs."""

from dataclasses import replace

import numpy as np
import pytest

from stefanlab import transforms
from stefanlab.cli import bundled_config, parse_config
from stefanlab.errors import NumericalError
from stefanlab.runner import simulate


def refuse_j1_above(monkeypatch, cap):
    """Make the checkpoint J1 kernel raise NumericalError once its largest
    squared argument passes `cap`, as an unsummable kernel would."""
    real = transforms.j1_ratio_array

    def refusing(z2):
        z2_max = float(np.max(z2))
        if z2_max > cap:
            raise NumericalError(
                f"checkpoint kernel argument {z2_max:.6g} exceeds the series cap {cap:g}"
            )
        return real(z2)

    monkeypatch.setattr(transforms, "j1_ratio_array", refusing)


@pytest.fixture(scope="session")
def zinc():
    """(PhysicalParams, ScenarioConfig) from the bundled zinc config."""
    return parse_config(bundled_config("zinc"))


@pytest.fixture(scope="session")
def zinc_run(zinc):
    """Full output-feedback zinc run (the acceptance scenario)."""
    p, cfg = zinc
    res = simulate(cfg, p)
    assert res.completed, res.failure
    return res


@pytest.fixture(scope="session")
def conservation_pair(zinc):
    """Base and (2N, dt/2)-refined runs over a transient-dominated horizon."""
    p, cfg = zinc
    base_cfg = replace(cfg, t_end=1000.0, checkpoint_every=10**9)
    fine_cfg = replace(
        cfg, t_end=1000.0, grid_n=2 * cfg.grid_n, dt=0.5 * cfg.dt, checkpoint_every=10**9
    )
    return simulate(base_cfg, p), simulate(fine_cfg, p), base_cfg, fine_cfg


@pytest.fixture(scope="session")
def equivalence_runs(zinc):
    """Output- and state-feedback runs with Hhat = H and zero observer gain."""
    p, cfg = zinc
    degenerate = replace(cfg, Hhat=cfg.H, lam=0.0, t_end=200.0, checkpoint_every=10**9)
    out = simulate(degenerate, p)
    state = simulate(replace(degenerate, mode="state_feedback"), p)
    return out, state
