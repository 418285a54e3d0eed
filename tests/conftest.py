"""Shared fixtures: the bundled zinc scenario and its session-scoped runs."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stefanlab import runner, specfun, transforms
from stefanlab.cli import bundled_config, parse_config
from stefanlab.diagnostics import lyapunov_constants
from stefanlab.errors import NumericalError
from stefanlab.runner import simulate


def refuse_j1_above(monkeypatch, cap):
    """Make the checkpoint kernel series raise NumericalError once its
    squared argument passes `cap`, as an unsummable kernel would: the term
    function that both a checkpoint's row and ``kernel_rows`` call."""
    real = specfun.i1_ratio_terms

    def refusing(z2, max_terms):
        if z2 > cap:
            raise NumericalError(
                f"checkpoint kernel argument {z2:.6g} exceeds the series cap {cap:g}"
            )
        return real(z2, max_terms)

    monkeypatch.setattr(specfun, "i1_ratio_terms", refusing)
    # the memo may hold rows summed before the patch
    transforms._ratio_rows.cache_clear()


def checkpoint_member(cfg, p):
    """What ``runner._log_checkpoints`` reads and writes of a batch member,
    with room for one block of checkpoints."""
    rows = runner._BLOCK_ROWS
    p_const, a, _, d = lyapunov_constants(cfg, p)
    return SimpleNamespace(
        row_constants=(cfg.c, cfg.sr, p.alpha, p.beta, cfg.lam, p_const, a, d),
        cols={name: np.full(rows, np.nan) for name in ("t", "s", "V", "Vtot")},
        checkpoints=np.empty((len(runner._CHECKPOINT_COLUMNS), rows)),
        checkpoints_logged=0,
        pending=[],
    )


def log_checkpoints(member, block, snapshots):
    """Log (theta, theta_hat, y, t) snapshots as the member's checkpoints at
    rows 0, 1, ... of one block, as the engine does: each row's fields in
    the ring and its t and s in the member's columns, then one flush of the
    block's checkpoints, as the only member of its ring.  block is the
    (_BLOCK_ROWS, 2, N+1) buffer the rows are written to."""
    for i, (theta, theta_hat, y, t) in enumerate(snapshots):
        block[i] = theta, theta_hat
        member.cols["t"][i], member.cols["s"][i] = t, y
        member.pending.append(i)
    runner._log_checkpoints([(0, member)], block[:, :, np.newaxis])


@pytest.fixture(autouse=True)
def error_state_kept():
    """Fail a test that leaves numpy's floating-point error state other than
    it found it."""
    before = np.geterr()
    yield
    assert np.geterr() == before, "the test changed numpy's floating-point error state"


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
