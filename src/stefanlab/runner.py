"""Closed-loop engine: measurement, feedback, and joint plant/observer stepping.

Loop ordering, fixed and relied upon by the equivalence checks: at each step
the interface is measured, the observer's extent is rescaled to that
measurement (assimilation; a no-op on the normalized samples), the controller
is evaluated on the assimilated observer state (or the true state in
state-feedback mode), and then plant and observer advance over the same
interval with the same heat flux and the same start-of-interval extent.
Because both systems share one discrete operator, a zero-gain observer
started on the true profile reproduces the plant bit for bit, and the two
feedback laws then produce identical traces.

Scenarios that share the grid and the time step advance in lockstep as one
(2, B, N+1) stack, row 0 of each member its theta and row 1 its theta_hat,
with one block-diagonal two-column solve per step; ``simulate`` is the batch
of one.  The array work is batched: the trapezoid sums, the convection, the
ghost-node flux, the source rows, the solve and the non-finite check.  The
scalar work stays in Python floats, member by member: the feedback law, the
edge stencils, the two convection rates and their clamp, the injection gain
and the Stefan update.  The logged diagnostics depend on no later step, so
they are computed for blocks of buffered rows at a time.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import control, diagnostics, transforms
from ._scheme import advance_field, edge_stencil, one_sided_edge_flux
from .errors import BlowUpError, NumericalError
from .observer import ObserverState, init_observer, observer_forcing
from .params import PhysicalParams, ScenarioConfig
from .plant import PlantState, advance_interface, convection_rate, init_plant

# Rows of (theta, theta_hat) buffered before their logged diagnostics are
# computed in one pass: large enough to amortise the per-call cost of the
# array operations, small enough to stay in cache.
_BLOCK_ROWS = 64

# Bytes of logged columns and field buffers one lockstep batch may hold: four
# 5,001-row members on a 64-interval grid hold 2.5 MB, a 90,001-row member
# on a 200-interval grid 10.3 MB, so it runs alone.  Holding all 24 of such a
# sweep's traces at once raised its peak resident size by 12 MB.
_BATCH_BYTES = 3_000_000


def _array_fields(cls) -> list[str]:
    """Names of the array fields of a dataclass, in declaration order."""
    return [f.name for f in fields(cls) if f.type is np.ndarray]


@dataclass
class Trace:
    """Column-oriented log of a run; V and Vtot are NaN off checkpoints."""

    t: np.ndarray
    s: np.ndarray
    qc: np.ndarray
    T0: np.ndarray
    That0: np.ndarray
    Ttilde0: np.ndarray
    h1_u: np.ndarray
    h1_err: np.ndarray
    energy: np.ndarray
    V: np.ndarray
    Vtot: np.ndarray
    utilde_x_s: np.ndarray
    theta_min: np.ndarray
    utilde_max: np.ndarray
    dt: float
    grid_n: int
    sr: float
    mode: str

    def columns(self, constraints=None) -> dict:
        """Column name -> array in CSV order: the logged arrays, then the
        constraint flags as bool arrays (written as 0/1).  `constraints` is
        this trace's ``monitor_constraints`` report, made here if not given."""
        report = diagnostics.monitor_constraints(self) if constraints is None else constraints
        out = {name: getattr(self, name) for name in _array_fields(Trace)}
        for name in _array_fields(diagnostics.ConstraintReport):
            out[name] = getattr(report, name)
        return out


@dataclass
class SimulationResult:
    trace: Trace
    checkpoints: dict
    completed: bool
    failure: str | None = None
    final_plant: object = None
    final_observer: object = None


def _checkpoint_row(theta, theta_hat, y, t, cfg, p):
    alpha, beta = p.alpha, p.beta
    X = y - cfg.sr
    u_err = theta - theta_hat
    w_err = transforms.apply_inverse(u_err, y, cfg.lam, alpha)
    rt_err = transforms.apply_direct(w_err, y, cfg.lam, alpha) - u_err
    w_hat = transforms.controller_transform(theta_hat, X, y, cfg.c, alpha, beta)
    rt_ctrl = transforms.controller_inverse(w_hat, X, y, cfg.c, alpha, beta) - theta_hat
    sample = diagnostics.lyapunov_sample(w_err, w_hat, y, t, cfg, p)
    return {
        "t": t,
        "s": y,
        "X": X,
        "V1_tilde": sample.V1_tilde,
        "Vtot": sample.Vtot,
        "V": sample.V,
        "wtilde_max": float(np.max(w_err)),
        "utilde_sup": float(np.max(np.abs(u_err))),
        "rt_error_pair_abs": float(np.max(np.abs(rt_err))),
        "what_sup": float(np.max(np.abs(w_hat))),
        "rt_ctrl_abs": float(np.max(np.abs(rt_ctrl))),
        "what_boundary": float(abs(w_hat[-1])),
    }, sample


def _log_block(cols: dict, start: int, block: np.ndarray, cfg: ScenarioConfig, p: PhysicalParams):
    """Fill the per-step diagnostic columns of rows start, start+1, ... from
    their buffered (theta, theta_hat) pairs; cols["s"] already holds the
    extents."""
    rows = slice(start, start + block.shape[0])
    s = cols["s"][rows]
    theta, theta_hat = block[:, 0], block[:, 1]
    u_err = theta - theta_hat
    flux = one_sided_edge_flux(block, 1.0 / cfg.grid_n)
    cols["T0"][rows] = p.tm + theta[:, 0]
    cols["That0"][rows] = p.tm + theta_hat[:, 0]
    cols["Ttilde0"][rows] = theta[:, 0] - theta_hat[:, 0]
    cols["h1_u"][rows] = diagnostics.h1_norm_sq(theta, s)
    cols["h1_err"][rows] = diagnostics.h1_norm_sq(u_err, s)
    cols["energy"][rows] = control.field_energy(theta, s, p)
    cols["utilde_x_s"][rows] = flux[:, 0] / s - flux[:, 1] / s
    cols["theta_min"][rows] = theta.min(axis=-1)
    cols["utilde_max"][rows] = u_err.max(axis=-1)


@dataclass(slots=True)
class _Member:
    """One scenario of a lockstep batch: its logs, its sequential state and
    the constants its per-step scalar work reads."""

    index: int
    cfg: ScenarioConfig
    p: PhysicalParams
    cols: dict
    checkpoint_rows: list
    s: float
    last_row: int
    feedback_row: int
    domain_cap: float
    alpha: float
    beta: float
    k: float
    s_prev: float | None = None
    t_state: float = 0.0

    def result(self, rows: int, block: np.ndarray, pair: np.ndarray, failure) -> SimulationResult:
        """The run's result after `rows` logged rows; block holds the
        member's buffered rows, pair its final (theta, theta_hat)."""
        cfg, p, cols = self.cfg, self.p, self.cols
        tail = rows % _BLOCK_ROWS
        if tail:
            _log_block(cols, rows - tail, block[:tail], cfg, p)
        trace = Trace(
            **{name: arr[:rows] for name, arr in cols.items()},
            dt=cfg.dt,
            grid_n=cfg.grid_n,
            sr=cfg.sr,
            mode=cfg.mode,
        )
        # row 0 is always a checkpoint; a run whose first checkpoint fails has none
        names = self.checkpoint_rows[0] if self.checkpoint_rows else ()
        checkpoints = {name: np.array([r[name] for r in self.checkpoint_rows]) for name in names}
        return SimulationResult(
            trace=trace,
            checkpoints=checkpoints,
            completed=failure is None,
            failure=failure,
            final_plant=PlantState(t=self.t_state, s=self.s, theta=pair[0].copy(), s_prev=self.s_prev),
            final_observer=ObserverState(t=self.t_state, y_prev=self.s_prev, theta_hat=pair[1].copy()),
        )


def _held_bytes(cfg: ScenarioConfig) -> int:
    """Bytes a member holds in a batch: its logged columns and its buffer of
    _BLOCK_ROWS field pairs."""
    rows = int(round(cfg.t_end / cfg.dt)) + 1
    return 8 * (rows * len(_array_fields(Trace)) + _BLOCK_ROWS * 2 * (cfg.grid_n + 1))


def lockstep_batches(cfgs) -> list[list[int]]:
    """Indices of the configs grouped by (grid_n, dt), in order of first
    appearance, each group cut into consecutive batches of at most
    _BATCH_BYTES held (a member that alone holds more runs alone)."""
    groups = {}
    for j, cfg in enumerate(cfgs):
        groups.setdefault((cfg.grid_n, cfg.dt), []).append(j)
    batches = []
    for group in groups.values():
        batch, held = [], 0
        for j in group:
            cost = _held_bytes(cfgs[j])
            if batch and held + cost > _BATCH_BYTES:
                batches.append(batch)
                batch, held = [], 0
            batch.append(j)
            held += cost
        batches.append(batch)
    return batches


def simulate_batch(scenarios):
    """Run (cfg, p) scenarios that share grid_n and dt in lockstep.

    Yields (index into scenarios, SimulationResult) as each member leaves
    the batch: when it completes, or when it fails (completed=False with the
    failure message and the truncated trace, as from ``simulate``).  Each
    member's result is bit-identical to its own ``simulate`` run.
    """
    scenarios = list(scenarios)
    grids = {(cfg.grid_n, cfg.dt) for cfg, _ in scenarios}
    if len(grids) != 1:
        raise ValueError(f"lockstep members must share one (grid_n, dt), got {sorted(grids)}")
    ((n, dt),) = grids
    dxi = 1.0 / n
    members = []
    # members with an injection gain first: the observer source covers the
    # first blocks of the stack
    for j in sorted(range(len(scenarios)), key=lambda j: scenarios[j][0].lam == 0.0):
        cfg, p = scenarios[j]
        n_rows = int(round(cfg.t_end / dt)) + 1
        if n_rows < 2:
            raise ValueError("horizon shorter than one step")
        cols = {name: np.empty(n_rows) for name in _array_fields(Trace)}
        cols["V"].fill(np.nan)
        cols["Vtot"].fill(np.nan)
        members.append(
            _Member(
                index=j,
                cfg=cfg,
                p=p,
                cols=cols,
                checkpoint_rows=[],
                s=cfg.s0,
                last_row=n_rows - 1,
                feedback_row=0 if cfg.mode == "state_feedback" else 1,
                domain_cap=cfg.domain_cap if cfg.domain_cap is not None else 2.0 * cfg.sr,
                alpha=p.alpha,
                beta=p.beta,
                k=p.k,
            )
        )

    # block b of the stack is member b: row 0 its theta, row 1 its theta_hat
    stack = np.stack(
        [
            [init_plant(m.cfg).theta for m in members],
            [init_observer(m.cfg).theta_hat for m in members],
        ]
    )
    # the buffered stacks of the current block of rows
    block = np.empty((_BLOCK_ROWS, 2, len(members), n + 1))
    i = 0
    while True:
        t = i * dt
        rows = i + 1
        block[i % _BLOCK_ROWS] = stack
        log_block = rows % _BLOCK_ROWS == 0
        heads = stack[..., 0].tolist()
        interior = stack[..., 1:-1].sum(axis=-1).tolist()
        tails = stack[..., -3:].tolist()

        # per member in Python floats: the feedback law on the trapezoid
        # integral of control._trapz_integral, the checkpoint, the rates and
        # the injection source
        leaving, stepping = {}, []
        extent, qcs, rates, velocities, sources, alphas, ks = [], [], [], [], [], [], []
        for j, m in enumerate(members):
            cfg, cols, fb = m.cfg, m.cols, m.feedback_row
            y = m.s  # measurement; the observer extent is rescaled to it
            integral = y * dxi * (0.5 * (heads[fb][j] + tails[fb][j][2]) + interior[fb][j])
            qc = control.feedback_law(integral, y, cfg, m.p)
            cols["t"][i] = t
            cols["s"][i] = y
            cols["qc"][i] = qc
            if log_block:
                _log_block(cols, rows - _BLOCK_ROWS, block[:, :, j], cfg, m.p)
            try:
                if i % cfg.checkpoint_every == 0 or i == m.last_row:
                    ck, sample = _checkpoint_row(stack[0, j], stack[1, j], y, t, cfg, m.p)
                    m.checkpoint_rows.append(ck)
                    cols["V"][i] = sample.V
                    cols["Vtot"][i] = sample.Vtot
                if i == m.last_row:
                    leaving[j] = None
                    continue
                rate = convection_rate(y, m.s_prev, edge_stencil(*tails[0][j], dxi), dt, m.beta)
                v, source = observer_forcing(
                    y, m.s_prev, edge_stencil(*tails[1][j], dxi), dt, n, cfg, m.p
                )
            except (BlowUpError, NumericalError) as exc:
                leaving[j] = str(exc)
                continue
            stepping.append(j)
            extent.append(y)
            qcs.append(qc)
            rates.append(rate)
            velocities.append(v)
            alphas.append(m.alpha)
            ks.append(m.k)
            if source is not None:
                sources.append(source)

        for j, failure in leaving.items():
            yield members[j].index, members[j].result(rows, block[:, :, j], stack[:, j], failure)
        if not stepping:
            return
        if leaving:
            # compaction keeps the order, so the gain members stay first
            members = [members[j] for j in stepping]
            stack, block = stack[:, stepping], block[:, :, stepping]

        new, failed = advance_field(
            stack,
            extent,
            (rates, velocities),
            qcs,
            dt,
            alphas,
            ks,
            source=np.array(sources) if sources else None,
        )
        edges = new[0, :, -3:].tolist()
        for j, m in enumerate(members):
            if j not in failed:
                try:
                    s_next = advance_interface(
                        m.s, edge_stencil(*edges[j], dxi), m.t_state + dt, dt, m.beta, m.domain_cap
                    )
                except BlowUpError as exc:
                    failed[j] = str(exc)
                    continue
                m.s_prev, m.s = m.s, s_next
                m.t_state += dt
        for j, failure in failed.items():
            # the member's last state is the one before this step
            yield members[j].index, members[j].result(rows, block[:, :, j], stack[:, j], failure)
        if failed:
            keep = [j for j in range(len(members)) if j not in failed]
            if not keep:
                return
            members = [members[j] for j in keep]
            new, block = new[:, keep], block[:, :, keep]
        stack = new
        i += 1


def simulate(cfg: ScenarioConfig, p: PhysicalParams) -> SimulationResult:
    """Run the closed loop over the configured horizon: the lockstep batch
    of one.

    Numerical failures do not raise: the result carries the truncated trace
    with completed=False and the failure message.
    """
    ((_, result),) = simulate_batch([(cfg, p)])
    return result
