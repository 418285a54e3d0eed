"""Closed-loop engine: measurement, feedback, and joint plant/observer stepping.

Loop ordering, fixed and relied upon by the equivalence checks: at each step
the interface is measured, the observer's extent is rescaled to that
measurement (assimilation; a no-op on the normalized samples), the controller
is evaluated on the assimilated observer state (or the true state in
state-feedback mode), and then plant and observer advance over the same
interval with the same heat flux, start-of-interval extent and interface
rate (the plant's ``convection_rate``, the observer's measured rate), and
the interface takes its Stefan update (``advance_interface``).  Because
both systems share one discrete operator, a zero-gain observer started on
the true profile reproduces the plant bit for bit, and the two feedback
laws then produce identical traces.

Scenarios that share the grid and the time step advance in lockstep as one
(2, B, N+1) stack, row 0 of each member its theta and row 1 its theta_hat;
``simulate`` is the batch of one.  The stacks live in a ring of
_BLOCK_ROWS of them, row i of the trace in ring row i % _BLOCK_ROWS: the
``_scheme.Workspace`` steps the fields inside it, and the logged
diagnostics, which depend on no later step, are computed from it for a
block of rows at a time.  Once per batch: each member's constants.  Once
per batch, and again only when a member leaves: the ring and the
workspace, with every buffer a step writes.  Once per step for the whole
batch: the step table filled, the gain series' term table (one cumulative
product), the right-hand side, one two-column solve, the trapezoid sums and
edge samples and the non-finite check.  Per member: in Python floats the
previous step's Stefan update, the feedback law, the edge stencils, the rate
and its clamp and the gain series' argument, term count and scale; in numpy
its own truncation and matvec of the term table, so that its bits do not
depend on its batch-mates.  Every member steps alike: a zero gain takes the
series at argument 0 and scale 0, so its observer's source row is zero.
Members leave at one point of a step, after the per-member pass, with their
final fields read from their newest row.

The engine's own work runs with overflow and invalid operations ignored:
the steps, where a diverging field fails its step without a warning, and
the flush's columns and checkpoints, which log a value past the float range
as inf or NaN.  That one error state is entered before row 0 and left only
where control passes to caller code: before the logs' ``write`` and
``trace`` calls and a yield, and in finally.

Each member's per-step columns live in a block of _BLOCK_ROWS rows too.
Every row leaves a member at one point of a step, the flush after the
member pass, which takes every member that logged its block's last row and
every member leaving with rows not yet flushed: it fills each one's per-step
columns, logs all their pending checkpoints and hands each one's rows to
its log, as a ``Trace`` of views that stay valid only for that call.  The default log, ``_TraceLog``, copies every block into
full-length columns, so ``simulate`` and ``simulate_batch`` return the whole
trace.  The CLI's log folds each block into a ``diagnostics.RunSummary``,
two full-length columns (h1_err and the qc-ODE residual) and no trace, and
writes the block to trace.csv.

A checkpoint is formed at the flush: its row only records its index, once
``specfun.gain_term_count`` passes at (lam/alpha)*s^2, as it must at every
row.  That count is the one cap of the I1 series, the flush's kernel rows
included, so a series past it stops the member at that row, before its
checkpoint, and one within it sums at the flush too.  There the Bessel
error pair (``apply_inverse`` for w_err, then the ``apply_direct`` round
trip) runs one checkpoint at a time, on its extent's own kernel rows (183 KB
at N = 200), and the rest (the controller pair, the Lyapunov sample, the
sup norms) for the pending checkpoints of every member flushed in one
stacked pass, each row with its own member's c, sr, material and Lyapunov
constants: the arithmetic is row by row, so every row keeps the bits of its
member's own run, and a batch pays the numpy per-call cost of the pass once
per flush, not once per member.
"""

from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from . import control, diagnostics, specfun, transforms
from ._scheme import Workspace, block_row, edge_stencil, one_sided_edge_flux, stable_rate_cap
from .errors import BlowUpError, ConfigurationError, NumericalError, _unallocatable
from .params import PhysicalParams, ScenarioConfig

# Rows of (theta, theta_hat) buffered before their logged diagnostics are
# computed in one pass: large enough to amortise the per-call cost of the
# array operations, small enough to stay in cache.
_BLOCK_ROWS = 64

# Bytes of kept columns, checkpoint tables and field buffers one lockstep
# batch of the CLI may hold: eighteen 5,001-row members on a 64-interval grid
# that log every 50th row hold 2.94 MB (163,536 B each: two summary columns,
# the checkpoint table, the block of columns and the field buffer); a
# 90,001-row member on a 200-interval grid holds 1.70 MB.  So the bound, not
# a sweep's length, sets what a sweep holds: 1,000 such members in one batch
# would hold 164 MB.
_BATCH_BYTES = 3_000_000


@cache
def _array_fields(cls) -> tuple[str, ...]:
    """Names of the array fields of a dataclass, in declaration order."""
    return tuple(f.name for f in fields(cls) if f.type is np.ndarray)


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

    def columns(self, constraints=None) -> dict:
        """Column name -> array in CSV order: the logged arrays, then the
        constraint flags as bool arrays (written as 0/1).  `constraints` is
        this trace's ``monitor_constraints`` report, made here if not given."""
        report = diagnostics.monitor_constraints(self) if constraints is None else constraints
        out = {name: getattr(self, name) for name in _array_fields(Trace)}
        for name in _array_fields(diagnostics.ConstraintReport):
            out[name] = getattr(report, name)
        return out


def _trace_of(cols: dict, rows: int, cfg: ScenarioConfig) -> Trace:
    """The Trace of the first `rows` rows of cfg's columns, as views."""
    return Trace(
        **{name: col[:rows] for name, col in cols.items()},
        dt=cfg.dt,
        grid_n=cfg.grid_n,
        sr=cfg.sr,
    )


@dataclass
class SimulationResult:
    """A run's logs.  final_fields holds (theta, theta_hat) of the trace's
    last row, whose time and extent are trace.t[-1] and trace.s[-1].  trace
    is None when the run's log keeps no trace (``RunSummary``)."""

    trace: Trace | None
    checkpoints: dict
    completed: bool
    failure: str | None = None
    final_fields: np.ndarray | None = None


# transforms.csv's columns, in the order _log_checkpoints fills them
_CHECKPOINT_COLUMNS = (
    "t", "s", "X", "V1_tilde", "Vtot", "V", "wtilde_max", "utilde_sup",
    "rt_error_pair_abs", "what_sup", "rt_ctrl_abs", "what_boundary",
)


def _log_checkpoints(flushing, block: np.ndarray) -> None:
    """Log the pending checkpoints of the members in flushing, (j, member)
    pairs with j the member's place in the ring `block`: their entries of
    each member's checkpoint table and their V and Vtot columns.  A pending
    checkpoint is a row of the current block: the member's columns hold its
    t and s, the ring its (theta, theta_hat).  The Bessel error pair runs
    one checkpoint at a time, the rest in one stacked pass, each row with
    its own member's constants, so its bits are those of its member alone."""
    flushing = [(j, m) for j, m in flushing if m.pending]
    if not flushing:
        return
    # (the member's place in the ring, the row's place in the blocks, member)
    pending = [(j, i % _BLOCK_ROWS, m) for j, m in flushing for i in m.pending]
    at = np.array([k for _, k, _ in pending])
    pairs = block[at, :, np.array([j for j, _, _ in pending])]
    theta, theta_hat = pairs[:, 0], pairs[:, 1]
    u_err = theta - theta_hat
    t, y = (np.array([m.cols[name][k] for _, k, m in pending]) for name in ("t", "s"))
    c, sr, alpha, beta, lam, p_const, a, d = np.array([m.row_constants for *_, m in pending]).T
    # inverse then direct per checkpoint: _ratio_rows keeps one extent's rows
    w_err, rt_err = np.empty_like(u_err), np.empty_like(u_err)
    for r, args in enumerate(zip(y.tolist(), lam.tolist(), alpha.tolist())):
        w_err[r] = transforms.apply_inverse(u_err[r], *args)
        rt_err[r] = transforms.apply_direct(w_err[r], *args) - u_err[r]
    X = y - sr
    w_hat = transforms.controller_transform(theta_hat, X, y, c, alpha, beta)
    rt_ctrl = transforms.controller_inverse(w_hat, X, y, c, alpha, beta) - theta_hat
    v1, vtot, V = diagnostics._lyapunov_rows(w_err, w_hat, y, X, p_const, a, d)
    sups = np.abs(np.array((u_err, rt_err, w_hat, rt_ctrl))).max(axis=-1)
    table = np.array((t, y, X, v1, vtot, V, w_err.max(axis=-1), *sups, np.abs(w_hat[:, -1])))
    start = 0
    for _, m in flushing:
        mine = slice(start, start + len(m.pending))
        logged = slice(m.checkpoints_logged, m.checkpoints_logged + len(m.pending))
        m.checkpoints[:, logged] = table[:, mine]
        m.cols["Vtot"][at[mine]], m.cols["V"][at[mine]] = vtot[mine], V[mine]
        m.checkpoints_logged = logged.stop
        m.pending.clear()
        start = mine.stop


def _log_block(cols: dict, block: np.ndarray, cfg: ScenarioConfig, p: PhysicalParams):
    """Fill the per-step diagnostic columns of a block's first rows from
    their buffered (theta, theta_hat) pairs; cols["s"] already holds the
    extents.  A value that overflows is logged as inf, as in h1_norm_sq."""
    rows = slice(0, block.shape[0])
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


class _TraceLog:
    """The default log of a batch member: every block of rows it is given,
    copied into full-length columns.  ``trace()`` is the Trace of the rows
    given so far.  Raises ConfigurationError if the columns cannot be
    allocated."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        names = _array_fields(Trace)
        try:
            self.cols = {name: np.empty(cfg.rows) for name in names}
        except MemoryError:
            raise _unallocatable("trace", len(names), cfg.rows) from None
        self.rows = 0

    def write(self, block: Trace) -> None:
        rows = slice(self.rows, self.rows + block.t.size)
        for name, col in self.cols.items():
            col[rows] = getattr(block, name)
        self.rows = rows.stop

    def trace(self) -> Trace:
        return _trace_of(self.cols, self.rows, self.cfg)


@dataclass(slots=True)
class _Member:
    """One scenario of a lockstep batch: its log, its block of columns, its
    sequential state and the constants its per-step scalar work reads."""

    index: int
    cfg: ScenarioConfig
    p: PhysicalParams
    log: object
    cols: dict
    checkpoints: np.ndarray
    # c, sr, alpha, beta, lam and the ``lyapunov_constants`` p_const, a and
    # d: what a row of _log_checkpoints takes of its member
    row_constants: tuple
    s: float
    last_row: int
    feedback_row: int
    domain_cap: float
    alpha_dt: float
    rate_cap: float
    k: float
    beta: float
    lam: float
    lam_alpha: float
    s_prev: float | None = None
    flushed: int = 0  # rows handed to the log
    checkpoints_logged: int = 0
    # the rows of the current block's checkpoints not yet logged by
    # _log_checkpoints
    pending: list = field(default_factory=list)

    def result(self, rows: int, block: np.ndarray, failure) -> SimulationResult:
        """The run's result after `rows` logged rows, all flushed; block
        holds the member's buffered rows, the newest its final (theta,
        theta_hat)."""
        # row 0 is always a checkpoint; a run whose first checkpoint fails has none
        logged = self.checkpoints[:, : self.checkpoints_logged]
        return SimulationResult(
            trace=self.log.trace(),
            checkpoints=dict(zip(_CHECKPOINT_COLUMNS, logged)) if logged.size else {},
            completed=failure is None,
            failure=failure,
            final_fields=block[(rows - 1) % _BLOCK_ROWS].copy(),
        )


def _flush(flushing, block: np.ndarray, quiet) -> None:
    """Hand each member's rows not yet flushed to its log, complete:
    flushing holds (j, member, rows logged) with j the member's place in
    the ring `block`.  Within the run's `quiet` stretch, each member's
    per-step columns, then one stacked pass over every member's pending
    checkpoints; it leaves the stretch before each member's rows go to its
    log, and the blocks' Lyapunov columns are then cleared for the next."""
    for j, m, rows in flushing:
        _log_block(m.cols, block[: rows - m.flushed, :, j], m.cfg, m.p)
    _log_checkpoints([(j, m) for j, m, _ in flushing], block)
    quiet.leave()
    for _, m, rows in flushing:
        m.log.write(_trace_of(m.cols, rows - m.flushed, m.cfg))
        m.flushed = rows
        m.cols["V"].fill(np.nan)
        m.cols["Vtot"].fill(np.nan)


def initial_fields(cfg: ScenarioConfig) -> np.ndarray:
    """The initial (theta, theta_hat) on the grid_n-interval grid: the linear
    profiles H*(s0 - x) and Hhat*(s0 - x), zero at the interface."""
    xi = np.linspace(0.0, 1.0, cfg.grid_n + 1)
    rows = np.array([cfg.H * cfg.s0 * (1.0 - xi), cfg.Hhat * cfg.s0 * (1.0 - xi)])
    rows[:, -1] = 0.0
    return rows


def convection_rate(
    s: float, s_prev: float | None, edge_flux: float, dt: float, beta: float
) -> float:
    """The interface rate entering the convection term of plant and observer:
    the backward difference (s - s_prev)/dt, or on the first step
    -beta*u_x(s) from the plant field's edge flux d(theta)/d(xi) at xi = 1."""
    if s_prev is None:
        return -beta * (edge_flux / s)
    return (s - s_prev) / dt


def advance_interface(
    s: float,
    edge_flux: float,
    t_new: float,
    dt: float,
    beta: float,
    domain_cap: float | None = None,
) -> float:
    """Stefan update s+ = s + dt * (-beta) * u_x(s), where u_x(s) is the new
    field's edge flux d(theta)/d(xi) at xi = 1 divided by the old extent s.

    Raises BlowUpError if the interface collapses or reaches 95% of the
    domain cap; t_new only labels the message.
    """
    s_new = s + dt * (-beta * (edge_flux / s))
    if s_new <= 0.0:
        raise BlowUpError(f"interface collapsed: s = {s_new:.6g} at t = {t_new:.6g}")
    if domain_cap is not None and s_new >= 0.95 * domain_cap:
        raise BlowUpError(
            f"interface reached the domain cap: s = {s_new:.6g} at t = {t_new:.6g}"
        )
    return s_new


def _checkpoint_slots(cfg: ScenarioConfig) -> int:
    """Entries of a member's checkpoint table: at most rows 0, every, 2
    every, ... and the last."""
    return (cfg.rows - 1) // cfg.checkpoint_every + 2


def _held_bytes(cfg: ScenarioConfig) -> int:
    """Bytes a member of the CLI's batch holds: the full-length columns of
    its ``RunSummary``, its checkpoint table, its block of columns and its
    buffer of _BLOCK_ROWS field pairs."""
    fields_held = _BLOCK_ROWS * 2 * (cfg.grid_n + 1)
    columns = cfg.rows * diagnostics.RunSummary.COLUMNS + _BLOCK_ROWS * len(_array_fields(Trace))
    table = len(_CHECKPOINT_COLUMNS) * _checkpoint_slots(cfg)
    return 8 * (columns + table + fields_held)


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


class _Quiet:
    """np.errstate(over="ignore", invalid="ignore") held over the engine's
    work: ``enter`` starts a stretch unless one is open, ``leave`` ends the
    open one.  Both run within one resumption of a generator, which leaves
    before caller code runs: a log's ``write`` or ``trace``, or a yield."""

    __slots__ = ("state",)

    def __init__(self):
        self.state = None

    def enter(self) -> None:
        if self.state is None:
            self.state = np.errstate(over="ignore", invalid="ignore")
            self.state.__enter__()

    def leave(self) -> None:
        if self.state is not None:
            self.state.__exit__(None, None, None)
            self.state = None


def simulate_batch(scenarios, logs=None):
    """Run (cfg, p) scenarios that share grid_n and dt in lockstep.

    Yields (index into scenarios, SimulationResult) as each member leaves
    the batch: when it completes, or when it fails (completed=False with the
    failure message and the truncated trace, as from ``simulate``).  Every
    member leaves from one place in step i: after the Stefan update of step
    i - 1, with i rows, if that step's solve or interface update failed;
    after logging row i if row i is its last or its I1 series' term count
    fails there.  Members that leave in the same step are yielded in the
    order of scenarios, once the step's flush has handed every member's rows
    to its log and the batch has dropped them (the last, its ring too).
    Members may differ in all but grid_n and dt: the material, the gains,
    the setpoint, the checkpoint stride and the horizon.  Each member's
    result is bit-identical to its own ``simulate`` run.  Raises
    ConfigurationError, before the first step, if a member's trace or
    checkpoint table or the buffers of the batch's grid cannot be
    allocated.

    logs[j], if logs is given, takes scenario j's rows instead of a
    full-length Trace: its ``write(block)`` gets each block of completed
    rows in order, as a Trace of views into buffers that the next block
    reuses, and its ``trace()``, called when the member leaves, gives the
    result's trace (None from a log that keeps none, as ``RunSummary``).
    A step's flush writes to the logs of all the members it takes before
    any of them is yielded.  The logs and the consumer run under the
    caller's numpy error state; the batch's own work runs under its own.
    """
    scenarios = list(scenarios)
    grids = {(cfg.grid_n, cfg.dt) for cfg, _ in scenarios}
    if len(grids) != 1:
        raise ValueError(f"lockstep members must share one (grid_n, dt), got {sorted(grids)}")
    ((n, dt),) = grids
    dxi = 1.0 / n
    members = []
    for j, (cfg, p) in enumerate(scenarios):
        log = _TraceLog(cfg) if logs is None else logs[j]
        shape = len(_CHECKPOINT_COLUMNS), _checkpoint_slots(cfg)
        try:
            checkpoints = np.empty(shape)
        except MemoryError:
            raise _unallocatable("checkpoint table", *shape) from None
        cols = {name: np.full(_BLOCK_ROWS, np.nan) for name in _array_fields(Trace)}
        p_const, a, _, d = diagnostics.lyapunov_constants(cfg, p)
        members.append(
            _Member(
                index=j,
                cfg=cfg,
                p=p,
                log=log,
                cols=cols,
                checkpoints=checkpoints,
                row_constants=(cfg.c, cfg.sr, p.alpha, p.beta, cfg.lam, p_const, a, d),
                s=cfg.s0,
                last_row=cfg.rows - 1,
                feedback_row=0 if cfg.mode == "state_feedback" else 1,
                domain_cap=cfg.domain_cap if cfg.domain_cap is not None else 2.0 * cfg.sr,
                alpha_dt=p.alpha * dt,
                rate_cap=stable_rate_cap(p.alpha, dt),
                k=p.k,
                beta=p.beta,
                lam=cfg.lam,
                lam_alpha=cfg.lam / p.alpha,
            )
        )

    # all the grid's buffers before the first step: the ring the fields step
    # in, row i % _BLOCK_ROWS holding row i's (theta, theta_hat), the workspace
    # (block b is member b) and the Bessel state a gain's row-0 checkpoint reads
    try:
        block = np.empty((_BLOCK_ROWS, 2, len(members), n + 1))
        block[0] = np.stack([initial_fields(m.cfg) for m in members], axis=1)
        ws = Workspace(block, dt)
        if any(m.lam for m in members):
            transforms._bessel_grid(n)
    except MemoryError:
        msg = f"grid_n is too large: a batch's buffers on {n} grid intervals cannot be allocated"
        raise ConfigurationError(msg) from None
    quiet = _Quiet()
    failed = {}
    i = 0
    try:
        quiet.enter()
        ws.sample()
        while True:
            t = i * dt
            rows = i + 1
            at = i % _BLOCK_ROWS  # row i's place in the ring and the blocks of columns
            sums, corners, blocks = ws.sums, ws.corners, len(members)
            log_block = rows % _BLOCK_ROWS == 0

            # per member in Python floats: the Stefan update of step i - 1, the
            # feedback law on the trapezoid integral of control._trapz_integral,
            # the I1 series' argument and term count, whose cap a checkpoint's
            # kernel rows share, the rate, the step table row and the gain's
            # scale (0 at a zero gain); `leaving` maps a departing member to
            # its logged rows and its failure
            leaving, stepping, table, z2s, counts, scales = {}, [], [], [], [], []
            for j, m in enumerate(members):
                cfg, cols, fb = m.cfg, m.cols, m.feedback_row * blocks + j
                _, t3, t2, t1 = corners[j]
                edge = edge_stencil(t3, t2, t1, dxi)  # the plant's, on the field step i - 1 solved
                failure = failed.get(j)
                if i and failure is None:
                    try:
                        s_next = advance_interface(m.s, edge, t, dt, m.beta, m.domain_cap)
                    except BlowUpError as exc:
                        failure = str(exc)
                    else:
                        m.s_prev, m.s = m.s, s_next
                if failure is not None:
                    leaving[j] = i, failure
                    continue
                y = m.s  # measurement; the observer extent is rescaled to it
                integral = y * dxi * (0.5 * (corners[fb][0] + corners[fb][3]) + sums[fb])
                qc = control.feedback_law(integral, y, cfg, m.p)
                cols["t"][at] = t
                cols["s"][at] = y
                cols["qc"][at] = qc
                z2 = m.lam_alpha * y * y
                try:
                    count = specfun.gain_term_count(z2)
                except NumericalError as exc:
                    leaving[j] = rows, str(exc)
                    continue
                if i % cfg.checkpoint_every == 0 or i == m.last_row:
                    m.pending.append(i)
                if i == m.last_row:
                    leaving[j] = rows, None
                    continue
                rate = convection_rate(y, m.s_prev, edge, dt, m.beta)
                counts.append(count)
                z2s.append(z2)
                _, t3, t2, t1 = corners[blocks + j]
                innovation = rate / m.beta + edge_stencil(t3, t2, t1, dxi) / y
                scales.append(m.lam * y * innovation * dt)
                stepping.append(j)
                table += block_row(y, rate, qc, m.alpha_dt, m.rate_cap, m.k, dxi)

            # the step's one flush: the rows of every member that logged its
            # block's last row or leaves with rows not yet flushed
            if log_block or leaving:
                flushing = []
                for j, m in enumerate(members):
                    logged = leaving[j][0] if j in leaving else rows if log_block else 0
                    if logged > m.flushed:
                        flushing.append((j, m, logged))
                if flushing:
                    _flush(flushing, block, quiet)
            if leaving:
                quiet.leave()
                left = [
                    (members[j].index, members[j].result(logged, block[:, :, j], failure))
                    for j, (logged, failure) in leaving.items()
                ]
                # the batch goes on without them, or lets go of its ring and
                # workspace, before their outputs are written
                if not stepping:
                    block = ws = None
                    yield from left
                    return
                members = [members[j] for j in stepping]
                block = block.take(stepping, axis=2)  # C-contiguous, as the ring must be
                ws = Workspace(block, dt, ws.now)
                yield from left
            # back in the stretch that a flush or a departure left for caller code
            quiet.enter()
            specfun.gain_sources(z2s, scales, counts, n, ws.source)
            ws.entries[:] = table
            failed = ws.step()
            i += 1
    finally:
        quiet.leave()


def simulate(cfg: ScenarioConfig, p: PhysicalParams, log=None) -> SimulationResult:
    """Run the closed loop over the configured horizon: the lockstep batch
    of one, whose rows go to `log` if given (see ``simulate_batch``).

    Numerical failures do not raise: the result carries the truncated trace
    with completed=False and the failure message.  A trace or a grid that
    cannot be allocated raises ConfigurationError.
    """
    ((_, result),) = simulate_batch([(cfg, p)], None if log is None else [log])
    return result
