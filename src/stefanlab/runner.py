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

The loop keeps theta and theta_hat as the two rows of one array and does
only the sequential work per step: the feedback integral, the edge stencils,
the two convection rates, the injection gain and one two-column solve.  The
logged diagnostics depend on no later step, so they are computed for blocks
of buffered rows at a time.
"""

from dataclasses import dataclass, field, fields

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

    def columns(self) -> dict:
        """Column name -> array in CSV order: the logged arrays, then the
        constraint flags as 0/1."""
        report = diagnostics.monitor_constraints(self)
        out = {name: getattr(self, name) for name in _array_fields(Trace)}
        for name in _array_fields(diagnostics.ConstraintReport):
            out[name] = getattr(report, name).astype(int)
        return out


@dataclass
class SimulationResult:
    trace: Trace
    checkpoints: dict
    completed: bool
    failure: str | None = None
    final_plant: object = None
    final_observer: object = None
    constants: tuple = field(default=())


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
    cols["h1_u"][rows] = diagnostics.h1_norm_sq(theta, s, cfg.h1_l2_term)
    cols["h1_err"][rows] = diagnostics.h1_norm_sq(u_err, s, cfg.h1_l2_term)
    cols["energy"][rows] = control.field_energy(theta, s, p)
    cols["utilde_x_s"][rows] = flux[:, 0] / s - flux[:, 1] / s
    cols["theta_min"][rows] = theta.min(axis=-1)
    cols["utilde_max"][rows] = u_err.max(axis=-1)


def simulate(cfg: ScenarioConfig, p: PhysicalParams) -> SimulationResult:
    """Run the closed loop over the configured horizon.

    Numerical failures do not raise: the result carries the truncated trace
    with completed=False and the failure message.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    domain_cap = cfg.domain_cap if cfg.domain_cap is not None else 2.0 * cfg.sr
    dt, n = cfg.dt, cfg.grid_n
    dxi = 1.0 / n
    alpha, beta = p.alpha, p.beta
    feedback_row = 0 if cfg.mode == "state_feedback" else 1

    # rows 0 and 1: the plant's theta and the observer's theta_hat
    pair = np.stack([init_plant(cfg).theta, init_observer(cfg).theta_hat])
    s = cfg.s0
    s_prev = y_prev = v_prev = None
    t_state = 0.0

    n_rows = n_steps + 1
    cols = {name: np.empty(n_rows) for name in _array_fields(Trace)}
    cols["V"].fill(np.nan)
    cols["Vtot"].fill(np.nan)
    block = np.empty((_BLOCK_ROWS, 2, n + 1))
    checkpoint_rows = []

    completed = True
    failure = None
    rows = 0
    for i in range(n_rows):
        y = s  # measurement; the observer extent is rescaled to it
        t = i * dt
        qc = control.feedback_flux(pair[feedback_row], y, cfg, p)
        cols["t"][i] = t
        cols["s"][i] = y
        cols["qc"][i] = qc
        block[i % _BLOCK_ROWS] = pair
        rows = i + 1
        if rows % _BLOCK_ROWS == 0:
            _log_block(cols, rows - _BLOCK_ROWS, block, cfg, p)

        try:
            if i % cfg.checkpoint_every == 0 or i == n_rows - 1:
                row, sample = _checkpoint_row(pair[0], pair[1], y, t, cfg, p)
                checkpoint_rows.append(row)
                cols["V"][i] = sample.V
                cols["Vtot"][i] = sample.Vtot
            if i == n_rows - 1:
                break

            plant_tail, observer_tail = pair[:, -3:].tolist()
            rate = convection_rate(s, s_prev, edge_stencil(*plant_tail, dxi), dt, beta)
            v, source = observer_forcing(
                y, y_prev, v_prev, edge_stencil(*observer_tail, dxi) / y, dt, n, cfg, p
            )
            pair_next = advance_field(pair, s, (rate, v), qc, dt, alpha, p.k, source=source)
            edge = edge_stencil(*pair_next[0, -3:].tolist(), dxi)
            s_next = advance_interface(s, edge, t_state + dt, dt, beta, domain_cap)
        except (BlowUpError, NumericalError) as exc:
            completed = False
            failure = str(exc)
            break
        pair, s_prev, s = pair_next, s, s_next
        y_prev, v_prev = y, v
        t_state += dt

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
    names = checkpoint_rows[0] if checkpoint_rows else ()
    checkpoints = {name: np.array([r[name] for r in checkpoint_rows]) for name in names}
    return SimulationResult(
        trace=trace,
        checkpoints=checkpoints,
        completed=completed,
        failure=failure,
        final_plant=PlantState(t=t_state, s=s, theta=pair[0].copy(), s_prev=s_prev),
        final_observer=ObserverState(
            t=t_state, y_prev=y_prev, theta_hat=pair[1].copy(), v_prev=v_prev
        ),
        constants=diagnostics.lyapunov_constants(cfg, p),
    )
