"""Norms, Lyapunov functionals, constraint monitors and the run summary.

Everything here is pure post-processing on states or logged rows: the
evidence layer that turns a closed-loop run into pass/fail statements about
positivity of the heat input, monotonicity of the interface, sign and decay
of the estimation error, and decrease of the Lyapunov functionals.  Each
statistic has one path.  ``RunSummary`` folds a run's rows into the run
summary as they are logged, and a whole trace is the fold given one block.
The Lyapunov functionals of a stack of checkpoints take each row's own
setpoint error and constants (``_lyapunov_rows``), so that the engine forms
the checkpoints of scenarios with their own gains and materials in one
pass.  The whole-trace references the tests hold these to are in
``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import control
from .errors import _unallocatable
from .params import PhysicalParams, ScenarioConfig


def h1_norm_sq(f: np.ndarray, s):
    """Squared H1 norm over physical x in [0, s]:
    int f^2 dx + int f_x^2 dx (trapezoid; f_x by central differences with
    second-order one-sided edges).

    The norm is taken along the last axis: a 1-D field gives a float, a
    stack of fields (with s holding one extent per field) an array.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1] - 1
    dxi = 1.0 / n
    grad = np.empty_like(f)
    grad[..., 1:-1] = (f[..., 2:] - f[..., :-2]) * (0.5 * n)
    grad[..., 0] = (-1.5 * f[..., 0] + 2.0 * f[..., 1] - 0.5 * f[..., 2]) * n
    grad[..., -1] = (1.5 * f[..., -1] - 2.0 * f[..., -2] + 0.5 * f[..., -3]) * n
    # the squares of a finite field or slope past about 1e154 overflow: the
    # norm's honest value is then inf, which the trace logs, not clamped
    with np.errstate(over="ignore"):
        g2 = grad * grad
        out = (0.5 * (g2[..., 0] + g2[..., -1]) + g2[..., 1:-1].sum(axis=-1)) * dxi / s
        f2 = f * f
        out = out + s * (0.5 * (f2[..., 0] + f2[..., -1]) + f2[..., 1:-1].sum(axis=-1)) * dxi
    return float(out) if f.ndim == 1 else out


def lyapunov_constants(cfg: ScenarioConfig, p: PhysicalParams) -> tuple[float, float, float, float]:
    """(p_const, a, b, d) for the closed-loop functionals:

    p_const = c*alpha/(16*beta^2*sr)
    a       = max(sr^2, 16*c*sr/alpha)
    b       = min(alpha/(8*sr^2), c, 2*lam)
    d       = max(1, a*sr)   (any fixed positive weight works for monitoring)

    with squares as float products, inf past the float range (``**`` raises),
    and a quotient inf where its divisor underflows to 0.
    """
    alpha, beta, sr = p.alpha, p.beta, cfg.sr
    p_divisor, b_divisor = 16.0 * beta * beta * sr, 8.0 * sr * sr
    p_const = cfg.c * alpha / p_divisor if p_divisor else math.inf
    a = max(sr * sr, 16.0 * cfg.c * sr / alpha)
    b = min(alpha / b_divisor if b_divisor else math.inf, cfg.c, 2.0 * cfg.lam)
    d = max(1.0, a * sr)
    return p_const, a, b, d


def _lyapunov_rows(w_err, w_hat, s, X, p_const, a, d):
    """(V1_tilde, Vtot, V) = (0.5*||w_err||_H1^2, 0.5*||w_hat||_H1^2 +
    (p_const/2)*X^2 + d*V1_tilde, Vtot*exp(-a*s) or inf where Vtot is) of the
    transformed fields w_err = apply_inverse(theta - theta_hat) and w_hat =
    controller_transform(theta_hat) over the extents s, with the setpoint
    errors X = s - sr and the ``lyapunov_constants`` p_const, a and d: each
    of s, X and the constants a float, or one value per row of (K, N+1)
    stacks of w_err and w_hat, so that rows of scenarios with their own
    constants stack and each row's bits are those of its own call."""
    h1_err, h1_hat = h1_norm_sq(np.array((w_err, w_hat)), s)
    # as in Python floats: a product past the float range is inf, and inf
    # times a zero norm is NaN, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = 0.5 * h1_err
        vtot = 0.5 * h1_hat + 0.5 * p_const * X * X + d * v1
    # only where Vtot is below inf: inf * exp(-a*s) is NaN once exp underflows
    V = np.multiply(vtot, np.exp(-a * s), out=np.array(vtot), where=vtot != np.inf)
    return v1, vtot, V


@dataclass(frozen=True)
class ConstraintReport:
    """Per-step monitor flags plus the first violation time of each claim.

    epsilon is the grid tolerance 1/N^2 + dt, with no constant factor, used
    for the field-sign claims (nonnegativity of u, nonpositivity of the
    estimation error); the control-sign and interface claims are strict.
    Its units do not agree: it adds seconds to a dimensionless number and is
    read as kelvin (see ROADMAP item 5, "Tolerance units").
    """

    qc_positive: np.ndarray
    s_increasing: np.ndarray
    s_below_sr: np.ndarray
    u_nonnegative: np.ndarray
    error_nonpositive: np.ndarray
    first_violation: dict
    epsilon: float

    @property
    def passed(self) -> bool:
        return all(v is None for v in self.first_violation.values())

    def format(self) -> str:
        lines = [f"grid tolerance epsilon = {self.epsilon:.6g}"]
        for name, tfail in self.first_violation.items():
            if tfail is None:
                lines.append(f"{name}: PASS")
            else:
                lines.append(f"{name}: FAIL (first violation at t = {tfail:.6g})")
        return "\n".join(lines)


def monitor_constraints(trace, s_prev=None, before=None) -> ConstraintReport:
    """Evaluate the five physical-constraint flags on a logged trace.

    Duck-typed trace: needs t, s, qc, theta_min, utilde_max arrays plus dt
    and grid_n metadata.  theta_min[i] is the minimum temperature-excess
    sample at step i, utilde_max[i] the maximum estimation-error sample.

    A trace may also be given block by block: s_prev is then the extent of
    the row before the block, and `before` the report of the blocks before
    it.  The flags are the block's, and each first violation is before's if
    it has one, else the block's; so the last block's report holds the
    first violations of the whole trace, and its flags are bit-identical to
    the whole trace's rows.
    """
    t = np.asarray(trace.t, dtype=float)
    s = np.asarray(trace.s, dtype=float)
    qc = np.asarray(trace.qc, dtype=float)
    theta_min = np.asarray(trace.theta_min, dtype=float)
    utilde_max = np.asarray(trace.utilde_max, dtype=float)
    eps = (1.0 / trace.grid_n) ** 2 + trace.dt

    s_increasing = np.empty(t.size, dtype=bool)
    # the difference, as np.diff forms it within the block
    s_increasing[0] = True if s_prev is None else s[0] - s_prev > 0.0
    s_increasing[1:] = np.diff(s) > 0.0
    flags = {
        "qc_positive": qc > 0.0,
        "s_increasing": s_increasing,
        "s_below_sr": s < trace.sr,
        "u_nonnegative": theta_min >= -eps,
        "error_nonpositive": utilde_max <= eps,
    }
    first = {}
    for name, ok in flags.items():
        if before is not None and before.first_violation[name] is not None:
            first[name] = before.first_violation[name]
            continue
        bad = np.nonzero(~ok)[0]
        first[name] = None if bad.size == 0 else float(t[bad[0]])
    return ConstraintReport(**flags, first_violation=first, epsilon=eps)


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


class RunSummary:
    """The statistics a run's summary reports, folded in as its rows are
    given, block by block in order (``write(block)``, a ``Trace`` of any
    number of rows), so that no block is kept: the row count; the last
    row's t, qc, s and utilde_x_s (`last`); the ``monitor_constraints``
    report of the rows so far (`constraints`); the h1_err column; the
    column of the qc-ODE residual (``control.residual_rows``), each block's
    rows with the last row before it; and the minimum of qc' + c*qc
    (`qdot_floor`).  A whole trace is the fold given one block.  It holds
    COLUMNS full-length columns and no trace: ``simulate(cfg, p,
    log=RunSummary(cfg, p)).trace`` is None.  Raises ConfigurationError if
    the columns cannot be allocated."""

    COLUMNS = 2  # h1_err and the qc-ODE residual

    def __init__(self, cfg: ScenarioConfig, p: PhysicalParams):
        self.cfg, self.p = cfg, p
        try:
            self.h1_err = np.empty(cfg.rows)
            self.residual = np.empty(cfg.rows)
        except MemoryError:
            raise _unallocatable("trace", self.COLUMNS, cfg.rows) from None
        self.rows = 0
        self.last = None
        self.constraints = None
        self.qdot_floor = np.inf
        self._residual_line = None  # formed by the first ``format``

    def write(self, block) -> None:
        s_prev = None if self.last is None else self.last[2]
        self.constraints = monitor_constraints(block, s_prev, self.constraints)
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
        """Minus the least-squares slope of log(h1_err) over its last half
        against the times ``simulate_batch`` logs, i * dt, centred; None for
        fewer than 20 rows or a norm that is not finite and positive (a
        diverged run logs inf)."""
        h1_err = self.h1_err[: self.rows]
        # min and max see NaN and inf without a whole-trace temporary
        if self.rows < 20 or not (h1_err.min() > 0.0 and h1_err.max() < np.inf):
            return None
        half = self.rows // 2
        tc = np.arange(half, self.rows, dtype=float)
        tc *= self.cfg.dt
        tc -= tc.mean()
        lv = np.log(h1_err[half:])
        lv -= lv.mean()
        return float(-(tc @ lv) / (tc @ tc))

    def trace(self) -> None:
        return None

    def format(self, completed: bool) -> str:
        """The summary's statistics of one row or more: the constraint
        monitor, the Lyapunov constants, the fitted decay rate and, for a
        completed run of 3 rows or more, the qc-ODE residual and the minimum
        of qc' + c*qc.  The first call that reports the residual reorders
        its column in place, with no copy of it, and keeps the residual's
        line, which later calls repeat: call it after the last block."""
        lines = ["constraint monitor", self.constraints.format(), ""]
        p_const, a, b, d = lyapunov_constants(self.cfg, self.p)
        lines.append(f"lyapunov constants: p = {p_const:.6g}  a = {a:.6g}  b = {b:.6g}  d = {d:.6g}")
        rate = self.decay_rate()
        if rate is not None:
            lines.append(f"fitted H1 estimation-error decay rate = {rate:.6g}")
        if completed and self.rows >= 3:
            if self._residual_line is None:
                r = self.residual[: self.rows - 1]
                np.abs(r, out=r)
                worst = int(np.argmax(r))
                self._residual_line = (
                    f"qc ODE residual: max|r| = {r[worst]:.6g} at t = {worst * self.cfg.dt:.6g}"
                    f"  median|r| = {_median_in_place(r):.6g}"
                )
            lines.append(self._residual_line)
            lines.append(f"min of qc' + c*qc over steps = {self.qdot_floor:.6g}")
        return "\n".join(lines)
