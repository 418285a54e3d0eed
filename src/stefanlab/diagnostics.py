"""Norms, Lyapunov functionals, constraint monitors, and decay-rate fits.

Everything here is pure post-processing on states or logged traces: the
evidence layer that turns a closed-loop run into pass/fail statements about
positivity of the heat input, monotonicity of the interface, sign and decay
of the estimation error, and decrease of the Lyapunov functionals.
"""

from dataclasses import dataclass

import numpy as np

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

    with squares as float products, inf past the float range (``**`` raises).
    """
    alpha, beta, sr = p.alpha, p.beta, cfg.sr
    p_const = cfg.c * alpha / (16.0 * beta * beta * sr)
    a = max(sr * sr, 16.0 * cfg.c * sr / alpha)
    b = min(alpha / (8.0 * sr * sr), cfg.c, 2.0 * cfg.lam)
    d = max(1.0, a * sr)
    return p_const, a, b, d


@dataclass(frozen=True)
class LyapunovSample:
    """Checkpoints of the Lyapunov diagnostics: floats for one snapshot,
    arrays with one entry per row for a stack.

    V1_tilde = 0.5*||w_err||_H1^2 for the transformed estimation error;
    Vtot     = 0.5*||w_hat||_H1^2 + (p/2)*X^2 + d*V1_tilde;
    V        = Vtot * exp(-a*s), or inf when Vtot is.
    """

    t: float | np.ndarray
    V1_tilde: float | np.ndarray
    Vtot: float | np.ndarray
    V: float | np.ndarray


def lyapunov_sample(
    w_err: np.ndarray,
    w_hat: np.ndarray,
    s: float | np.ndarray,
    t: float | np.ndarray,
    cfg: ScenarioConfig,
    p: PhysicalParams,
    constants: tuple | None = None,
) -> LyapunovSample:
    """Evaluate the functionals on one snapshot's transformed fields:
    w_err = apply_inverse(theta - theta_hat) and w_hat =
    controller_transform(theta_hat), both over the extent s, with the
    scenario's ``lyapunov_constants`` if given.  V is inf when Vtot is.

    (K, N+1) stacks of w_err and w_hat, with one s and one t per row, give
    one sample per row, each row's bits those of its own call.
    """
    p_const, a, _, d = lyapunov_constants(cfg, p) if constants is None else constants
    s = np.asarray(s, dtype=float)
    X = s - cfg.sr
    h1_err, h1_hat = h1_norm_sq(np.array((w_err, w_hat)), s)
    # as in Python floats: a product past the float range is inf, and inf
    # times a zero norm is NaN, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = 0.5 * h1_err
        vtot = 0.5 * h1_hat + 0.5 * p_const * X * X + d * v1
    # only where Vtot is below inf: inf * exp(-a*s) is NaN once exp underflows
    V = np.multiply(vtot, np.exp(-a * s), out=np.array(vtot), where=vtot != np.inf)
    if s.ndim == 0:
        return LyapunovSample(t=t, V1_tilde=float(v1), Vtot=float(vtot), V=float(V))
    return LyapunovSample(t=t, V1_tilde=v1, Vtot=vtot, V=V)


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


def fit_decay_rate(t, values) -> float:
    """Exponential decay rate fitted on the final half of a positive series.

    Least-squares slope of log(values) against t over the last half of the
    samples, negated, so e^{-3t} yields 3.0.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.size < 10:
        raise ValueError("need at least 10 samples to fit a rate")
    if np.any(values <= 0.0):
        raise ValueError("all samples must be strictly positive")
    half = t.size // 2
    return centred_decay_rate(t[half:] - t[half:].mean(), values[half:])


def centred_decay_rate(tc: np.ndarray, values: np.ndarray) -> float:
    """Minus the least-squares slope of log(values) against the centred
    times tc (the times less their mean), in closed form: one temporary the
    length of tc."""
    lv = np.log(values)
    lv -= lv.mean()
    return float(-(tc @ lv) / (tc @ tc))
