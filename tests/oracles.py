"""Reference implementations the tests compare the engine against.

Nothing in ``stefanlab`` calls these.  They are

* ``advance_field``, one ``Workspace.step`` of a stack of blocks in a new
  workspace, and on it the one-row plant and observer steps, their state
  records ``PlantState`` and ``ObserverState``, and the feedback laws on a
  state, built from the engine's own
  ``convection_rate``, ``advance_interface``, ``gain_sources`` and
  ``feedback_law``, so that a per-step loop of them reproduces
  ``runner.simulate`` bit for bit;
* the observer gain profile on the grid by the engine's ``gain_sources``,
  and the scalar observer gain and transform kernels P and Q;
* the ratio forms I1(sqrt(z2))/sqrt(z2) and J1(sqrt(z2))/sqrt(z2): summed in
  exact rational arithmetic (one final rounding, so accurate to the last bit
  even through the heavy cancellation of the J1 series at large argument),
  element-wise over an array in long double arithmetic, and in 50-digit
  mpmath arithmetic;
* the whole-trace evidence the package replaced with its block-by-block
  fold and its stacked checkpoint pass, each written with its own
  arithmetic: the qc-ODE residual by ``np.diff``, the decay-rate fit in
  closed form, the Lyapunov functionals of one snapshot in Python floats
  on two ``h1_norm_sq`` calls, and summary.txt formed from a whole trace,
  as the CLI formed it before it folded the statistics in block by block.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from stefanlab import diagnostics
from stefanlab._scheme import Workspace, block_row, one_sided_edge_flux, stable_rate_cap
from stefanlab.control import _trapz_integral, feedback_law, kernel_mass
from stefanlab.errors import NumericalError
from stefanlab.params import PhysicalParams, ScenarioConfig
from stefanlab.runner import advance_interface, convection_rate
from stefanlab.specfun import _FLOAT_SERIES_CAP, _j1_ratio_scipy, gain_sources, gain_term_count

# The scalar evaluators refuse arguments beyond this; past it the exact J1
# sum stops too early (at z2 = 1e5 it returns 9.0e60 for 1.4e-4).
Z2_CAP = 1.0e4


def _check_domain(z2: float) -> float:
    z2 = float(z2)
    if z2 < 0.0:
        raise ValueError(f"squared argument must be nonnegative, got {z2}")
    if z2 > Z2_CAP:
        raise ValueError(f"squared argument {z2} exceeds the supported cap {Z2_CAP}")
    return z2


def _ratio_series_exact(z2: float, sign: int) -> float:
    """Sum 0.5 * sum_m (sign*z2/4)^m / (m! (m+1)!) exactly, round once."""
    if z2 == 0.0:
        return 0.5
    q = Fraction(z2)
    term = Fraction(1, 2)
    total = term
    peak = term
    m = 0
    while True:
        m += 1
        term = term * sign * q / (4 * m * (m + 1))
        total += term
        peak = max(peak, abs(term))
        # stop once the tail is negligible against both the sum and the
        # largest partial term (the latter guards the alternating case near
        # zeros of J1, where the sum itself is tiny)
        if m > 5 and abs(term) * 10**40 < max(abs(total), peak * Fraction(1, 10**30)):
            return float(total)
        if m > 1000:
            raise RuntimeError("ratio series failed to converge")


def bessel_i1_ratio(z2: float) -> float:
    """I1(sqrt(z2))/sqrt(z2) for z2 >= 0; exactly 0.5 at z2 = 0."""
    return _ratio_series_exact(_check_domain(z2), +1)


def bessel_j1_ratio(z2: float) -> float:
    """J1(sqrt(z2))/sqrt(z2) for z2 >= 0; exactly 0.5 at z2 = 0."""
    return _ratio_series_exact(_check_domain(z2), -1)


def oracle_ratio(z2, sign, dps=50, min_terms=50):
    """High-precision ascending series, summed in mpmath arithmetic."""
    import mpmath as mp

    with mp.workdps(dps):
        z2 = mp.mpf(z2)
        term = mp.mpf(1) / 2
        total = term
        m = 0
        while m < min_terms or abs(term) > abs(total) * mp.mpf(10) ** (-dps):
            m += 1
            term = term * sign * z2 / (4 * m * (m + 1))
            total += term
            if m > 5000:
                raise RuntimeError("oracle did not converge")
        return float(total)


def _series_longdouble(z2: np.ndarray, sign: int) -> np.ndarray:
    """0.5 * sum_m (sign*z2/4)^m / (m! (m+1)!) at every entry of z2, all in
    np.longdouble (eps 1.1e-19 on x86-64): Horner in z2/max(z2), the
    terms at max(z2) from their recurrence until one is below 1e-21 of
    their sum."""
    z2 = z2.astype(np.longdouble)
    z2_max = np.fmax.reduce(z2, axis=None)
    terms = [np.longdouble(0.5)]
    total = terms[0]
    m = 0
    while terms[-1] >= 1e-21 * total:
        m += 1
        terms.append(terms[-1] * z2_max / (4 * m * (m + 1)))
        total += terms[-1]
        if m > 2000:
            raise RuntimeError("ratio series failed to converge")
    # in long double 1/max(z2) is finite for every positive double
    g = z2 * (sign / z2_max) if z2_max > 0.0 else z2
    out = np.full(z2.shape, terms[-1])
    for a in reversed(terms[:-1]):
        out *= g
        out += a
    return out


def _grid_ratio(z2, sign: int) -> np.ndarray:
    """I1 (sign +1) or J1 (sign -1) ratio at every entry of z2, a float or
    np.longdouble array, rounded once to float64 from the long double sum."""
    z2 = np.asarray(z2)
    if z2.dtype != np.longdouble:
        z2 = z2.astype(float)
    out = np.empty(z2.shape)
    if not z2.size:
        return out
    # fmin/fmax skip NaN, as element-wise comparisons do, so NaN entries
    # pass the range check and come out as NaN
    if np.fmin.reduce(z2, axis=None) < 0.0:
        raise ValueError("squared argument must be nonnegative")
    if sign < 0 and np.fmax.reduce(z2, axis=None) > _FLOAT_SERIES_CAP:
        return _j1_ratio_scipy(z2.astype(float), out)
    out[...] = _series_longdouble(z2, sign)
    return out


def i1_ratio_array(z2) -> np.ndarray:
    """Element-wise I1(sqrt(z2))/sqrt(z2) by the long double series."""
    return _grid_ratio(z2, +1)


def j1_ratio_array(z2) -> np.ndarray:
    """Element-wise J1(sqrt(z2))/sqrt(z2) by the long double series, or, as
    the engine, scipy's j1(z)/z once the largest entry is past the float
    series cap."""
    return _grid_ratio(z2, -1)


def kernel_P(x: float, y: float, lam: float, alpha: float) -> float:
    """Direct-transform kernel; P(x, x) = lam*x/(2*alpha), P >= 0."""
    if x > y or x < 0.0:
        raise ValueError(f"kernel domain is 0 <= x <= y, got x={x}, y={y}")
    if lam == 0.0:
        return 0.0
    z2 = (lam / alpha) * (y * y - x * x)
    return (lam / alpha) * y * bessel_i1_ratio(max(z2, 0.0))


def kernel_Q(x: float, y: float, lam: float, alpha: float) -> float:
    """Inverse-transform kernel; Q(x, x) = lam*x/(2*alpha), Q <= P."""
    if x > y or x < 0.0:
        raise ValueError(f"kernel domain is 0 <= x <= y, got x={x}, y={y}")
    if lam == 0.0:
        return 0.0
    z2 = (lam / alpha) * (y * y - x * x)
    return (lam / alpha) * y * bessel_j1_ratio(max(z2, 0.0))


def observer_gain(x: float, s: float, lam: float, alpha: float) -> float:
    """Output-injection gain P1(x, s) <= 0; equals -lam*s/2 at x = s."""
    if not 0.0 <= x <= s:
        raise ValueError(f"gain requires 0 <= x <= s, got x={x}, s={s}")
    if lam == 0.0:
        return 0.0
    z2 = (lam / alpha) * (s * s - x * x)
    return -lam * s * bessel_i1_ratio(max(z2, 0.0))


def gain_profile(y: float, lam: float, alpha: float, n: int) -> np.ndarray:
    """P1 sampled along the n-interval grid x = xi*y: with z = (lam/alpha)*y^2
    and w = 1 - xi^2, -lam*y * sum_m a_m(z) * w^m, by the engine's
    ``gain_sources``."""
    if lam == 0.0:
        return np.zeros(n + 1)
    out = np.empty((1, n + 1))
    z2 = (lam / alpha) * y * y
    gain_sources([z2], [-lam * y], [gain_term_count(z2)], n, out)
    return out[0]


def advance_field(rows, extent, rates, qc, dt, alpha, k, source=None) -> tuple[np.ndarray, dict]:
    """``Workspace.step`` of rows (m, B, N+1), rows[..., -1] == 0, in a new
    workspace: block b has extent (s or Y), rate, heat flux qc[b] (u_xi(0) =
    -(qc/k)*extent) and material alpha[b], k[b]; the optional (G, N+1)
    source times dt is that of the last field of the first G blocks, and
    the other blocks' is zero."""
    dxi = 1.0 / (rows.shape[-1] - 1)
    ring = np.empty((2, *rows.shape))
    ring[0] = rows
    ws = Workspace(ring, dt)
    for b in range(len(extent)):
        cap = stable_rate_cap(alpha[b], dt)
        ws.table[b] = block_row(extent[b], rates[b], qc[b], alpha[b] * dt, cap, k[b], dxi)
    ws.source[:] = 0.0
    if source is not None:
        ws.source[: len(source)] = source
    failed = ws.step()
    return ws.fields, failed


@dataclass(frozen=True)
class PlantState:
    """t: time (s); s: interface position (m); theta: u samples on the xi-grid.

    s_prev holds the interface position one step earlier, so the next step's
    explicit convection term can use the backward-difference rate
    (s - s_prev)/dt -- the rate the observer receives as its measured
    interface rate.  None marks the initial state, where the rate comes from
    the initial profile's interface flux instead.
    """

    t: float
    s: float
    theta: np.ndarray
    s_prev: float | None = None


@dataclass(frozen=True)
class ObserverState:
    """t: time (s); theta_hat: u-estimate samples on the xi-grid."""

    t: float
    theta_hat: np.ndarray


def interface_flux(st: PlantState) -> float:
    """u_x at x = s(t), one-sided second-order difference scaled by 1/s."""
    dxi = 1.0 / (st.theta.size - 1)
    return one_sided_edge_flux(st.theta, dxi) / st.s


def estimate_flux(ob: ObserverState, y: float) -> float:
    """u_hat_x at the interface, one-sided stencil over extent y."""
    dxi = 1.0 / (ob.theta_hat.size - 1)
    return one_sided_edge_flux(ob.theta_hat, dxi) / y


def feedback_flux(theta: np.ndarray, extent: float, cfg: ScenarioConfig, p: PhysicalParams) -> float:
    """qc = -c*k*((1/alpha)*int_0^extent u dx + (extent - sr)/beta)."""
    return feedback_law(_trapz_integral(theta, extent), extent, cfg, p)


def state_feedback(st: PlantState, cfg: ScenarioConfig, p: PhysicalParams) -> float:
    """Heat flux qc from the true temperature profile and interface position."""
    return feedback_flux(st.theta, st.s, cfg, p)


def output_feedback(
    ob: ObserverState, y_now: float, cfg: ScenarioConfig, p: PhysicalParams
) -> float:
    """Heat flux qc from the estimated profile over the measured extent y_now."""
    return feedback_flux(ob.theta_hat, y_now, cfg, p)


def step_plant(
    st: PlantState,
    qc: float,
    dt: float,
    p: PhysicalParams,
    domain_cap: float | None = None,
) -> PlantState:
    """Advance one step: implicit diffusion, explicit convection with the
    previous step's interface rate, then the Stefan update
    s+ = s + dt * (-beta) * u_x(s) with the flux evaluated on the new field.

    Assumes a fixed dt across steps (the backward-difference rate divides by
    the current dt).  Raises BlowUpError if the interface collapses or
    reaches 95% of the domain cap, NumericalError if the solve fails.
    """
    dxi = 1.0 / (st.theta.size - 1)
    rate = convection_rate(st.s, st.s_prev, one_sided_edge_flux(st.theta, dxi), dt, p.beta)
    stack, failed = advance_field(
        st.theta[np.newaxis, np.newaxis], (st.s,), (rate,), (qc,), dt, (p.alpha,), (p.k,)
    )
    if failed:
        raise NumericalError(failed[0])
    theta_new = stack[0, 0]
    t_new = st.t + dt
    s_new = advance_interface(
        st.s, one_sided_edge_flux(theta_new, dxi), t_new, dt, p.beta, domain_cap
    )
    return PlantState(t=t_new, s=s_new, theta=theta_new, s_prev=st.s)


def injection_source(
    y: float,
    v: float,
    edge_flux: float,
    lam: float,
    alpha: float,
    beta: float,
    n: int,
    dt: float,
) -> np.ndarray | None:
    """dt times the output-injection source of one observer step on the
    measured extent y and rate v, from the incoming estimate's edge flux
    d(theta_hat)/d(xi) at xi = 1: -dt * P1(xi*y, y) * (v/beta + u_hat_x(y))
    on the n-interval grid, or None for a zero gain."""
    if lam == 0.0:
        return None
    out = np.empty((1, n + 1))
    z2 = (lam / alpha) * y * y
    scale = lam * y * (v / beta + edge_flux / y) * dt
    gain_sources([z2], [scale], [gain_term_count(z2)], n, out)
    return out[0]


def step_observer(
    ob: ObserverState,
    y_now: float,
    v: float,
    qc: float,
    dt: float,
    cfg: ScenarioConfig,
    p: PhysicalParams,
) -> ObserverState:
    """Advance one step on the measured extent y_now and interface rate v.

    Same scheme as the plant (so a zero-gain observer started on the true
    profile and given the plant's rate is an exact copy), plus the explicit
    injection source -P1(xi*y, y) * (v/beta + u_hat_x(y)) evaluated on the
    incoming state.
    """
    if not y_now > 0.0:
        raise ValueError("measured interface position must be positive")
    n = ob.theta_hat.size - 1
    edge_flux = one_sided_edge_flux(ob.theta_hat, 1.0 / n)
    source = injection_source(y_now, v, edge_flux, cfg.lam, p.alpha, p.beta, n, dt)
    stack, failed = advance_field(
        ob.theta_hat[np.newaxis, np.newaxis],
        (y_now,),
        (v,),
        (qc,),
        dt,
        (p.alpha,),
        (p.k,),
        source=None if source is None else source[np.newaxis],
    )
    if failed:
        raise NumericalError(failed[0])
    return ObserverState(t=ob.t + dt, theta_hat=stack[0, 0])


def qc_ode_residual(trace, cfg: ScenarioConfig, p: PhysicalParams) -> np.ndarray:
    """Residual of the control-signal ODE
    qc' = -c*qc + c*k*(1 + int_0^s P dx) * u_err_x(s, t)
    on a logged trace (duck-typed: needs t, qc, s, utilde_x_s arrays),
    one entry fewer than the rows:

    residual[i] = (qc[i+1] - qc[i])/dt + c*qc[i]
                  - c*k*(1 + int P) * utilde_x_s[i].
    """
    t, qc, s, uex = (
        np.asarray(getattr(trace, name), dtype=float) for name in ("t", "qc", "s", "utilde_x_s")
    )
    if t.size < 3:
        raise ValueError("trace too short: need at least 3 logged steps")
    flux = ((kernel_mass(s[:-1], cfg.lam, p.alpha) + 1.0) * (cfg.c * p.k)) * uex[:-1]
    return (np.diff(qc) / np.diff(t) + cfg.c * qc[:-1]) - flux


def fit_decay_rate(t, values) -> float:
    """Exponential decay rate fitted on the final half of a positive series:
    minus the least-squares slope of log(values) against t over the last
    half of the samples, in closed form with the times and logarithms
    centred, so e^{-3t} yields 3.0."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.size < 10:
        raise ValueError("need at least 10 samples to fit a rate")
    if np.any(values <= 0.0):
        raise ValueError("all samples must be strictly positive")
    half = t.size // 2
    tc = t[half:] - t[half:].mean()
    lv = np.log(values[half:])
    lv = lv - lv.mean()
    return float(-(tc @ lv) / (tc @ tc))


@dataclass(frozen=True)
class LyapunovSample:
    """The Lyapunov diagnostics of one snapshot:

    V1_tilde = 0.5*||w_err||_H1^2 for the transformed estimation error;
    Vtot     = 0.5*||w_hat||_H1^2 + (p/2)*X^2 + d*V1_tilde;
    V        = Vtot * exp(-a*s), or inf when Vtot is.
    """

    t: float
    V1_tilde: float
    Vtot: float
    V: float


def lyapunov_sample(
    w_err: np.ndarray, w_hat: np.ndarray, s: float, t: float, cfg: ScenarioConfig, p: PhysicalParams
) -> LyapunovSample:
    """The functionals of one snapshot's transformed fields w_err =
    apply_inverse(theta - theta_hat) and w_hat =
    controller_transform(theta_hat) over the extent s, with the scenario's
    ``lyapunov_constants``, in Python floats: a product past the float
    range is inf, and inf times zero NaN."""
    p_const, a, _, d = diagnostics.lyapunov_constants(cfg, p)
    s = float(s)
    X = s - cfg.sr
    v1 = 0.5 * diagnostics.h1_norm_sq(w_err, s)
    vtot = 0.5 * diagnostics.h1_norm_sq(w_hat, s) + 0.5 * p_const * X * X + d * v1
    V = vtot if vtot == math.inf else vtot * float(np.exp(-a * s))
    return LyapunovSample(t=t, V1_tilde=v1, Vtot=vtot, V=V)


def whole_trace_summary(cfg: ScenarioConfig, p: PhysicalParams, report, result) -> str:
    """summary.txt of a result that holds its whole trace: the trace's
    ``monitor_constraints`` report, ``fit_decay_rate`` on its logged times,
    ``qc_ode_residual`` with ``np.median``, and qc' + c*qc by ``np.diff``."""
    tr = result.trace
    lines = ["scenario summary", "================", f"mode = {cfg.mode}"]
    lines.append(f"alpha = {p.alpha:.10g}  beta = {p.beta:.10g}")
    lines += ["", "restriction checks", report.format(), "", "run"]
    lines.append(f"completed = {result.completed}")
    if result.failure:
        lines.append(f"failure = {result.failure}")
    lines.append(f"steps logged = {tr.t.size}")
    lines.append(f"final t = {tr.t[-1]:.10g}  final s = {tr.s[-1]:.10g}  sr = {cfg.sr}")
    lines += ["", "constraint monitor", diagnostics.monitor_constraints(tr).format(), ""]
    p_const, a, b, d = diagnostics.lyapunov_constants(cfg, p)
    lines.append(f"lyapunov constants: p = {p_const:.6g}  a = {a:.6g}  b = {b:.6g}  d = {d:.6g}")
    if tr.t.size >= 20 and np.all(np.isfinite(tr.h1_err)) and np.all(tr.h1_err > 0.0):
        rate = fit_decay_rate(tr.t, tr.h1_err)
        lines.append(f"fitted H1 estimation-error decay rate = {rate:.6g}")
    if result.completed and tr.t.size >= 3:
        r = np.abs(qc_ode_residual(tr, cfg, p))
        worst = int(np.argmax(r))
        lines.append(
            f"qc ODE residual: max|r| = {r[worst]:.6g} at t = {tr.t[worst]:.6g}"
            f"  median|r| = {np.median(r):.6g}"
        )
        qdot_floor = np.diff(tr.qc) / np.diff(tr.t) + cfg.c * tr.qc[:-1]
        lines.append(f"min of qc' + c*qc over steps = {np.min(qdot_floor):.6g}")
    return "\n".join(lines) + "\n"
