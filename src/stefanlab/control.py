"""Feedback laws and energy bookkeeping.

Both laws share one formula,

    qc = -c*k*( (1/alpha) * integral of the temperature excess
                + (extent - sr)/beta ),

evaluated on the true state (state feedback) or on the observer estimate over
the measured extent (output feedback).  The integral uses the composite
trapezoid on the normalized grid, which is exact for the linear initial
profiles, so the two laws coincide bit for bit whenever the estimate equals
the true field.
"""

import numpy as np

from .observer import ObserverState
from .params import PhysicalParams, ScenarioConfig
from .plant import PlantState


def _trapz_integral(theta: np.ndarray, extent):
    """int_0^extent u dx = extent * trapz(u, dxi), along the last axis."""
    dxi = 1.0 / (theta.shape[-1] - 1)
    return extent * dxi * (
        0.5 * (theta[..., 0] + theta[..., -1]) + theta[..., 1:-1].sum(axis=-1)
    )


def field_energy(theta: np.ndarray, extent, p: PhysicalParams):
    """(1/alpha)*int_0^extent u dx + extent/beta along the last axis; extent
    may hold one value per field."""
    return _trapz_integral(theta, extent) / p.alpha + extent / p.beta


def feedback_law(integral: float, extent: float, cfg: ScenarioConfig, p: PhysicalParams) -> float:
    """qc = -c*k*((1/alpha)*integral + (extent - sr)/beta), where integral
    is int_0^extent u dx."""
    return -cfg.c * p.k * (integral / p.alpha + (extent - cfg.sr) / p.beta)


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


def kernel_mass(s, lam: float, alpha: float):
    """int_0^s P(x, s) dx = cosh(sqrt(lam/alpha)*s) - 1, element-wise in s.

    The closed form follows from int_0^{pi/2} I1(z sin t) dt = (cosh z - 1)/z;
    it is written as 2*sinh^2(z/2), which keeps full relative accuracy where
    cosh z - 1 cancels.
    """
    return 2.0 * np.sinh(0.5 * np.sqrt(lam / alpha) * s) ** 2


def qc_ode_residual(trace, cfg: ScenarioConfig, p: PhysicalParams) -> np.ndarray:
    """Residual of the control-signal ODE
    qc' = -c*qc + c*k*(1 + int_0^s P dx) * u_err_x(s, t)
    on a logged trace (duck-typed: needs t, qc, s, utilde_x_s arrays).

    The c*k factor makes the estimation-error flux term a heat-flux rate;
    a run with zero estimation error reduces to pure exponential decay of qc.

    residual[i] = (qc[i+1] - qc[i])/dt + c*qc[i]
                  - c*k*(1 + int P) * utilde_x_s[i],  length len(t) - 1.
    """
    t = np.asarray(trace.t, dtype=float)
    qc = np.asarray(trace.qc, dtype=float)
    s = np.asarray(trace.s, dtype=float)
    uex = np.asarray(trace.utilde_x_s, dtype=float)
    if t.size < 3:
        raise ValueError("trace too short: need at least 3 logged steps")
    mass = kernel_mass(s[:-1], cfg.lam, p.alpha)
    return np.diff(qc) / np.diff(t) + cfg.c * qc[:-1] - cfg.c * p.k * (1.0 + mass) * uex[:-1]
