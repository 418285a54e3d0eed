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

from dataclasses import dataclass

import numpy as np

from .observer import ObserverState
from .params import PhysicalParams, ScenarioConfig
from .plant import PlantState
from .specfun import i1_ratio_array


@dataclass(frozen=True)
class ControlOutput:
    """qc: commanded heat flux (W/m^2); internal_energy: the conserved
    bookkeeping value (1/alpha)*int u dx + extent/beta at evaluation time."""

    qc: float
    internal_energy: float


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


def feedback_flux(theta: np.ndarray, extent: float, cfg: ScenarioConfig, p: PhysicalParams) -> float:
    """qc = -c*k*((1/alpha)*int_0^extent u dx + (extent - sr)/beta)."""
    integral = _trapz_integral(theta, extent)
    return -cfg.c * p.k * (integral / p.alpha + (extent - cfg.sr) / p.beta)


def _feedback(theta: np.ndarray, extent: float, cfg: ScenarioConfig, p: PhysicalParams) -> ControlOutput:
    return ControlOutput(
        qc=feedback_flux(theta, extent, cfg, p), internal_energy=field_energy(theta, extent, p)
    )


def state_feedback(st: PlantState, cfg: ScenarioConfig, p: PhysicalParams) -> ControlOutput:
    """Feedback on the true temperature profile and interface position."""
    return _feedback(st.theta, st.s, cfg, p)


def output_feedback(
    ob: ObserverState, y_now: float, cfg: ScenarioConfig, p: PhysicalParams
) -> ControlOutput:
    """Feedback on the estimated profile over the measured extent y_now."""
    return _feedback(ob.theta_hat, y_now, cfg, p)


def internal_energy(state, p: PhysicalParams, extent: float | None = None) -> float:
    """(1/alpha)*int_0^extent u dx + extent/beta for a plant or observer state.

    For an observer state the extent defaults to its last assimilated
    measurement; pass extent explicitly to override.
    """
    if extent is None:
        if isinstance(state, PlantState):
            extent = state.s
        elif isinstance(state, ObserverState):
            if state.y_prev is None:
                raise ValueError("observer has no assimilated extent yet; pass extent")
            extent = state.y_prev
        else:
            raise TypeError(f"unsupported state type {type(state)!r}")
    theta = state.theta if isinstance(state, PlantState) else state.theta_hat
    return field_energy(theta, extent, p)


def kernel_mass(s: float, lam: float, alpha: float, n_quad: int = 128) -> float:
    """int_0^s P(x, s) dx by trapezoid quadrature of the closed-form kernel."""
    if lam == 0.0:
        return 0.0
    xi = np.linspace(0.0, 1.0, n_quad + 1)
    z2 = (lam / alpha) * s * s * (1.0 - xi * xi)
    vals = (lam / alpha) * s * i1_ratio_array(z2)
    return s * np.trapezoid(vals, dx=1.0 / n_quad)


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
    dt = np.diff(t)
    mass = np.array([kernel_mass(si, cfg.lam, p.alpha) for si in s[:-1]])
    return np.diff(qc) / dt + cfg.c * qc[:-1] - cfg.c * p.k * (1.0 + mass) * uex[:-1]
