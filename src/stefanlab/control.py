"""Feedback law, energy bookkeeping and the control-signal ODE.

Both feedback modes share one law, ``feedback_law``,

    qc = -c*k*( (1/alpha) * integral of the temperature excess
                + (extent - sr)/beta ),

which the engine evaluates on the true state (state feedback) or on the
observer estimate over the measured extent (output feedback).  The integral
uses the composite trapezoid on the normalized grid, which is exact for the
linear initial profiles, so the two modes coincide bit for bit whenever the
estimate equals the true field.

qc obeys the control-signal ODE qc' = -c*qc + c*k*(1 + int_0^s P dx)*u_err_x(s),
whose c*k makes the error-flux term a heat-flux rate: with no estimation
error qc decays exponentially.  ``residual_rows`` is its residual on logged
rows, which ``diagnostics.RunSummary`` folds in block by block.
"""

import numpy as np

from .params import PhysicalParams, ScenarioConfig


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


def kernel_mass(s, lam: float, alpha: float):
    """int_0^s P(x, s) dx = cosh(sqrt(lam/alpha)*s) - 1, element-wise in s.

    The closed form follows from int_0^{pi/2} I1(z sin t) dt = (cosh z - 1)/z;
    it is written as 2*sinh^2(z/2), which keeps full relative accuracy where
    cosh z - 1 cancels.
    """
    return 2.0 * np.sinh(0.5 * np.sqrt(lam / alpha) * s) ** 2


def residual_rows(t, qc, s, uex, cfg: ScenarioConfig, p: PhysicalParams, out: np.ndarray):
    """Fill out with the control-signal ODE's residual on consecutive rows
    t, qc, s and uex (utilde_x_s), one entry fewer than the rows,
    out[i] = (qc[i+1] - qc[i])/(t[i+1] - t[i]) + c*qc[i]
             - c*k*(1 + int_0^s[i] P dx)*uex[i],
    element by element, so a trace cut into overlapping pieces gives the
    whole trace's bits.  Returns the minimum of qc' + c*qc over these rows,
    which out holds before the flux term is subtracted."""
    np.subtract(qc[1:], qc[:-1], out=out)
    out /= np.diff(t)
    out += cfg.c * qc[:-1]
    floor = out.min()
    mass = kernel_mass(s[:-1], cfg.lam, p.alpha)
    mass += 1.0
    mass *= cfg.c * p.k
    mass *= uex[:-1]
    out -= mass
    return floor
