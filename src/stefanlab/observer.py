"""Temperature-profile observer driven only by the measured interface position.

The observer is a copy of the plant model on [0, Y(t)] with an output
injection term through the gain

    P1(x, s) = -lam * s * I1(sqrt(r))/sqrt(r),   r = (lam/alpha)*(s^2 - x^2),

acting on the innovation Y'(t)/beta + u_hat_x(Y(t), t).  It shares the plant's
normalized grid; its physical extent is whatever the newest measurement says,
so assimilating a measurement costs nothing in closed loop.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._scheme import advance_field, one_sided_edge_flux
from .params import PhysicalParams, ScenarioConfig
from .specfun import _ratio_series_f64, bessel_i1_ratio


@dataclass(frozen=True)
class ObserverState:
    """t: time (s); y_prev: last assimilated measurement (None before the
    first step); theta_hat: u-estimate samples on the xi-grid; v_prev: last
    interface-velocity estimate (feeds the optional smoothing filter)."""

    t: float
    y_prev: float | None
    theta_hat: np.ndarray
    v_prev: float | None = None


def init_observer(cfg: ScenarioConfig) -> ObserverState:
    """Initial estimate: the linear profile Hhat*(s0 - x)."""
    xi = np.linspace(0.0, 1.0, cfg.grid_n + 1)
    theta_hat = cfg.Hhat * cfg.s0 * (1.0 - xi)
    theta_hat[-1] = 0.0
    return ObserverState(t=0.0, y_prev=None, theta_hat=theta_hat)


def observer_gain(x: float, s: float, lam: float, alpha: float) -> float:
    """Output-injection gain P1(x, s) <= 0; equals -lam*s/2 at x = s."""
    if not 0.0 <= x <= s:
        raise ValueError(f"gain requires 0 <= x <= s, got x={x}, s={s}")
    if lam == 0.0:
        return 0.0
    z2 = (lam / alpha) * (s * s - x * x)
    return -lam * s * bessel_i1_ratio(max(z2, 0.0))


@lru_cache(maxsize=8)
def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The observer's xi-grid i/n and its gain weight max(1 - xi^2, 0)."""
    xi = np.arange(n + 1) / n
    weight = np.maximum(1.0 - xi * xi, 0.0)
    xi.flags.writeable = False
    weight.flags.writeable = False
    return xi, weight


def gain_profile(y: float, lam: float, alpha: float, xi: np.ndarray) -> np.ndarray:
    """P1 sampled along the grid x = xi*y (vectorized float path)."""
    if lam == 0.0:
        return np.zeros_like(xi)
    grid, weight = _grid(xi.size - 1)
    if xi is not grid:
        weight = np.maximum(1.0 - xi * xi, 0.0)
    z2 = (lam / alpha) * y * y * weight
    # the checked wrapper is skipped, so nothing holds these arguments to
    # Z2_CAP: (lam/alpha)*y^2 reaches about 1.6e4 at admissible gains near
    # the bound, and above about 3.2e3 the truncation-order search of
    # _ratio_series_f64 raises OverflowError
    return -lam * y * _ratio_series_f64(z2, 1.0)


def estimate_interface_velocity(
    y_now: float,
    y_prev: float | None,
    dt: float,
    gamma: float = 0.0,
    v_prev: float | None = None,
    v_init: float | None = None,
) -> float:
    """Backward-difference estimate of Y'(t), optionally smoothed.

    With no previous measurement the caller supplies the model-consistent
    initial value ``v_init`` (e.g. -beta * u_hat_x(s0, 0)).  gamma = 0 returns
    the raw difference; 0 < gamma < 1 blends in the previous estimate as
    gamma*v_prev + (1-gamma)*raw.
    """
    if y_prev is None:
        if v_init is None:
            raise ValueError("no previous measurement: v_init is required")
        return v_init
    raw = (y_now - y_prev) / dt
    if gamma > 0.0 and v_prev is not None:
        return gamma * v_prev + (1.0 - gamma) * raw
    return raw


def estimate_flux(ob: ObserverState, y: float) -> float:
    """u_hat_x at the interface, one-sided stencil over extent y."""
    dxi = 1.0 / (ob.theta_hat.size - 1)
    return one_sided_edge_flux(ob.theta_hat, dxi) / y


def observer_forcing(
    y: float,
    y_prev: float | None,
    v_prev: float | None,
    flux_hat: float,
    dt: float,
    n: int,
    cfg: ScenarioConfig,
    p: PhysicalParams,
) -> tuple[float, np.ndarray | None]:
    """Convection rate and injection source of one observer step on the
    measured extent y, from the incoming estimate's u_hat_x(y) = flux_hat.

    The rate is the estimated Y' (the model-consistent -beta*flux_hat before
    the first measurement difference); the source is
    -P1(xi*y, y) * (Y'/beta + u_hat_x(y)) on the n-interval grid, or None
    for a zero gain.
    """
    beta = p.beta
    v = estimate_interface_velocity(
        y,
        y_prev,
        dt,
        gamma=cfg.smoothing,
        v_prev=v_prev,
        v_init=None if y_prev is not None else -beta * flux_hat,
    )
    if cfg.lam == 0.0:
        return v, None
    innovation = v / beta + flux_hat
    return v, gain_profile(y, cfg.lam, p.alpha, _grid(n)[0]) * -innovation


def step_observer(
    ob: ObserverState,
    y_now: float,
    qc: float,
    dt: float,
    cfg: ScenarioConfig,
    p: PhysicalParams,
) -> ObserverState:
    """Advance one step on the measured extent y_now.

    Same scheme as the plant (so a zero-gain observer started on the true
    profile is an exact copy), plus the explicit injection source
    -P1(xi*y, y) * (Y'/beta + u_hat_x(y)) evaluated on the incoming state.
    """
    if not y_now > 0.0:
        raise ValueError("measured interface position must be positive")
    n = ob.theta_hat.size - 1
    v, source = observer_forcing(
        y_now, ob.y_prev, ob.v_prev, estimate_flux(ob, y_now), dt, n, cfg, p
    )
    theta_new = advance_field(
        ob.theta_hat[np.newaxis], y_now, (v,), qc, dt, p.alpha, p.k, source=source, cfl_warn=False
    )[0]
    return ObserverState(t=ob.t + dt, y_prev=y_now, theta_hat=theta_new, v_prev=v)
