"""Temperature-profile observer driven only by the measured interface position.

The observer is a copy of the plant model on [0, Y(t)] with an output
injection term through the gain

    P1(x, s) = -lam * s * I1(sqrt(r))/sqrt(r),   r = (lam/alpha)*(s^2 - x^2),

acting on the innovation Y'(t)/beta + u_hat_x(Y(t), t).  It shares the plant's
normalized grid; its physical extent is whatever the newest measurement says,
so assimilating a measurement costs nothing in closed loop.
"""

from dataclasses import dataclass

import numpy as np

from ._scheme import advance_field, one_sided_edge_flux
from .errors import NumericalError
from .params import PhysicalParams, ScenarioConfig
from .plant import convection_rate
from .specfun import bessel_i1_ratio, i1_ratio_terms


@dataclass(frozen=True)
class ObserverState:
    """t: time (s); y_prev: last assimilated measurement (None before the
    first step); theta_hat: u-estimate samples on the xi-grid."""

    t: float
    y_prev: float | None
    theta_hat: np.ndarray


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


# Most terms of the gain series, and so rows of a power table, a gain may
# need; (lam/alpha)*y^2 near 1.6e4 takes about 120.
_GAIN_MAX_ROWS = 400

# grid size n -> read-only W[m, j] = w_j^m with w_j = max(1 - xi_j^2, 0)
_weight_powers: dict[int, np.ndarray] = {}


def _powers(n: int, rows: int) -> np.ndarray:
    """The first `rows` rows of the power table of the n-interval grid; the
    cached table is rebuilt with more rows when a run needs them."""
    table = _weight_powers.get(n)
    if table is None or table.shape[0] < rows:
        xi = np.arange(n + 1) / n
        weight = np.maximum(1.0 - xi * xi, 0.0)
        table = np.empty((rows, n + 1))
        table[0] = 1.0
        for m in range(1, rows):
            np.multiply(table[m - 1], weight, out=table[m])
        table.flags.writeable = False
        _weight_powers[n] = table
    return table[:rows]


def gain_profile(y: float, lam: float, alpha: float, n: int) -> np.ndarray:
    """P1 sampled along the n-interval grid x = xi*y.

    With z = (lam/alpha)*y^2 and w = 1 - xi^2 the gain is
    -lam*y * sum_m a_m(z) * w^m, one matvec of the series terms against the
    cached powers of w.  Both factors stay finite wherever the sum does.
    """
    if lam == 0.0:
        return np.zeros(n + 1)
    terms = i1_ratio_terms((lam / alpha) * y * y, _GAIN_MAX_ROWS)
    gain = np.array(terms) @ _powers(n, len(terms))
    gain *= -lam * y
    return gain


def estimate_flux(ob: ObserverState, y: float) -> float:
    """u_hat_x at the interface, one-sided stencil over extent y."""
    dxi = 1.0 / (ob.theta_hat.size - 1)
    return one_sided_edge_flux(ob.theta_hat, dxi) / y


def observer_forcing(
    y: float,
    y_prev: float | None,
    edge_flux: float,
    dt: float,
    n: int,
    cfg: ScenarioConfig,
    p: PhysicalParams,
) -> tuple[float, np.ndarray | None]:
    """Convection rate and injection source of one observer step on the
    measured extent y, from the incoming estimate's edge flux
    d(theta_hat)/d(xi) at xi = 1.

    The rate is the plant's ``convection_rate`` on the measurements: the
    backward difference (y - y_prev)/dt, or on the first step the
    model-consistent -beta*u_hat_x(y).  The source is
    -P1(xi*y, y) * (Y'/beta + u_hat_x(y)) on the n-interval grid, or None
    for a zero gain.
    """
    beta = p.beta
    v = convection_rate(y, y_prev, edge_flux, dt, beta)
    if cfg.lam == 0.0:
        return v, None
    source = gain_profile(y, cfg.lam, p.alpha, n)
    source *= -(v / beta + edge_flux / y)
    return v, source


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
    edge_flux = one_sided_edge_flux(ob.theta_hat, 1.0 / n)
    v, source = observer_forcing(y_now, ob.y_prev, edge_flux, dt, n, cfg, p)
    stack, failed = advance_field(
        ob.theta_hat[np.newaxis, np.newaxis],
        (y_now,),
        ((v,),),
        (qc,),
        dt,
        (p.alpha,),
        (p.k,),
        source=None if source is None else source[np.newaxis],
    )
    if failed:
        raise NumericalError(failed[0])
    theta_new = stack[0, 0]
    return ObserverState(t=ob.t + dt, y_prev=y_now, theta_hat=theta_new)
