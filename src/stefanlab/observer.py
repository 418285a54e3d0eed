"""Temperature-profile observer driven only by the measured interface position.

The observer is a copy of the plant model on [0, Y(t)] with an output
injection term through the gain

    P1(x, s) = -lam * s * I1(sqrt(r))/sqrt(r),   r = (lam/alpha)*(s^2 - x^2),

acting on the innovation Y'(t)/beta + u_hat_x(Y(t), t), Y' the measured rate.
It shares the plant's normalized grid; its extent is whatever the newest
measurement says, so assimilating a measurement costs nothing in closed loop.
"""

from dataclasses import dataclass

import numpy as np

from .params import ScenarioConfig
from .specfun import i1_ratio_terms


@dataclass(frozen=True)
class ObserverState:
    """t: time (s); theta_hat: u-estimate samples on the xi-grid."""

    t: float
    theta_hat: np.ndarray


def init_observer(cfg: ScenarioConfig) -> ObserverState:
    """Initial estimate: the linear profile Hhat*(s0 - x)."""
    xi = np.linspace(0.0, 1.0, cfg.grid_n + 1)
    theta_hat = cfg.Hhat * cfg.s0 * (1.0 - xi)
    theta_hat[-1] = 0.0
    return ObserverState(t=0.0, theta_hat=theta_hat)


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


def injection_source(
    y: float,
    v: float,
    edge_flux: float,
    lam: float,
    alpha: float,
    beta: float,
    n: int,
) -> np.ndarray | None:
    """Output-injection source of one observer step on the measured extent y
    with the measured interface rate v, from the incoming estimate's edge
    flux d(theta_hat)/d(xi) at xi = 1: -P1(xi*y, y) * (v/beta + u_hat_x(y))
    on the n-interval grid, or None for a zero gain."""
    if lam == 0.0:
        return None
    source = gain_profile(y, lam, alpha, n)
    source *= -(v / beta + edge_flux / y)
    return source
