"""Temperature-profile observer driven only by the measured interface position.

The observer is a copy of the plant model on [0, Y(t)] with an output
injection term through the gain

    P1(x, s) = -lam * s * I1(sqrt(r))/sqrt(r),   r = (lam/alpha)*(s^2 - x^2),

acting on the innovation Y'(t)/beta + u_hat_x(Y(t), t), Y' the measured rate.
It shares the plant's normalized grid; its extent is whatever the newest
measurement says, so assimilating a measurement costs nothing in closed loop.
Its gain is the I1 series' terms times a cached PowerTable of w = 1 - xi^2.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .specfun import PowerTable

# Most terms of the gain series, and so rows of a power table, a gain may
# take; (lam/alpha)*y^2 near 1.6e4 takes 157.
_GAIN_MAX_ROWS = 400


@lru_cache(maxsize=8)
def _weight_powers(n: int) -> PowerTable:
    """The power table of w = max(1 - xi^2, 0) on the n-interval grid."""
    xi = np.arange(n + 1) / n
    return PowerTable(np.maximum(1.0 - xi * xi, 0.0))


def gain_term_count(z2: float) -> int:
    """Terms the gain series takes at (lam/alpha)*y^2 = z2: 31 + floor(sqrt(z2)).
    Past term sqrt(z2) each term is below 1/4 of the last, so the rest sum to
    under 2e-18 of the series (under 1e158 within 400 terms).  Raises
    NumericalError past _GAIN_MAX_ROWS terms."""
    if not z2 < (_GAIN_MAX_ROWS - 30) ** 2 or _GAIN_MAX_ROWS <= 30:
        raise NumericalError(
            f"gain series at (lam/alpha)*y^2 = {z2:.6g} needs more than {_GAIN_MAX_ROWS} terms"
        )
    return 31 + int(math.sqrt(z2))


@lru_cache(maxsize=8)
def _denominators(terms: int) -> np.ndarray:
    """The term ratios' denominators 4m(m+1), m = 1, ..., terms - 1."""
    return 4.0 * np.arange(1.0, terms) * np.arange(2.0, terms + 1)


def gain_sources(z2: list, scales: list, counts: list, n: int, out: np.ndarray) -> None:
    """out[g] = scales[g] * sum_m a_m w^m on the n-interval grid, w = 1 - xi^2,
    a_m the first counts[g] terms of I1(sqrt(z))/sqrt(z) at z = z2[g]: one
    cumulative-product term table for the batch, then one matvec per gain of
    its own terms, so row g's bits depend on its own arguments only.  At
    z = 0 and scale 0 the row is zero."""
    table = np.empty((len(z2), max(counts)))
    table[:, 0] = [0.5 * scale for scale in scales]
    np.divide.outer(z2, _denominators(table.shape[1]), out=table[:, 1:])
    np.multiply.accumulate(table, axis=1, out=table)
    powers = _weight_powers(n)(table.shape[1])
    for g, count in enumerate(counts):
        np.dot(table[g, :count], powers[:count], out=out[g])
