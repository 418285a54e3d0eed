"""Series evaluation of the kernel special functions I1(z)/z and J1(z)/z.

The gain kernels only ever need the even ratio forms

    I1(sqrt(z2))/sqrt(z2)  and  J1(sqrt(z2))/sqrt(z2),

which are entire functions of the squared argument z2 with value 1/2 at
z2 = 0.  Working directly in z2 avoids square roots of small negatives
produced by rounding on the kernel diagonal.

One closed form serves both callers: with a_m the I1 terms at the largest
argument z2_max and x = z2/z2_max in [0, 1], I1r = sum_m a_m x^m and
J1r = sum_m (-1)^m a_m x^m, a product of the terms with a cached
``PowerTable`` of x.  They form the terms by two rules.  The checkpoint
kernel rows (``kernel_rows``) take ``i1_ratio_terms``, which ends before
the first term below _TERM_TOL of its partial sum, and sum both rows at
once, per block of _BLOCK terms; past ``_FLOAT_SERIES_CAP`` the J1 row is
scipy's j1(z)/z.  The observer gain P1(x, s) = -lam*s*I1r at
z2 = (lam/alpha)*(s^2 - x^2) (``gain_sources``) forms its own terms, one
cumulative product of the term ratios z2/(4m(m+1)) for all of a step's
gains, and takes 31 + floor(sqrt(z2_max)) of them (``gain_term_count``)
against the cached powers of x = 1 - xi^2.  The reference evaluations the
tests hold these to are in ``tests/oracles.py``.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalError

# Up to here the float64 J1 sum loses about eps * I1(z)/z to cancellation,
# 4.7e-10 at the cap.
_FLOAT_SERIES_CAP = 400.0

# Most terms of the gain series, and so rows of a power table, a gain may
# take; (lam/alpha)*y^2 near 1.6e4 takes 157.
_GAIN_MAX_ROWS = 400

# Most terms a kernel grid's series may take; (lam/alpha)*s^2 near 1.6e4
# takes about 120.
_MAX_TERMS = 400

# The term list stops at the first term below this fraction of its partial sum.
_TERM_TOL = 1e-17

# Terms per block of a kernel row's series, and so, plus one, the most rows
# its power table holds: 2.3 MB at N = 200.  Up to z2 = 100 one block does.
_BLOCK = 24


def i1_ratio_terms(z2: float, max_terms: int) -> list[float]:
    """The terms a_m = c_m * z2^m of I1(sqrt(z2))/sqrt(z2) = sum_m a_m.

    They come from a_m = a_(m-1) * z2 / (4m(m+1)) in Python floats, so no
    power of z2 is ever formed, and end before the first term below
    _TERM_TOL of the partial sum.  Raises NumericalError when the sum is
    not finite or needs more than max_terms terms.
    """
    terms = [0.5]
    term = total = 0.5
    for m in range(1, max_terms):
        term = term * z2 / (4 * m * (m + 1))
        if term < _TERM_TOL * total:
            break
        terms.append(term)
        total += term
    else:
        raise NumericalError(
            f"checkpoint kernel series at (lam/alpha)*s^2 = {z2:.6g} "
            f"needs more than {max_terms} terms"
        )
    if not math.isfinite(total):
        raise NumericalError(
            f"checkpoint kernel series at (lam/alpha)*s^2 = {z2:.6g} is not finite"
        )
    return terms


class PowerTable:
    """Read-only powers x^0, x^1, ... of one row x (from the last row up if
    `descending`), filled on demand as power m-1 times x into `capacity`
    rows, made afresh for more: a buffer made once frees no large block."""

    def __init__(self, base: np.ndarray, capacity: int = 1, descending: bool = False):
        self.base, self.descending = base, descending
        self._reserve(capacity)

    def _reserve(self, capacity: int) -> None:
        buf = np.empty((capacity, self.base.size))
        self._powers = buf[::-1] if self.descending else buf
        self._powers[0] = 1.0
        self.filled = 1
        self.table = buf.view()
        self.table.flags.writeable = False

    def __call__(self, rows: int) -> np.ndarray:
        """x^0, ..., x^(rows-1), or, descending, x^(rows-1), ..., x^0."""
        if rows > self.filled:
            if rows > self.table.shape[0]:
                self._reserve(rows)
            for m in range(self.filled, rows):
                np.multiply(self._powers[m - 1], self.base, out=self._powers[m])
            self.filled = rows
        return self.table[-rows:] if self.descending else self.table[:rows]


def _j1_ratio_scipy(z2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """scipy's j1(z)/z into `out`, for J1 arguments past _FLOAT_SERIES_CAP."""
    # imported here: scipy.special loads about 300 modules and scipy's own
    # OpenBLAS, 24 MiB resident with scipy 1.17.1, which only runs with a
    # checkpoint past z2 = _FLOAT_SERIES_CAP pay
    from scipy.special import j1

    z = np.sqrt(z2)
    out.fill(0.5)
    return np.divide(j1(z), z, out=out, where=z > 0.0)


def kernel_rows(z2_max: float, powers: PowerTable, out: np.ndarray) -> np.ndarray:
    """Fill `out`, shape (2, M), with the I1 and J1 ratios at z2 = z2_max * x
    over the descending powers' row x in [0, 1]: a product of the I1 terms
    and their alternating-sign J1 twins with the table per block of _BLOCK
    terms, highest power first as in Horner's sum, and Horner in x^_BLOCK
    over the blocks.  Past _FLOAT_SERIES_CAP out[1] is scipy's j1(z)/z."""
    terms = i1_ratio_terms(z2_max, _MAX_TERMS)[::-1]
    count = len(terms)
    # column j holds the term of power count-1-j
    coef = np.array((terms, terms))
    coef[1, count % 2 :: 2] *= -1.0
    rows = out
    if z2_max > _FLOAT_SERIES_CAP:
        _j1_ratio_scipy(z2_max * powers.base, out[1])
        coef, rows = coef[:1], out[:1]
    table = powers(min(count, _BLOCK + 1))
    top = count - (count - 1) // _BLOCK * _BLOCK
    np.matmul(coef[:, :top], table[-top:], out=rows)
    for j in range(top, count, _BLOCK):
        rows *= table[0]
        rows += coef[:, j : j + _BLOCK] @ table[-_BLOCK:]
    return out


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
