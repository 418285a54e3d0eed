"""Series evaluation of the kernel special functions I1(z)/z and J1(z)/z.

The gain kernels only ever need the even ratio forms

    I1(sqrt(z2))/sqrt(z2)  and  J1(sqrt(z2))/sqrt(z2),

which are entire functions of the squared argument z2 with value 1/2 at
z2 = 0.  Working directly in z2 avoids square roots of small negatives
produced by rounding on the kernel diagonal.

The engine sums the term list of the I1 series at one argument
(``i1_ratio_terms``): the observer gain against a table of powers, and the
checkpoint kernel rows by Horner in z2/max(z2), with alternating signs for
J1.  Past ``_FLOAT_SERIES_CAP`` float64 cannot sum the alternating series,
so the J1 row comes from scipy's j1(z)/z there.  The reference evaluations
the tests hold these to, an exact rational series and element-wise arrays,
are in ``tests/oracles.py``.
"""

import math

import numpy as np

from .errors import NumericalError

# Up to here the float64 J1 sum loses about eps * I1(z)/z to cancellation,
# 4.7e-10 at the cap.
_FLOAT_SERIES_CAP = 400.0

# Most terms a kernel grid's series may take; (lam/alpha)*s^2 near 1.6e4
# takes about 120.
_MAX_TERMS = 400

# The term list stops at the first term below this fraction of its partial sum.
_TERM_TOL = 1e-17


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
            f"gain series at (lam/alpha)*y^2 = {z2:.6g} needs more than {max_terms} terms"
        )
    if not math.isfinite(total):
        raise NumericalError(f"gain series at (lam/alpha)*y^2 = {z2:.6g} is not finite")
    return terms


def _j1_ratio_scipy(z2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """scipy's j1(z)/z into `out`, for J1 arguments past _FLOAT_SERIES_CAP."""
    # imported here: scipy.special adds 3.6 MB resident, which runs that
    # never sum J1 past the cap should not pay
    from scipy.special import j1

    z = np.sqrt(z2)
    out.fill(0.5)
    return np.divide(j1(z), z, out=out, where=z > 0.0)


def _ratio_array(g: np.ndarray, z2_max: float, out: np.ndarray) -> np.ndarray:
    """Fill `out` with sum_m a_m * g^m, a_m the I1 terms at z2_max, by Horner.

    With g = z2/z2_max that is I1(sqrt(z2))/sqrt(z2), and with
    g = -z2/z2_max it is J1's.  `g` is one row, or the stack of an I1 row
    and a J1 row, shape (2, M), that gives both in one pass per term; past
    _FLOAT_SERIES_CAP, where float64 cannot sum the alternating series,
    the stack's J1 row is scipy's j1(z)/z at z = sqrt(-z2_max * g[1])
    instead.
    """
    series_g, series_out = g, out
    if g.ndim == 2 and z2_max > _FLOAT_SERIES_CAP:
        _j1_ratio_scipy(-z2_max * g[1], out[1])
        series_g, series_out = g[:1], out[:1]
    terms = i1_ratio_terms(z2_max, _MAX_TERMS)
    series_out.fill(terms[-1])
    for a in reversed(terms[:-1]):
        series_out *= series_g
        series_out += a
    return out
