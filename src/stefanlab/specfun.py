"""Series evaluation of the kernel special functions I1(z)/z and J1(z)/z.

The gain kernels only ever need the even ratio forms

    I1(sqrt(z2))/sqrt(z2)  and  J1(sqrt(z2))/sqrt(z2),

which are entire functions of the squared argument z2 with value 1/2 at
z2 = 0.  Working directly in z2 avoids square roots of small negatives
produced by rounding on the kernel diagonal.

Two evaluation paths are provided:

* scalar functions summing the ascending series in exact rational
  arithmetic (one final rounding, so accurate to the last bit even through
  the heavy cancellation of the J1 series at large argument), the test
  oracle for the rest;
* the term list of the I1 series at one argument (``i1_ratio_terms``),
  which the observer gain sums against a table of powers and the kernel
  grids sum by Horner in z2/max(z2), with alternating signs for J1.  Past
  ``_FLOAT_SERIES_CAP`` float64 cannot sum the alternating series, so the
  J1 grids come from scipy's j1(z)/z there.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import NumericalError

# The scalar evaluators refuse arguments beyond this; past it the exact J1
# sum stops too early (at z2 = 1e5 it returns 9.0e60 for 1.4e-4).
Z2_CAP = 1.0e4

# Up to here the float64 J1 sum loses about eps * I1(z)/z to cancellation,
# 4.7e-10 at the cap.
_FLOAT_SERIES_CAP = 400.0

# Most terms a kernel grid's series may take; (lam/alpha)*s^2 near 1.6e4
# takes about 120.
_MAX_TERMS = 400


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


def _grid_ratio(z2, sign: int) -> np.ndarray:
    """I1 (sign +1) or J1 (sign -1) ratio at every entry of z2."""
    z2 = np.asarray(z2, dtype=float)
    out = np.empty(z2.shape)
    if not z2.size:
        return out
    # fmin/fmax skip NaN, as element-wise comparisons do, so NaN entries
    # pass the range check and come out as NaN
    if np.fmin.reduce(z2, axis=None) < 0.0:
        raise ValueError("squared argument must be nonnegative")
    z2_max = float(np.fmax.reduce(z2, axis=None))
    if sign < 0 and z2_max > _FLOAT_SERIES_CAP:
        return _j1_ratio_scipy(z2, out)
    # below z2_max = 8e-17 the series has one term and never reads g, and
    # sign/z2_max may overflow
    g = z2 * (sign / z2_max) if z2_max >= 8 * _TERM_TOL else z2
    _ratio_array(g.reshape(-1), z2_max, out.reshape(-1))
    return out


def i1_ratio_array(z2) -> np.ndarray:
    """Vectorized I1(sqrt(z2))/sqrt(z2) for kernel grids."""
    return _grid_ratio(z2, +1)


def j1_ratio_array(z2) -> np.ndarray:
    """Vectorized J1(sqrt(z2))/sqrt(z2) for kernel grids."""
    return _grid_ratio(z2, -1)
