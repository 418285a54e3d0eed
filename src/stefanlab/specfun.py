"""Series evaluation of the kernel special functions I1(z)/z and J1(z)/z.

The gain kernels only ever need the even ratio forms

    I1(sqrt(z2))/sqrt(z2)  and  J1(sqrt(z2))/sqrt(z2),

which are entire functions of the squared argument z2 with value 1/2 at
z2 = 0.  Working directly in z2 avoids square roots of small negatives
produced by rounding on the kernel diagonal.

Three evaluation paths are provided:

* scalar functions summing the ascending series in exact rational
  arithmetic (one final rounding, so accurate to the last bit even through
  the heavy cancellation of the J1 series at large argument);
* vectorized float64 evaluators for kernel matrices on grids, with the
  exact path taken entry by entry above ``_FLOAT_SERIES_CAP``;
* the term list of the I1 series at one argument, which the observer gain
  sums against a table of powers (``i1_ratio_terms``).
"""

import math
from fractions import Fraction

import numpy as np

from .errors import NumericalError

# Arguments beyond this are refused by the checked evaluators.  Admissible
# scenarios do come close: (lam/alpha)*y^2 reaches about 1.6e4 for gains
# near the bound on the zinc domain, which only the term list below covers.
Z2_CAP = 1.0e4

# Where the float64 ascending series for J1 keeps ~8 significant digits;
# larger arguments fall back to the exact scalar path.
_FLOAT_SERIES_CAP = 400.0


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


# Horner keeps every term whose size at max(z2) exceeds this, and the first
# one that does not.
_HORNER_TOL = 1e-18


def _series_coefficients(z2_max: float) -> list[float]:
    """c_m = 0.5 / (4^m m! (m+1)!), the expansion in powers of z2, as Python
    floats: every coefficient the Horner form uses for z2 <= z2_max, and one
    more, so that its order search never runs off the table."""
    c = [0.5]
    while c[-1] * z2_max ** (len(c) - 1) > _HORNER_TOL:
        c.append(c[-1] / (4.0 * len(c) * (len(c) + 1)))
    c.append(c[-1] / (4.0 * len(c) * (len(c) + 1)))
    return c


_COEFF_LIST = _series_coefficients(_FLOAT_SERIES_CAP)

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


def _ratio_series_f64(z2: np.ndarray, sign: float) -> np.ndarray:
    """Horner evaluation with the truncation order picked from max(z2)."""
    zmax = float(z2.max()) if z2.size else 0.0
    base = max(zmax, 1.0)
    n_terms = 2
    while n_terms < len(_COEFF_LIST) and (
        _COEFF_LIST[n_terms - 1] * base ** (n_terms - 1) > _HORNER_TOL
    ):
        n_terms += 1
    # the first Horner step c_top * z2 + c_next, with c_top broadcast
    acc = z2 * (sign ** (n_terms - 1) * _COEFF_LIST[n_terms - 1])
    acc += sign ** (n_terms - 2) * _COEFF_LIST[n_terms - 2]
    for m in range(n_terms - 3, -1, -1):
        acc *= z2
        acc += sign**m * _COEFF_LIST[m]
    return acc


def _ratio_array(z2, sign: int) -> np.ndarray:
    z2 = np.asarray(z2, dtype=float)
    lo = hi = 0.0
    if z2.size:
        # fmin/fmax skip NaN, as element-wise comparisons do, so NaN entries
        # pass the range checks and come out of the float path as NaN
        lo, hi = np.fmin.reduce(z2, axis=None), np.fmax.reduce(z2, axis=None)
    if lo < 0.0:
        raise ValueError("squared argument must be nonnegative")
    if hi > Z2_CAP:
        raise ValueError(f"squared argument exceeds the supported cap {Z2_CAP}")
    if hi > _FLOAT_SERIES_CAP:
        # rare and slow: only the entries above the cap take the exact path
        exact = z2 > _FLOAT_SERIES_CAP
        vals = np.empty_like(z2)
        vals[~exact] = _ratio_series_f64(z2[~exact], float(sign))
        vals[exact] = [_ratio_series_exact(v, sign) for v in z2[exact].tolist()]
        return vals
    return _ratio_series_f64(z2, float(sign))


def i1_ratio_array(z2) -> np.ndarray:
    """Vectorized I1(sqrt(z2))/sqrt(z2) for kernel grids."""
    return _ratio_array(z2, +1)


def j1_ratio_array(z2) -> np.ndarray:
    """Vectorized J1(sqrt(z2))/sqrt(z2) for kernel grids."""
    return _ratio_array(z2, -1)
