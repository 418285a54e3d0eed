"""Series evaluation of the kernel special functions I1(z)/z and J1(z)/z.

The gain kernels only ever need the even ratio forms

    I1(sqrt(z2))/sqrt(z2)  and  J1(sqrt(z2))/sqrt(z2),

which are entire functions of the squared argument z2 with value 1/2 at
z2 = 0.  Working directly in z2 avoids square roots of small negatives
produced by rounding on the kernel diagonal.

Two evaluation paths are provided:

* scalar functions summing the ascending series in exact rational
  arithmetic (one final rounding, so accurate to the last bit even through
  the heavy cancellation of the J1 series at large argument);
* vectorized float64 evaluators for kernel matrices on grids, where the
  arguments stay small in any scenario admitted by the gain restriction.
"""

from fractions import Fraction

import numpy as np

# Arguments beyond this are refused: the series is the wrong tool there and
# no admissible scenario comes close ((lam/alpha)*sr^2 stays of order 10^2).
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


def _series_coefficients(n: int) -> np.ndarray:
    """c_m = 0.5 / (4^m m! (m+1)!), the expansion in powers of z2."""
    c = np.empty(n)
    c[0] = 0.5
    for m in range(1, n):
        c[m] = c[m - 1] / (4.0 * m * (m + 1))
    return c


_COEFF = _series_coefficients(90)
# the same coefficients as Python floats, for the scalar work of each call
_COEFF_LIST = _COEFF.tolist()


def _ratio_series_f64(z2: np.ndarray, sign: float) -> np.ndarray:
    """Horner evaluation with the truncation order picked from max(z2)."""
    zmax = float(z2.max()) if z2.size else 0.0
    base = max(zmax, 1.0)
    n_terms = 2
    while n_terms < len(_COEFF_LIST) and _COEFF_LIST[n_terms - 1] * base ** (n_terms - 1) > 1e-18:
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
    if np.any(z2 < 0.0):
        raise ValueError("squared argument must be nonnegative")
    if np.any(z2 > Z2_CAP):
        raise ValueError(f"squared argument exceeds the supported cap {Z2_CAP}")
    if np.any(z2 > _FLOAT_SERIES_CAP):
        # rare, slow, exact
        flat = z2.reshape(-1)
        vals = np.array([_ratio_series_exact(v, sign) for v in flat])
        return vals.reshape(z2.shape)
    return _ratio_series_f64(z2, float(sign))


def i1_ratio_array(z2) -> np.ndarray:
    """Vectorized I1(sqrt(z2))/sqrt(z2) for kernel grids."""
    return _ratio_array(z2, +1)


def j1_ratio_array(z2) -> np.ndarray:
    """Vectorized J1(sqrt(z2))/sqrt(z2) for kernel grids."""
    return _ratio_array(z2, -1)
