"""Volterra transforms between physical fields and their stable target images.

All four maps are diagnostic-only: the closed loop never needs them, so they
operate on state snapshots.  Integrals are composite trapezoids over the
upper-triangular part of the normalized grid, matching the order of the
spatial scheme.

Error-field pair (gain kernels in Bessel functions):

    direct:   u(x) = w(x) + int_x^s P(x,y) w(y) dy,
              P(x,y) = (lam/alpha) * y * I1r((lam/alpha)(y^2-x^2))
    inverse:  w(x) = u(x) - int_x^s Q(x,y) u(y) dy,
              Q(x,y) = (lam/alpha) * y * J1r((lam/alpha)(y^2-x^2))

Controller pair (sine resolvent):

    forward:  w(x) = u(x) - (c/alpha) int_x^s (x-y) u(y) dy + (c/beta)(s-x) X
    inverse:  u(x) = w(x) + (beta/alpha) int_x^s psi(x-y) w(y) dy + psi(x-s) X
              psi(x) = (c/beta) sqrt(alpha/c) sin(sqrt(c/alpha) x)
"""

from functools import lru_cache

import numpy as np

from .specfun import bessel_i1_ratio, bessel_j1_ratio, i1_ratio_array, j1_ratio_array


def kernel_P(x: float, y: float, lam: float, alpha: float) -> float:
    """Direct-transform kernel; P(x, x) = lam*x/(2*alpha), P >= 0."""
    if x > y or x < 0.0:
        raise ValueError(f"kernel domain is 0 <= x <= y, got x={x}, y={y}")
    if lam == 0.0:
        return 0.0
    z2 = (lam / alpha) * (y * y - x * x)
    return (lam / alpha) * y * bessel_i1_ratio(max(z2, 0.0))


def kernel_Q(x: float, y: float, lam: float, alpha: float) -> float:
    """Inverse-transform kernel; Q(x, x) = lam*x/(2*alpha), Q <= P."""
    if x > y or x < 0.0:
        raise ValueError(f"kernel domain is 0 <= x <= y, got x={x}, y={y}")
    if lam == 0.0:
        return 0.0
    z2 = (lam / alpha) * (y * y - x * x)
    return (lam / alpha) * y * bessel_j1_ratio(max(z2, 0.0))


def psi_kernel(x, c: float, alpha: float, beta: float):
    """Resolvent kernel psi(x) = (c/beta)*sqrt(alpha/c)*sin(sqrt(c/alpha)*x)."""
    kappa = np.sqrt(c / alpha)
    return (c / beta) / kappa * np.sin(kappa * np.asarray(x, dtype=float))


@lru_cache(maxsize=8)
def _upper_weights(n: int) -> np.ndarray:
    """Trapezoid weights for int_{xi_i}^{1}: W[i, j] for j in [i, n]."""
    w = np.triu(np.ones((n + 1, n + 1)))
    idx = np.arange(n + 1)
    w[idx, idx] = 0.5
    w[:, n] = 0.5
    w[n, n] = 0.0  # empty interval at the last node
    return w / n


@lru_cache(maxsize=8)
def _geometry(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only xi-grid i/n with its kernel geometry.  The Bessel kernels
    depend on (i, j) only through max(j^2 - i^2, 0), so they get its distinct
    values over n^2 and the index that gathers them into the (n+1)^2 grid
    (11,436 values at n = 200); the controller pair gets xi_i - xi_j."""
    k = np.arange(n + 1)
    xi = k / n
    sq_int = k[np.newaxis, :] ** 2 - k[:, np.newaxis] ** 2
    np.maximum(sq_int, 0, out=sq_int)
    # searchsorted, not unique's return_inverse, whose sort temporaries
    # raise a checkpoint run's peak resident set by about 0.8 MB
    distinct = np.unique(sq_int)
    index = distinct.searchsorted(sq_int)
    sq_gaps = distinct / n**2
    gap = xi[:, np.newaxis] - xi[np.newaxis, :]
    for arr in (xi, sq_gaps, index, gap):
        arr.flags.writeable = False
    return xi, sq_gaps, index, gap


def _volterra_apply(kernel: np.ndarray, f: np.ndarray, s: float) -> np.ndarray:
    """Row-wise int_{x_i}^{s} kernel(x_i, y) f(y) dy on the xi-grid.

    Overwrites `kernel`, which every caller builds for this one use: at
    N = 200 each avoided (N+1)^2 temporary is a fresh 323 KB allocation
    and about 80 page faults.
    """
    n = f.size - 1
    kernel *= _upper_weights(n)
    kernel *= f[np.newaxis, :]
    return s * kernel.sum(axis=1)


def _bessel_kernel_matrix(s: float, lam: float, alpha: float, n: int, kind: str) -> np.ndarray:
    """P or Q on the xi-grid: the series once per distinct gap, gathered."""
    xi, sq_gaps, gap_index, _ = _geometry(n)
    # allocated before the series temporaries, so that these free above it
    # and the heap keeps its pages: at N = 200 a checkpoint row then maps
    # no fresh page, against 205 to 500 when the gather allocates last
    kernel = np.empty(gap_index.shape)
    z2 = (lam / alpha) * s * s * sq_gaps
    ratio = i1_ratio_array(z2) if kind == "P" else j1_ratio_array(z2)
    ratio.take(gap_index, out=kernel)
    kernel *= (lam / alpha) * s * xi[np.newaxis, :]
    return kernel


def apply_direct(w: np.ndarray, s: float, lam: float, alpha: float) -> np.ndarray:
    """u = w + int_x^s P(x,y) w(y) dy; identity when lam = 0."""
    w = np.asarray(w, dtype=float)
    if lam == 0.0:
        return w.copy()
    kp = _bessel_kernel_matrix(s, lam, alpha, w.size - 1, "P")
    return w + _volterra_apply(kp, w, s)


def apply_inverse(u: np.ndarray, s: float, lam: float, alpha: float) -> np.ndarray:
    """w = u - int_x^s Q(x,y) u(y) dy; identity when lam = 0."""
    u = np.asarray(u, dtype=float)
    if lam == 0.0:
        return u.copy()
    kq = _bessel_kernel_matrix(s, lam, alpha, u.size - 1, "Q")
    return u - _volterra_apply(kq, u, s)


def controller_transform(
    u: np.ndarray, X: float, s: float, c: float, alpha: float, beta: float
) -> np.ndarray:
    """w = u - (c/alpha) int_x^s (x-y) u(y) dy + (c/beta)(s-x) X.

    The boundary value w(s) vanishes exactly whenever u(s) = 0.
    """
    u = np.asarray(u, dtype=float)
    n = u.size - 1
    xi, _, _, gap = _geometry(n)
    diff = s * gap  # x - y
    out = u - (c / alpha) * _volterra_apply(diff, u, s)
    return out + (c / beta) * s * (1.0 - xi) * X


def controller_inverse(
    w: np.ndarray, X: float, s: float, c: float, alpha: float, beta: float
) -> np.ndarray:
    """u = w + (beta/alpha) int_x^s psi(x-y) w(y) dy + psi(x-s) X."""
    w = np.asarray(w, dtype=float)
    n = w.size - 1
    xi, _, _, gap = _geometry(n)
    kern = psi_kernel(s * gap, c, alpha, beta)
    out = w + (beta / alpha) * _volterra_apply(kern, w, s)
    return out + psi_kernel(s * (xi - 1.0), c, alpha, beta) * X
