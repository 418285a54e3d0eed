"""Volterra transforms between physical fields and their stable target images.

All four maps are diagnostic-only: the closed loop never needs them, so they
operate on state snapshots.  Integrals are composite trapezoids on the nodes
of the normalized grid, matching the order of the spatial scheme.  The
Bessel kernels are applied as upper-triangular (N+1)^2 matrices.  The
controller kernels are separable (x - y has rank 2, and
sin k(x-y) = sin kx cos ky - cos kx sin ky), so both controller integrals are
built in O(N) from reverse cumulative trapezoids T_i[g] = int_{xi_i}^1 g,
with T_N = 0 exactly.

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
def _geometry(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only xi-grid i/n with the Bessel kernel geometry.  The kernels
    depend on (i, j) only through max(j^2 - i^2, 0), so they get its distinct
    values over n^2 and the index that gathers them into the (n+1)^2 grid
    (11,436 values at n = 200)."""
    k = np.arange(n + 1)
    xi = k / n
    sq_int = k[np.newaxis, :] ** 2 - k[:, np.newaxis] ** 2
    np.maximum(sq_int, 0, out=sq_int)
    # searchsorted, not unique's return_inverse, whose sort temporaries
    # raise a checkpoint run's peak resident set by about 0.8 MB
    distinct = np.unique(sq_int)
    index = distinct.searchsorted(sq_int)
    sq_gaps = distinct / n**2
    for arr in (xi, sq_gaps, index):
        arr.flags.writeable = False
    return xi, sq_gaps, index


def _tail_integrals(g: np.ndarray) -> np.ndarray:
    """Row-wise T_i[g] = int_{xi_i}^1 g dxi by the composite trapezoid,
    summed from the right so that T_n = 0.0 exactly."""
    n = g.shape[-1] - 1
    tail = np.empty_like(g)
    tail[:, n] = 0.0
    panels = g[:, :-1] + g[:, 1:]
    panels *= 0.5 / n
    np.cumsum(panels[:, ::-1], axis=1, out=tail[:, n - 1 :: -1])
    return tail


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
    xi, sq_gaps, gap_index = _geometry(n)
    # allocated before the series temporaries, so that these free above it
    # and the heap keeps its pages: at N = 200 a checkpoint row then maps
    # no fresh page, against 205 to 500 when the gather allocates last
    kernel = np.empty(gap_index.shape)
    z2 = (lam / alpha) * s * s * sq_gaps
    ratio = i1_ratio_array(z2) if kind == "P" else j1_ratio_array(z2)
    # searchsorted built the index in range, and "wrap", unlike the default
    # "raise", gathers straight into `out` without buffering it
    ratio.take(gap_index, out=kernel, mode="wrap")
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

    The integral is s^2 (xi T[u] - T[xi u]).  The boundary value w(s)
    vanishes exactly whenever u(s) = 0.
    """
    u = np.asarray(u, dtype=float)
    xi = _geometry(u.size - 1)[0]
    tail_u, tail_xu = _tail_integrals(np.array((u, xi * u)))
    integral = s * s * (xi * tail_u - tail_xu)
    out = u - (c / alpha) * integral
    return out + (c / beta) * s * (1.0 - xi) * X


def controller_inverse(
    w: np.ndarray, X: float, s: float, c: float, alpha: float, beta: float
) -> np.ndarray:
    """u = w + (beta/alpha) int_x^s psi(x-y) w(y) dy + psi(x-s) X.

    With k = sqrt(c/alpha) and A = (c/beta)/k the integral is
    s A (sin(k s xi) T[cos(k s xi) w] - cos(k s xi) T[sin(k s xi) w]).
    """
    w = np.asarray(w, dtype=float)
    xi = _geometry(w.size - 1)[0]
    kappa = np.sqrt(c / alpha)
    phase = (kappa * s) * xi
    sin, cos = np.sin(phase), np.cos(phase)
    tail_cw, tail_sw = _tail_integrals(np.array((cos * w, sin * w)))
    integral = s * ((c / beta) / kappa) * (sin * tail_cw - cos * tail_sw)
    out = w + (beta / alpha) * integral
    return out + psi_kernel(s * (xi - 1.0), c, alpha, beta) * X
