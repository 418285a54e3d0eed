"""Volterra transforms between physical fields and their stable target images.

All four maps are diagnostic-only: the closed loop never needs them, so they
operate on state snapshots.  Integrals are composite trapezoids on the nodes
of the normalized grid, matching the order of the spatial scheme.  The
Bessel kernels depend on (x, y) only through y^2 - x^2: both are summed at
once per distinct gap, as a product with the grid's gap powers (specfun's
``kernel_rows``); each transform gathers its ratios over the strict upper
triangle into a reused buffer and applies them with one matrix-vector
product, the trapezoid weights folded into the vector.  That state (the
(N+1)^2 gap index and gather and the gaps' power table) is made once per
grid size, by the first Bessel transform with lam > 0 on it
(``_bessel_grid``).  The controller kernels are separable (x - y has rank
2, and sin k(x-y) = sin kx cos ky - cos kx sin ky), so both controller
integrals are built in O(N) from reverse cumulative trapezoids
T_i[g] = int_{xi_i}^1 g, with T_N = 0 exactly; they read nothing but their
arguments, the grid i/N taken from the fields' length.

Error-field pair (gain kernels in Bessel functions):

    direct:   u(x) = w(x) + int_x^s P(x,y) w(y) dy,
              P(x,y) = (lam/alpha) * y * I1r((lam/alpha)(y^2-x^2))
    inverse:  w(x) = u(x) - int_x^s Q(x,y) u(y) dy,
              Q(x,y) = (lam/alpha) * y * J1r((lam/alpha)(y^2-x^2))

The controller pair maps a (K, N+1) stack of fields row by row, with the
extent, the setpoint error, c, alpha and beta each one value or one per
row, so that checkpoints of scenarios with their own gains and materials
stack in one call; every row keeps the bits of its own call.

Controller pair (sine resolvent):

    forward:  w(x) = u(x) - (c/alpha) int_x^s (x-y) u(y) dy + (c/beta)(s-x) X
    inverse:  u(x) = w(x) + (beta/alpha) int_x^s psi(x-y) w(y) dy + psi(x-s) X
              psi(x) = (c/beta) sqrt(alpha/c) sin(sqrt(c/alpha) x)
"""

from functools import lru_cache

import numpy as np

from .specfun import _BLOCK, PowerTable, kernel_rows


def psi_kernel(x, c: float, alpha: float, beta: float):
    """Resolvent kernel psi(x) = (c/beta)*sqrt(alpha/c)*sin(sqrt(c/alpha)*x)."""
    kappa = np.sqrt(c / alpha)
    return (c / beta) / kappa * np.sin(kappa * np.asarray(x, dtype=float))


@lru_cache(maxsize=8)
def _bessel_grid(n: int) -> tuple[np.ndarray, PowerTable, np.ndarray]:
    """Per-grid state of the Bessel transforms, shared by every caller in
    the process, so the transforms are not for concurrent threads.

    The kernels depend on (i, j), j > i, only through the gap
    g = (j^2 - i^2)/n^2, so the series runs once per distinct positive gap
    (11,435 at n = 200; the largest is exactly 1).  The index sends (i, j)
    to its gap, and every entry on or below the diagonal to one trailing
    slot after them.  Then the descending power table of the gaps and a 0
    for that slot, and the (n+1)^2 kernel gather, reused so that a
    checkpoint row allocates no (n+1)^2 array.
    """
    # the squares in the narrowest integer type that holds -n^2..n^2 (int32
    # up to n = 46,340), not (n+1)^2 int64 temporaries
    k = np.arange(n + 1).astype(np.min_scalar_type(-n * n))
    sq_int = k[np.newaxis, :] ** 2 - k[:, np.newaxis] ** 2
    np.maximum(sq_int, 0, out=sq_int)
    # marks and a running count, not np.unique, which sorts and imports
    # numpy.ma on first use
    present = np.zeros(n * n + 1, dtype=bool)
    present[sq_int] = True
    present[0] = False
    positive = np.flatnonzero(present)
    # the count stays intp, so the gather gives the intp index that `take`
    # uses without a copy.  A narrower count frees no block as large as this
    # one, which leaves glibc's trim threshold low enough that the engine's
    # per-block (64, N+1) temporaries go back to the kernel and are faulted
    # in again at every block: 97,500 minor faults per zinc run against
    # 1,500, and 6.39 s against 5.86 s (medians of 8 runs; glibc malloc,
    # CPython 3.11, numpy 2.4, 2-vCPU Xeon)
    slot = np.cumsum(present) - 1
    slot[0] = positive.size
    # the index stays writeable: `take` copies a read-only index, 323 KB
    # per gather at n = 200
    index = slot[sq_int]
    powers = PowerTable(np.append(positive / n**2, 0.0), _BLOCK + 1, descending=True)
    return index, powers, np.empty((n + 1, n + 1))


@lru_cache(maxsize=1)
def _ratio_rows(n: int, z2_max: float) -> np.ndarray:
    """Read-only I1 and J1 ratio rows at z2 = z2_max * g over the distinct
    gaps, each with a trailing 0 for the index's empty slot.  One entry is
    enough: the two transforms of a checkpoint share (n, z2_max)."""
    powers = _bessel_grid(n)[1]
    rows = kernel_rows(z2_max, powers, np.empty((2, powers.base.size)))
    rows[:, -1] = 0.0
    rows.flags.writeable = False
    return rows


def _tail_integrals(g: np.ndarray) -> np.ndarray:
    """T_i[g] = int_{xi_i}^1 g dxi along the last axis by the composite
    trapezoid, summed from the right so that T_n = 0.0 exactly."""
    n = g.shape[-1] - 1
    tail = np.empty_like(g)
    tail[..., n] = 0.0
    panels = g[..., :-1] + g[..., 1:]
    panels *= 0.5 / n
    np.cumsum(panels[..., ::-1], axis=-1, out=tail[..., n - 1 :: -1])
    return tail


def _per_row(*values) -> list[np.ndarray]:
    """Each value a scalar, or one value per row of a (K, N+1) stack,
    shaped to broadcast against the fields."""
    return [np.asarray(value, dtype=float)[..., np.newaxis] for value in values]


def _bessel_integral(f: np.ndarray, s: float, lam: float, alpha: float, kind: int) -> np.ndarray:
    """Row-wise int_{x_i}^{s} K(x_i, y) f(y) dy on the xi-grid, for K = P
    (kind 0) or Q (kind 1), by the composite trapezoid.

    With R the ratio over the strict upper triangle and c = 1 but c_n = 1/2
    (the half weight at y = s), that is
    s (lam/alpha) s/n (R @ (xi c f) + xi f/4), and 0 at the last node: the
    diagonal has half weight and the ratio 1/2 at gap 0.
    """
    n = f.size - 1
    index, _, kernel = _bessel_grid(n)
    xi = np.arange(n + 1) / n
    k = lam / alpha
    # the index is in range, and "wrap", unlike the default "raise",
    # gathers straight into `out` without buffering it
    _ratio_rows(n, k * s * s)[kind].take(index, out=kernel, mode="wrap")
    xf = xi * f
    out = 0.25 * xf
    xf[n] *= 0.5
    out += kernel @ xf
    out[n] = 0.0
    out *= k * s * s / n
    return out


def apply_direct(w: np.ndarray, s: float, lam: float, alpha: float) -> np.ndarray:
    """u = w + int_x^s P(x,y) w(y) dy; identity when lam = 0."""
    w = np.asarray(w, dtype=float)
    if lam == 0.0:
        return w.copy()
    return w + _bessel_integral(w, s, lam, alpha, 0)


def apply_inverse(u: np.ndarray, s: float, lam: float, alpha: float) -> np.ndarray:
    """w = u - int_x^s Q(x,y) u(y) dy; identity when lam = 0."""
    u = np.asarray(u, dtype=float)
    if lam == 0.0:
        return u.copy()
    return u - _bessel_integral(u, s, lam, alpha, 1)


def controller_transform(
    u: np.ndarray, X: float, s: float, c: float, alpha: float, beta: float
) -> np.ndarray:
    """w = u - (c/alpha) int_x^s (x-y) u(y) dy + (c/beta)(s-x) X.

    The integral is s^2 (xi T[u] - T[xi u]).  The boundary value w(s)
    vanishes exactly whenever u(s) = 0.  A (K, N+1) stack of fields, with
    one s and one X per row, and c, alpha and beta each one float or one
    per row, maps row by row, each row's bits those of its own call: rows
    of scenarios with their own gains and materials stack.
    """
    u = np.asarray(u, dtype=float)
    xi = np.arange(u.shape[-1]) / (u.shape[-1] - 1)
    s, X, c, alpha, beta = _per_row(s, X, c, alpha, beta)
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
    Stacks map row by row, with c, alpha and beta per row or not, as in
    ``controller_transform``.
    """
    w = np.asarray(w, dtype=float)
    xi = np.arange(w.shape[-1]) / (w.shape[-1] - 1)
    s, X, c, alpha, beta = _per_row(s, X, c, alpha, beta)
    kappa = np.sqrt(c / alpha)
    phase = (kappa * s) * xi
    sin, cos = np.sin(phase), np.cos(phase)
    tail_cw, tail_sw = _tail_integrals(np.array((cos * w, sin * w)))
    integral = s * ((c / beta) / kappa) * (sin * tail_cw - cos * tail_sw)
    out = w + (beta / alpha) * integral
    return out + psi_kernel(s * (xi - 1.0), c, alpha, beta) * X
