"""Shared front-fixed finite-difference machinery for plant and observer.

Both systems solve the same boundary-immobilized diffusion problem on the
normalized coordinate xi = x/extent in [0, 1]:

    u_t = (alpha/extent^2) u_xixi + (xi*rate/extent) u_xi + source(xi)

with a heat-flux (Neumann) condition at xi = 0 imposed through a ghost node,
a pinned zero at xi = 1, diffusion advanced by backward Euler, and the
convection and source terms taken explicitly.  Keeping one implementation
guarantees that the observer with zero injection gain reproduces the plant
trajectory bit for bit.

In the closed loop the observer runs on the measured extent Y = s, so plant
and observer share the diffusion matrix at every step: ``advance_field``
takes a stack of fields and solves them with one ``dgtsv`` call, one
right-hand side per field.  LAPACK eliminates each column with the same
operations as a one-column solve, so stacking changes no bit.
"""

import warnings
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import NumericalError

# Safety factor on the von Neumann threshold |rate| <= sqrt(2*alpha/dt) for
# the explicit centered convection term under implicit diffusion.
_RATE_SAFETY = 0.9


def edge_stencil(t3, t2, t1, dxi):
    """Second-order 3-point d(theta)/d(xi) at xi = 1 from the last three
    samples theta[-3], theta[-2], theta[-1]; floats or arrays alike."""
    return (3.0 * t1 - 4.0 * t2 + t3) / (2.0 * dxi)


def one_sided_edge_flux(theta: np.ndarray, dxi: float):
    """d(theta)/d(xi) at xi = 1 along the last axis, by the 3-point stencil.

    Exact for quadratics; with theta[-1] pinned to zero the stencil reduces
    to (theta[-3] - 4*theta[-2]) / (2*dxi).
    """
    return edge_stencil(theta[..., -3], theta[..., -2], theta[..., -1], dxi)


def stable_rate_cap(alpha: float, dt: float) -> float:
    """Largest convection rate the explicit term tolerates, with safety."""
    return _RATE_SAFETY * np.sqrt(2.0 * alpha / dt)


@lru_cache(maxsize=8)
def _interior_xi(n: int) -> np.ndarray:
    xi = np.arange(1, n) * (1.0 / n)
    xi.flags.writeable = False
    return xi


def advance_field(
    rows: np.ndarray,
    extent: float,
    rates,
    qc: float,
    dt: float,
    alpha: float,
    k: float,
    source: np.ndarray | None = None,
    cfl_warn: bool = True,
) -> np.ndarray:
    """One backward-Euler step of the immobilized diffusion problem for a
    stack of fields that share the extent and the boundary heat flux.

    rows:   (m, N+1) samples on the uniform xi-grid, rows[:, -1] == 0
    extent: current physical domain length (s or Y)
    rates:  m domain growth rates, one per row, entering the convection
            term; each is clamped to the explicit-stability range
    qc:     boundary heat flux, imposed as u_xi(0) = -(qc/k)*extent
    source: optional explicit source samples for the last row (the
            observer's output injection)
    cfl_warn: warn when the first row's Courant number exceeds 0.5

    Returns the advanced (m, N+1) stack.
    """
    n = rows.shape[1] - 1
    dxi = 1.0 / n
    mu = alpha * dt / (extent * extent * dxi * dxi)

    cap = stable_rate_cap(alpha, dt)
    rates = [(cap if r > 0.0 else -cap) if abs(r) > cap else r for r in rates]
    if cfl_warn and dt * abs(rates[0]) / (extent * dxi) > 0.5:
        # static message so the warnings machinery deduplicates per process
        warnings.warn(
            "explicit convection Courant number exceeds 0.5; consider reducing dt",
            RuntimeWarning,
            stacklevel=2,
        )

    # rhs: explicit convection (vanishes at xi=0, Dirichlet row at xi=1)
    rhs = rows.copy()
    conv = rows[:, 2:] - rows[:, :-2]
    conv *= 0.5 / dxi
    conv *= np.multiply.outer([r / extent for r in rates], _interior_xi(n))
    conv *= dt
    rhs[:, 1:-1] += conv
    if source is not None:
        rhs[-1, :-1] += dt * source[:-1]

    # Neumann ghost node at xi=0: theta[ghost] = theta[1] - 2*dxi*g
    g = -(qc / k) * extent
    rhs[:, 0] += -2.0 * mu * dxi * g

    # tridiagonal system: dl lower, d main, du upper, in one allocation
    tri = np.empty(3 * n + 1)
    dl, d, du = tri[:n], tri[n : 2 * n + 1], tri[2 * n + 1 :]
    dl.fill(-mu)
    d.fill(1.0 + 2.0 * mu)
    du.fill(-mu)
    du[0] = -2.0 * mu  # ghost-node row couples twice to theta[1]
    # Dirichlet row at xi = 1
    d[n] = 1.0
    dl[n - 1] = 0.0
    rhs[:, n] = 0.0

    # rhs.T is the Fortran-ordered (N+1, m) right-hand side, solved in place
    _, _, _, out, info = dgtsv(
        dl, d, du, rhs.T, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
    )
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed: dgtsv info = {info}")
    if not np.isfinite(out).all():
        raise NumericalError("temperature field became non-finite")
    out[n] = 0.0
    return out.T
