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
and observer share the diffusion matrix at every step, and scenarios that
share the grid and the time step advance together: ``advance_field`` takes B
blocks of m fields, one extent per block, and solves them with one ``dgtsv``
call with m right-hand sides on the block-diagonal system whose blocks are
joined by zero couplings.  LAPACK eliminates each column with the same
operations as a one-column solve, and a zero coupling adds only zero terms,
which can flip nothing but the sign of an exact zero; the Dirichlet row,
where exact zeros arise, is reset to +0.0.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv

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
    return _RATE_SAFETY * math.sqrt(2.0 * alpha / dt)


@lru_cache(maxsize=8)
def _interior_xi(n: int) -> np.ndarray:
    xi = np.arange(1, n) * (1.0 / n)
    xi.flags.writeable = False
    return xi


# Columns of advance_field's per-block table after the five matrix entries
# (-mu, 1 + 2*mu, -2*mu, 1, 0): the ghost-node term, then one rate per field.
_GHOST_COLUMN = 5
_RATE_COLUMN = 6


@lru_cache(maxsize=8)
def _tri_index(blocks: int, n: int, width: int) -> np.ndarray:
    """Index into a flattened (blocks, width) table whose rows begin with
    the block's (-mu, 1 + 2*mu, -2*mu, 1, 0): it gathers the lower, main and
    upper diagonals of the block-diagonal system, concatenated."""
    lower = [0] * (n - 1) + [4, 4]  # the Dirichlet row's 0, then the coupling
    main = [1] * n + [3]  # the Dirichlet row's 1
    upper = [2] + [0] * (n - 1) + [4]  # the ghost row's -2*mu, then the coupling
    base = width * np.arange(blocks)[:, np.newaxis]
    index = np.concatenate(
        [(base + lower).ravel()[:-1], (base + main).ravel(), (base + upper).ravel()[:-1]]
    )
    index.flags.writeable = False
    return index


def advance_field(
    rows: np.ndarray,
    extent,
    rates,
    qc,
    dt: float,
    alpha,
    k,
    source: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """One backward-Euler step of the immobilized diffusion problem for B
    independent blocks of m fields; the fields of a block share its extent,
    boundary heat flux and material.

    rows:     (m, B, N+1) samples on the uniform xi-grid, rows[..., -1] == 0
    extent:   B current physical domain lengths (s or Y), one per block
    rates:    m sequences of B domain growth rates entering the convection
              term; each is clamped to its block's explicit-stability range
    qc:       B boundary heat fluxes, imposed as u_xi(0) = -(qc/k)*extent
    alpha, k: B diffusivities and conductivities
    source:   optional (G, N+1) explicit source samples for the last field
              of the first G blocks (the observer's output injection)

    Returns the advanced (m, B, N+1) stack and a dict block -> message for
    the blocks whose solve failed or left a non-finite value.
    """
    m, blocks, n1 = rows.shape
    n = n1 - 1
    dxi = 1.0 / n

    # one row of Python floats per block: the matrix entries, the Neumann
    # ghost-node term and the clamped rates over the extent (convection)
    table = []
    for b in range(blocks):
        ext, a = extent[b], alpha[b]
        mu = a * dt / (ext * ext * dxi * dxi)
        # Neumann ghost node: theta[ghost] = theta[1] - 2*dxi*g, g = -(qc/k)*extent
        ghost = -2.0 * mu * dxi * (-(qc[b] / k[b]) * ext)
        row = [-mu, 1.0 + 2.0 * mu, -2.0 * mu, 1.0, 0.0, ghost]
        cap = stable_rate_cap(a, dt)
        for field in range(m):
            r = rates[field][b]
            if abs(r) > cap:
                r = cap if r > 0.0 else -cap
            row.append(r / ext)
        table.append(row)
    values = np.array(table)

    # rhs: explicit convection (vanishes at xi=0, Dirichlet row at xi=1); the
    # in-place updates go through named views, which spares numpy the
    # write-back of an indexed `+=`
    rhs = rows.copy()
    conv = rows[..., 2:] - rows[..., :-2]
    conv *= 0.5 / dxi
    conv *= np.multiply.outer(values[:, _RATE_COLUMN:].T, _interior_xi(n))
    conv *= dt
    interior = rhs[..., 1:-1]
    interior += conv
    if source is not None:
        injected = rhs[-1, : source.shape[0], :-1]
        injected += dt * source[:, :-1]
    first = rhs[..., 0]
    first += values[:, _GHOST_COLUMN]
    rhs[..., n] = 0.0

    # block-diagonal system: dl lower, d main, du upper, in one allocation
    size = blocks * n1
    tri = values.take(_tri_index(blocks, n, values.shape[1]))
    # the Fortran-ordered (B*(N+1), m) right-hand side, solved in place
    _, _, _, out, info = dgtsv(
        tri[: size - 1],
        tri[size - 1 : 2 * size - 1],
        tri[2 * size - 1 :],
        rhs.reshape(m, size).T,
        overwrite_dl=1,
        overwrite_d=1,
        overwrite_du=1,
        overwrite_b=1,
    )
    out = out.T.reshape(m, blocks, n1)
    failed = {}
    if info != 0 or not np.isfinite(out).all():
        if blocks == 1:
            if info != 0:
                failed[0] = f"tridiagonal solve failed: dgtsv info = {info}"
            else:
                failed[0] = "temperature field became non-finite"
        else:
            # a failed block can spread NaN to its neighbours across the zero
            # couplings (0 * inf), so every block is solved again on its own
            g = 0 if source is None else source.shape[0]
            for b in range(blocks):
                one = slice(b, b + 1)
                out[:, one], bad = advance_field(
                    rows[:, one],
                    extent[one],
                    [r[one] for r in rates],
                    qc[one],
                    dt,
                    alpha[one],
                    k[one],
                    source=source[one] if b < g else None,
                )
                if bad:
                    failed[b] = bad[0]
    out[..., n] = 0.0
    return out, failed
