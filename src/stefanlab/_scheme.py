"""Shared front-fixed finite-difference machinery for plant and observer.

Both systems solve the same boundary-immobilized diffusion problem on the
normalized coordinate xi = x/extent in [0, 1]:

    u_t = (alpha/extent^2) u_xixi + (xi*rate/extent) u_xi + source(xi)

with a heat-flux (Neumann) condition at xi = 0 imposed through a ghost node,
a pinned zero at xi = 1, diffusion advanced by backward Euler, and the
convection and source terms taken explicitly.  Keeping one implementation
guarantees that the observer with zero injection gain, whose source row is
zero, reproduces the plant trajectory bit for bit.

In the closed loop the observer runs on the measured extent Y = s and rate
Y' = s', so plant and observer share the matrix and the rate at every step,
and scenarios that share the grid and the time step advance together as B
blocks of m fields.  A ``Workspace`` is the per-step kernel of a batch,
built when the batch starts and again only when a member leaves, with every
array a step writes: the step table, the diagonals, the convection and
coefficient buffers, every block's source row, the views of each row of
the caller's ring of fields that a step and its sample read, and one bound
``dgtsv`` call per row that solves into it.  Per block and
step only ``block_row``'s Python floats change; a step folds them into one
convection coefficient row per block, and one ``dgtsv`` call with m
right-hand sides solves every block of the block-diagonal system whose
blocks are joined by zero couplings, in place in the ring's next row.
LAPACK eliminates each column with the same operations as a one-column
solve, and a zero coupling adds only zero terms, which can flip nothing but
the sign of an exact zero; the Dirichlet row, where exact zeros arise, is
reset to +0.0.

``dgtsv`` is the one in the OpenBLAS that numpy already loaded, called
through ctypes, so a run maps no second LAPACK and imports nothing of
scipy; where numpy's library does not export it, scipy's ``dgtsv`` runs
instead, the same LAPACK routine.
"""

import ctypes
import math

import numpy as np


def _openblas_dgtsv():
    """LAPACK's dgtsv from the OpenBLAS that numpy's wheel links, or None.

    numpy's extension module depends on that library, so looking the symbol
    up through it finds the routine without loading anything more.  The
    wheel's OpenBLAS is built with 64-bit integers and exports its LAPACK
    under a ``scipy_`` prefix and a ``64_`` suffix; a numpy built otherwise
    (another BLAS, another naming) has no ``scipy_dgtsv_64_``, and None
    sends ``bind_dgtsv`` to scipy's dgtsv."""
    try:
        routine = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_dgtsv_64_
    except (AttributeError, OSError):
        return None
    # dgtsv(N, NRHS, DL, D, DU, B, LDB, INFO), every argument by address
    routine.argtypes, routine.restype = [ctypes.c_void_p] * 8, None
    return routine


_dgtsv = _openblas_dgtsv()


def bind_dgtsv(dl, d, du, b):
    """A call that solves the tridiagonal system with diagonals dl, d, du for
    the columns of the Fortran-ordered (n, nrhs) array b in place, as
    LAPACK's dgtsv does, overwriting all four, and returns dgtsv's info.

    The call is built once, its argument pointers and its info cell
    included, and holds the arrays its pointers address.  Without numpy's
    own dgtsv it calls scipy's, the same LAPACK routine."""
    n, nrhs = b.shape
    arrays = (dl, d, du, b)
    if not (
        dl.shape == du.shape == (n - 1,)
        and d.shape == (n,)
        # in Fortran order: each diagonal one run, b column after column
        and all(a.dtype == np.float64 and a.flags.f_contiguous and a.flags.writeable for a in arrays)
    ):
        raise ValueError(
            "dgtsv solves in place: it takes writeable contiguous float64 diagonals "
            "of n-1, n and n-1 entries and a Fortran-ordered (n, nrhs) b"
        )
    if _dgtsv is None:
        # imported here: scipy.linalg's package init takes a quarter second
        from scipy.linalg.lapack import dgtsv

        return lambda: dgtsv(dl, d, du, b, 1, 1, 1, 1)[-1]
    # c_void_p arguments pass the declared argtypes at the least cost per
    # call.  They are plain addresses (``ndarray.ctypes.data_as`` would leave
    # each pointer in a reference cycle), so the closure holds the integer
    # cells and the call the arrays
    cells = [ctypes.c_int64(v) for v in (n, nrhs, n, 0)]  # N, NRHS, LDB, INFO
    n_at, nrhs_at, ldb_at, info_at = (ctypes.c_void_p(ctypes.addressof(c)) for c in cells)
    args = (n_at, nrhs_at, *(ctypes.c_void_p(a.ctypes.data) for a in arrays), ldb_at, info_at)

    def solve():
        _dgtsv(*args)
        return cells[3].value

    solve.arrays = arrays
    return solve


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


def block_row(extent, rate, qc, alpha_dt, cap, k, dxi) -> list:
    """A block's row of the step table from its extent, its convection rate
    (clamped here to +-cap), its boundary heat flux and its constants: the
    matrix entries (-mu, 1 + 2*mu, -2*mu, 1, 0), the Neumann ghost-node term
    and the rate over the extent."""
    # an extent whose square underflows takes mu = inf, which fails the solve
    denominator = extent * extent * dxi * dxi
    mu = alpha_dt / denominator if denominator else math.inf
    if rate > cap:
        rate = cap
    elif rate < -cap:
        rate = -cap
    # ghost node: theta[-1] = theta[1] - 2*dxi*g with g = -(qc/k)*extent
    ghost = -2.0 * mu * dxi * (-(qc / k) * extent)
    return [-mu, 1.0 + 2.0 * mu, -2.0 * mu, 1.0, 0.0, ghost, rate / extent]


def _tri_index(blocks: int, n: int) -> np.ndarray:
    """Index into a flattened (blocks, 7) step table: it gathers the lower,
    main and upper diagonals of the block-diagonal system, concatenated."""
    lower = [0] * (n - 1) + [4, 4]  # the Dirichlet row's 0, then the coupling
    main = [1] * n + [3]  # the Dirichlet row's 1
    upper = [2] + [0] * (n - 1) + [4]  # the ghost row's -2*mu, then the coupling
    base = 7 * np.arange(blocks)[:, np.newaxis]
    return np.concatenate(
        [(base + lower).ravel()[:-1], (base + main).ravel(), (base + upper).ravel()[:-1]]
    )


class Workspace:
    """The per-step kernel of B blocks of m fields on the n-interval grid that
    step together with one dt, each block's last field with a source; every
    buffer is made here, none by a step.

    The fields live in the caller's ring, R >= 2 rows of (m, B, N+1), row
    ``now`` the current ones: a step writes its right-hand side into the next
    row (mod R), which dgtsv solves in place.  A step reads ``table``, the
    (B, 7) step table of ``block_row``s, and adds ``source``, the (B, N+1)
    sources times dt, to the last fields.  ``sample`` reads ``sums`` and
    ``corners``: each field's interior sum and samples at xi = 0 and the
    last three nodes, field f of block b at f*B + b."""

    def __init__(self, ring: np.ndarray, dt: float, now: int = 0):
        if not ring.flags.c_contiguous:
            raise ValueError("a step solves in place, so the ring must be C-contiguous")
        _, m, blocks, n1 = ring.shape
        n, size = n1 - 1, blocks * n1
        self.ring, self.dt, self.now = ring, dt, now
        # a right-hand side's Dirichlet entry is the one its row holds: the
        # +0.0 that a solve leaves there, as the current fields hold
        ring[..., -1] = 0.0
        self.table = np.empty((blocks, 7))
        # the table as one row, for a flat list of block rows, and its
        # ghost-node and rate-over-extent columns
        self.entries, self.ghost, self.rate = self.table.ravel(), self.table[:, 5], self.table[:, 6:]
        tri = self.tri = np.empty(3 * size - 2)
        self.diagonals = tri[: size - 1], tri[size - 1 : 2 * size - 1], tri[2 * size - 1 :]
        self.index = _tri_index(blocks, n)  # writeable: take would copy a read-only index
        # A step's elementwise work runs along whole ring rows as single runs
        # of m*B*(N+1) nodes, operands of one shape and stride, so numpy
        # takes no buffer for it: it buffers the operands of an operation it
        # cannot walk as one run, up to 8,192 entries of each per call.
        # What a run forms at the rows' first and last nodes, across the
        # joins of the rows, is overwritten before the solve.
        # xi*dt/(2*dxi) at each row's interior nodes, 0 at its ends; times a
        # block's rate over extent, each node's convection coefficient
        xi_dt = np.zeros((m, blocks, n1))
        xi_dt[..., 1:-1] = np.arange(1, n) * (0.5 * dt)
        self.xi_dt = xi_dt.ravel()
        self.coef = np.empty((m, blocks, n1))
        self.coef_run = self.coef.ravel()
        self.coef_inner = self.coef_run[1:-1]
        self.conv = np.empty(m * size - 2)  # the convection of a run's node q at q - 1
        self.source = np.empty((blocks, n1))
        self.source_run = self.source.ravel()
        self.corners_at = np.array([0, n - 2, n - 1, n])
        self.sum_buf, self.corner_buf = np.empty(m * blocks), np.empty((m * blocks, 4))
        # per ring row: the views a step from it works on (b the next row),
        # the solve of b's fields as dgtsv's columns, and the views sample
        # reads of it
        self.views = []
        for a, b in zip(ring, [*ring[1:], ring[0]]):
            a_run, b_run = a.ravel(), b.ravel()
            self.views.append((
                a_run[2:], a_run[:-2], a_run[1:-1], b_run[1:-1], a[..., 0], b[..., 0],
                b[-1].ravel(), b[..., -1], bind_dgtsv(*self.diagonals, b.reshape(m, size).T),
            ))
        self.rows = [(a, a[:, 1:-1]) for a in ring.reshape(len(ring), m * blocks, n1)]

    @property
    def fields(self) -> np.ndarray:
        """The current (m, B, N+1) fields, row ``now`` of the ring."""
        return self.ring[self.now]

    def sample(self) -> bool:
        """Read ``sums`` and ``corners``, as every step does after its solve;
        False if a field is not finite."""
        rows, interior = self.rows[self.now]  # as (m*B, N+1)
        self.sums = np.add.reduce(interior, axis=-1, out=self.sum_buf).tolist()
        self.corners = rows.take(self.corners_at, axis=-1, out=self.corner_buf, mode="clip").tolist()
        # what this leaves out is the Dirichlet zeros; a sum of finite values
        # that overflows sends the check to every entry
        total = sum(self.sums) + sum(map(sum, self.corners))
        return math.isfinite(total) or bool(np.isfinite(rows).all())

    def step(self) -> dict:
        """One step of every field with ``table``, the last field of each
        block adding its ``source`` row.  Returns block -> message for
        blocks whose solve failed or left a non-finite value."""
        later, earlier, inner, rhs, head, first, last, edge, solve = self.views[self.now]
        # the explicit convection, which vanishes at xi = 0, then the
        # ghost-node term, the source, and the Dirichlet row's 0 at xi = 1;
        # each block's rate over extent is copied to its every node first,
        # so that its product with the row is one run
        self.coef[...] = self.rate
        np.multiply(self.coef_run, self.xi_dt, out=self.coef_run)
        conv = np.subtract(later, earlier, out=self.conv)
        conv *= self.coef_inner
        np.add(inner, conv, out=rhs)
        np.add(head, self.ghost, out=first)
        last += self.source_run
        edge.fill(0.0)
        self.table.take(self.index, out=self.tri, mode="clip")  # "raise" buffers `out`
        info = solve()
        old, self.now = self.now, (self.now + 1) % len(self.views)
        edge.fill(0.0)
        if self.sample() and info == 0:
            return {}
        blocks = len(self.table)
        if blocks == 1:
            if info == 0:
                return {0: "temperature field became non-finite"}
            return {0: f"tridiagonal solve failed: dgtsv info = {info}"}
        # a failed block can spread NaN to its neighbours across the zero
        # couplings (0 * inf), so every block is solved again on its own
        failed, fields = {}, self.fields
        for k in range(blocks):
            ring = np.empty((2, fields.shape[0], 1, fields.shape[-1]))
            ring[0] = self.ring[old, :, k : k + 1]
            alone = Workspace(ring, self.dt)
            alone.table[0] = self.table[k]
            alone.source[:] = self.source[k : k + 1]
            bad = alone.step()
            if bad:
                failed[k] = bad[0]
            fields[:, k] = alone.fields[:, 0]
        self.sample()
        return failed
