"""Partitions at singular jumps and the coupled block system.

Points where J + dq/2 is singular break unique continuation; they become
partition points x_1 < ... < x_N inside the window, with x_0 and x_{N+1} the
window ends.  Between them fundamental matrices exist, and matching the jump
rule at each x_j couples the subinterval coefficients through one sparse
block matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .coefficients import (DEFAULT_TOL_RANK, DEFAULT_TOL_SING, Problem, _member,
                           _window_ends)
from .errors import DimensionMismatch, OutOfInterval
from .functions import L2Function
from .propagation import (FundamentalMatrix, _adjoint, _check_rhs, _fundamental_matrices,
                          _fundamentals, _NodeStates, _singular)

BORDERLINE_SING = 1e-6
TOL_IDENTITY = 1e-10     # exact matrix identities, such as U^* J U = J


@dataclass(frozen=True)
class JumpReport:
    """Singular-value data of J + dq/2 at one jump position."""

    position: float
    sigma_min: float
    sigma_max: float
    status: str  # "singular" | "borderline" | "regular"


def classify_jumps(problem: Problem, window,
                   tol_sing: float = DEFAULT_TOL_SING) -> list[JumpReport]:
    """Classify every q-atom inside the open window by the singular-jump test at
    tol_sing ("singular") and at BORDERLINE_SING ("borderline")."""
    lo, hi = _window_ends(window)
    a, b = problem.interval
    if not (a <= lo and hi <= b):
        raise OutOfInterval(f"window ({lo}, {hi}) is not inside [{a}, {b}]")
    positions, atoms = problem.q.atoms_between(lo, hi)
    sigmas = np.linalg.svd(problem.J + 0.5 * atoms, compute_uv=False)
    statuses = np.where(_singular(sigmas, tol_sing), "singular",
                        np.where(_singular(sigmas, BORDERLINE_SING), "borderline", "regular"))
    return [JumpReport(float(x), float(sigma[-1]), float(sigma[0]), str(status))
            for x, sigma, status in zip(positions, sigmas, statuses)]


def find_singular_points(problem: Problem, window,
                         tol_sing: float = DEFAULT_TOL_SING) -> list[float]:
    """Positions in the open window where J + dq/2 fails to be invertible."""
    return [r.position for r in classify_jumps(problem, window, tol_sing)
            if r.status == "singular"]


@dataclass(frozen=True)
class Partition:
    """Window ends plus at least two interior points, singular ones flagged."""

    window: tuple[float, float]
    interior: np.ndarray
    singular: np.ndarray  # bool mask aligned with interior

    def __post_init__(self):
        lo, hi = self.window
        interior = np.asarray(self.interior, dtype=float)
        singular = np.asarray(self.singular, dtype=bool)
        if interior.size < 2:
            raise ValueError("a partition needs at least two interior points")
        if interior.size != singular.size:
            raise ValueError("one flag per interior point required")
        if not np.all(np.diff(interior) > 0):
            raise ValueError("interior points must be strictly increasing")
        if not (lo < interior[0] and interior[-1] < hi):
            raise OutOfInterval("interior points must lie strictly inside the window")
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "singular", singular)
        self.interior.flags.writeable = False
        self.singular.flags.writeable = False

    @property
    def points(self) -> np.ndarray:
        """x_0 = window start, interior points, x_{N+1} = window end."""
        lo, hi = self.window
        return np.concatenate([[lo], self.interior, [hi]])

    @property
    def count(self) -> int:
        return int(self.interior.size)


def make_partition(window, singular_points, extra=()) -> Partition:
    """Partition from the singular points, padded up to two interior points.

    ``extra`` positions (for example user-forced ones) are merged in and
    flagged as padded.  With one point in total, a padded point is added at
    the midpoint of the longer adjacent gap (ties resolve to the right gap);
    with none, padded points sit at the thirds of the window.
    """
    lo, hi = _window_ends(window)
    singular = sorted(float(x) for x in singular_points)
    chosen = dict.fromkeys(singular, True)
    for x in extra:
        chosen.setdefault(float(x), False)
    for x in chosen:
        if not (lo < x < hi):
            raise OutOfInterval(f"partition point {x} outside the open window")

    if len(chosen) == 0:
        width = hi - lo
        chosen = {lo + width / 3.0: False, lo + 2.0 * width / 3.0: False}
    elif len(chosen) == 1:
        (x,) = chosen
        if x - lo > hi - x:
            chosen[0.5 * (lo + x)] = False
        else:
            chosen[0.5 * (x + hi)] = False

    interior = np.array(sorted(chosen), dtype=float)
    flags = np.array([chosen[x] for x in sorted(chosen)], dtype=bool)
    return Partition((lo, hi), interior, flags)


def _partition_step(problem: Problem, window, extra, tol_sing: float
                    ) -> tuple[list[JumpReport], Partition]:
    """The window's jump reports and the partition at its singular jumps plus ``extra``."""
    reports = classify_jumps(problem, window, tol_sing)
    singular = [r.position for r in reports if r.status == "singular"]
    return reports, make_partition(window, singular, extra)


def _check_finite(matrix: np.ndarray) -> None:
    # LAPACK's SVD of a matrix holding an inf returns NaNs or never returns.
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("SVD of a matrix with non-finite entries")


def _dense_rank(matrix: np.ndarray, tol_rank: float) -> int:
    """Number of singular values above tol_rank * sigma_max, from the values alone.

    The SVD sees the rows in golden-ratio stride order, row (k g) mod m with
    g the integer nearest 0.618 m coprime to m.  A row permutation is exact:
    the singular values are those of the matrix itself.  On a banded
    matrix, such as a block-bidiagonal B*, it keeps the bidiagonalisation
    from carrying fill-in along the band, where it underflows to subnormal
    numbers and slows the SVD two- to threefold.
    """
    _check_finite(matrix)
    m = matrix.shape[0]
    g = min((g for g in range(1, m + 1) if math.gcd(g, m) == 1),
            key=lambda g: abs(g - 0.618 * m))
    s = np.linalg.svd(matrix[np.arange(m) * g % m], compute_uv=False)
    return int(np.sum(s > tol_rank * s[0]))


def nullspace(matrix: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
    """Orthonormal basis of the kernel, columns; rank cut at tol_rank * sigma_max.

    The singular vectors are computed only when a kernel can remain: a
    matrix with at least as many rows as columns first takes its singular
    values alone (`_dense_rank`, rows shuffled) and, at full column rank,
    returns the empty basis.  The SVD that returns the basis takes the rows
    in their own order, so the basis of a degenerate kernel is the plain
    SVD's.  A matrix with an inf or NaN entry raises LinAlgError.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    _check_finite(matrix)
    rows, cols = matrix.shape
    if rows == 0 or not matrix.any():
        return np.eye(cols, dtype=complex)
    if rows >= cols and _dense_rank(matrix, tol_rank) == cols:
        return np.zeros((cols, 0), dtype=complex)
    # The basis takes its rank from the same decomposition as its vectors.
    _, s, vh = np.linalg.svd(matrix)
    rank = int(np.sum(s > tol_rank * s[0]))
    return vh[rank:].conj().T


class _Sweep:
    """One orthogonal sweep over a block-bidiagonal matrix at one rank cut.

    Row j holds ``lower[j]`` on column block j and ``upper[j]`` on column
    block j + 1.  Before row j, the orthonormal columns of Z_j span the
    solutions of rows 0 .. j-1 on column blocks 0 .. j; only its block j,
    the free basis F_j, is kept.  The SVD of the pivot matrix
    G_j = [lower[j] F_j, upper[j]] splits its right singular vectors into
    pivots (singular values above the cut) and the rest, V_0, and
    Z_{j+1} = diag(Z_j, I) V_0, whose top rows T_j carry Z_{j+1}
    coordinates back to Z_j's.  When F_j has more columns than rows, F_j's
    SVD rotates the surplus columns to a zero block j: they are kernel
    vectors already (zero from block j on) and retire, so at most one block
    width of columns stays active and each row costs O(n^3).  The swept
    matrix is the wide side of a coupling matrix (B itself, or W = B_m^*
    for the tall B_m), and ``cut`` is tol_rank times the largest sigma_max
    of its block rows.
    """

    def __init__(self, lower, upper, cut: float):
        self.lower = lower
        self.ends = list(accumulate([lower[0].shape[1]] + [d.shape[1] for d in upper]))
        self.steps = []      # (rotation or None, F_j, T_j) per row
        self.svds = []       # (U, S, V^*, rank) of G_j per row
        self.rank = 0
        free = np.eye(self.ends[0], dtype=complex)
        for a, d in zip(lower, upper):
            width, count = free.shape
            rotation = None
            if count > width:
                u, s, vh = np.linalg.svd(free)
                rotation, free, count = vh.conj().T, u * s, width
            u, s, vh = np.linalg.svd(np.concatenate([a @ free, d], axis=1))
            r = sum(value > cut for value in s.tolist())
            kept = vh[r:].conj().T
            self.steps.append((rotation, free, kept[:count]))
            self.svds.append((u, s, vh, r))
            self.rank += r
            free = kept[count:]
        self.last = free

    @cached_property
    def kernel(self) -> np.ndarray:
        """Orthonormal kernel basis (read-only), written out from the back.

        ``coords`` holds the kernel columns in Z_j's coordinates; the columns
        retired at row j join there, with zero blocks from j on.
        """
        out = np.zeros((self.ends[-1], self.ends[-1] - self.rank), dtype=complex)
        coords = np.eye(self.last.shape[1], dtype=complex)
        out[self.ends[-1] - self.last.shape[0]:, :coords.shape[1]] = self.last
        for (rotation, free, transfer), end in zip(reversed(self.steps), self.ends[-2::-1]):
            active = transfer @ coords
            out[end - free.shape[0]:end, :active.shape[1]] = free @ active
            coords = active if rotation is None else np.concatenate(
                [rotation[:, :free.shape[1]] @ active, rotation[:, free.shape[1]:]], axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def _inverses(self) -> list[np.ndarray]:
        """Each row's pivot pseudo-inverse V_r S_r^-1 U_r^*."""
        return [(vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T for u, s, vh, r in self.svds]

    @cached_property
    def pivot_sweep(self) -> _Sweep:
        """The sweep over L^*, where L = M E on the orthonormal pivot columns E.

        Row j's pivot group E_j = diag(Z_j, I) V_r solves rows 0 .. j-1, so L
        is block lower-bidiagonal with full column rank: U_r S_r on row j and
        A_{j+1} times V_r's block-(j+1) rows on row j + 1.  M = L E^* up to
        the cut, so ker M^* = ker L^*; every row of L^* is a pivot.
        """
        lower = [s[:r, None] * u[:, :r].conj().T for u, s, _, r in self.svds]
        upper = [vh[:r, vh.shape[1] - a.shape[1]:] @ a.conj().T
                 for (_, _, vh, r), a in zip(self.svds, self.lower[1:])]
        upper.append(np.zeros((lower[-1].shape[0], 0), dtype=complex))
        return _Sweep(lower, upper, -np.inf)

    @cached_property
    def _adjoint_steps(self) -> list[tuple]:
        """Per row: the active rotation^*, V^*, the pivot count, U_r S_r^-1 and
        U_r S_r^-1 times the adjoint of the next row's coupling to this one
        (the last row has none: a zero-row block as wide as the last column
        block)."""
        steps = []
        last = np.zeros((0, self.ends[-1] - self.ends[-2]), dtype=complex)
        for (rotation, free, _), (u, s, vh, r), a in zip(
                self.steps, self.svds, list(self.lower[1:]) + [last]):
            if rotation is not None:
                rotation = rotation[:, :free.shape[1]].conj().T
            scaled = u[:, :r] / s[:r]
            steps.append((rotation, vh, r, scaled, scaled @ vh[:r, free.shape[1]:] @ a.conj().T))
        return steps

    def _projections(self, rhs: np.ndarray) -> list[np.ndarray]:
        """E^* rhs by rows: a pass forward takes rhs to each row's pivot
        coordinates V_r^* [Z_j^* rhs; rhs on block j + 1]."""
        coords, projections = rhs[:self.ends[0]], []
        for (rotation, vh, r, _, _), start, stop in zip(
                self._adjoint_steps, self.ends, self.ends[1:]):
            if rotation is not None:
                coords = rotation @ coords
            coords = vh @ np.concatenate([coords, rhs[start:stop]])
            projections.append(coords[:r])
            coords = coords[r:]
        return projections

    def _adjoint_solve(self, rhs: np.ndarray) -> list[np.ndarray]:
        """(M^+)^* rhs = L^-* E^* rhs by rows, where every row is a pivot:
        the projection pass, then back substitution with the adjoint pivot
        inverses."""
        out = [np.zeros(0, dtype=complex)]
        for (_, _, _, scaled, coupling), projection in zip(
                reversed(self._adjoint_steps), reversed(self._projections(rhs))):
            out.append(scaled @ projection - coupling @ out[-1])
        return out[:0:-1]  # rows in order, without the empty seed

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Min-norm least-squares solution E L^+ rhs.

        Where every row is a pivot, L is square and forward substitution on
        the pivots is L^-1; otherwise L^+ rhs is the adjoint of the min-norm
        solve of the sweep over L^*.  The kernel's backward product then
        writes E out, so the result is orthogonal to the kernel.
        """
        if self.rank < rhs.size:
            pivots = [vh[:r].conj().T @ c for (_, _, vh, r), c in
                      zip(self.svds, self.pivot_sweep._adjoint_solve(rhs))]
        else:
            pivots, bottom, stop = [], np.zeros(self.ends[0], dtype=complex), 0
            for (_, free, _), a, inverse in zip(self.steps, self.lower, self._inverses):
                start, stop = stop, stop + a.shape[0]
                pivots.append(inverse @ (rhs[start:stop] - a @ bottom))
                bottom = pivots[-1][free.shape[1]:]
        out = np.zeros(self.ends[-1], dtype=complex)
        for (_, free, _), pivot, start, stop in zip(self.steps, pivots, self.ends, self.ends[1:]):
            out[start:stop] = pivot[free.shape[1]:]
        coords = np.zeros(self.last.shape[1], dtype=complex)
        for (rotation, free, transfer), pivot, end in zip(
                reversed(self.steps), reversed(pivots), self.ends[-2::-1]):
            active = pivot[:free.shape[1]] + transfer @ coords
            out[end - free.shape[0]:end] += free @ active
            coords = active if rotation is None else rotation[:, :free.shape[1]] @ active
        return out


class Factorisation:
    """Orthogonal sweeps over a wide block-bidiagonal coupling matrix M.

    Row j of M holds ``lower[j]`` (A_j) on column block j and ``upper[j]``
    (D_j) on column block j + 1, so M has one more column block than block
    rows.  The one rank decision is the sweep over M: a singular value s of
    a row's pivot matrix counts when

        s > tol_rank * max_j sigma_max([A_j D_j]).

    Each tol_rank gets its own sweep, computed on first use and cached; the
    kernel is its free basis.  Its pivot columns E give M E = L with full
    column rank, so ker M^* = ker L^*, the min-norm least-squares solution
    is E L^+ rhs and that of M^* x = rhs is (M^+)^* rhs = (L^*)^+ E^* rhs.
    When the rank falls short of the rows, one more sweep, over L^* with
    every row a pivot, gives ker L^*, L^+ and (L^*)^+; otherwise L is square
    and substitution inverts it.  Every step is O(n^3), so a factorisation
    costs O(N n^3) against O((nN)^3) for a dense SVD.  A tall matrix is
    answered from the sweep over its wide adjoint (``AdjointFactorisation``).
    """

    def __init__(self, lower: np.ndarray, upper: np.ndarray):
        self.lower, self.upper = lower, upper
        K, rows, width = lower.shape
        block_rows = np.concatenate([lower, upper], axis=2)
        self.scale = float(np.linalg.svd(block_rows, compute_uv=False)[:, 0].max())
        self.shape = (K * rows, width * (K + 1))
        self._sweeps = {}

    def _sweep(self, tol_rank: float) -> _Sweep:
        if tol_rank not in self._sweeps:
            self._sweeps[tol_rank] = _Sweep(self.lower, self.upper, tol_rank * self.scale)
        return self._sweeps[tol_rank]

    def kernel(self, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        """Orthonormal basis of the kernel, columns (read-only)."""
        return self._sweep(tol_rank).kernel

    def adjoint_kernel(self, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        """Orthonormal basis of the adjoint matrix's kernel, columns (read-only)."""
        sweep = self._sweep(tol_rank)
        if sweep.rank == self.shape[0]:
            return np.zeros((sweep.rank, 0), dtype=complex)
        return sweep.pivot_sweep.kernel

    def solve(self, rhs: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        """Minimum-norm least-squares solution E L^+ rhs."""
        return self._sweep(tol_rank).solve(_vector(rhs, self.shape[0], "row"))

    def adjoint_solve(self, rhs: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        """Minimum-norm least-squares solution (L^*)^+ E^* rhs of M^* x = rhs.

        Where every row is a pivot, L^* is square and back substitution
        inverts it; otherwise the min-norm solve of the sweep over L^*.
        """
        sweep = self._sweep(tol_rank)
        rhs = _vector(rhs, self.shape[1], "column")
        if sweep.rank == self.shape[0]:
            return np.concatenate(sweep._adjoint_solve(rhs))
        return sweep.pivot_sweep.solve(np.concatenate(sweep._projections(rhs)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M x, block by block."""
        blocks = np.asarray(x, dtype=complex).reshape(-1, self.lower.shape[2], 1)
        return (self.lower @ blocks[:-1] + self.upper @ blocks[1:]).reshape(-1)


def _vector(rhs: np.ndarray, size: int, count: str) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=complex).reshape(-1)
    if rhs.size != size:
        raise DimensionMismatch(f"right-hand side length must match the {count} count")
    return rhs


class AdjointFactorisation:
    """The answers for the tall M^*, from the sweeps over the wide M.

    ker M^* is M's adjoint kernel and ker M^** = ker M is M's kernel; the
    min-norm solve of M^* x = rhs is ``Factorisation.adjoint_solve``.  The
    rank cut is M's: s > tol_rank * max_j sigma_max of M's block rows.
    """

    def __init__(self, factors: Factorisation):
        self.factors = factors
        self.scale = factors.scale
        self.shape = factors.shape[::-1]

    def kernel(self, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        return self.factors.adjoint_kernel(tol_rank)

    def adjoint_kernel(self, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        return self.factors.kernel(tol_rank)

    def solve(self, rhs: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        return self.factors.adjoint_solve(rhs, tol_rank)


def _bidiagonal(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Dense matrix with lower[j] at block (j, j) and upper[j] at block (j, j + 1)."""
    N, n, _ = lower.shape
    dense = np.zeros((N, n, N + 1, n), dtype=complex)
    j = np.arange(N)
    dense[j, :, j] = lower
    dense[j, :, j + 1] = upper
    return dense.reshape(n * N, n * (N + 1))


class BlockSystem:
    """All matrices coupling the subinterval coefficients of a partition.

    ``states`` holds the read-only node states of the whole partition, one
    build stepped through every gap, and ``transfers`` the matrices that
    carry them through each atom strictly inside a subinterval, at the
    nodes ``transfer_nodes``; solutions, moment vectors and pairings read
    them, and the fundamental matrices U_0 .. U_N (``fundamentals``, built
    on first read) are views of them.
    ``b_plus`` stacks J + dq/2 at the N interior points,
    ``u_ends`` the end values of the N + 1 fundamental matrices.  Block row
    j of the coupling matrix B is the jump rule at x_{j+1}: b_plus^* U_j(end)
    on column block j and b_plus on block j + 1, so B and the reduced B_m
    (without the first and last column block) are block-bidiagonal.  Every
    min-norm solve and kernel of them comes from an orthogonal sweep over
    the wide side, built from those blocks in O(N n^3): ``factors`` sweeps
    the wide B itself, ``reduced_factors`` the wide W = B_m^*, whose block
    row k holds b_plus[k]^* and the adjoint of B's block A_{k+1}; its rank
    cut reads W's block rows.  Each swept matrix has n more columns than
    rows, so ker B and ker B_m^* have at least n columns at any cut.  The
    dense B, C, B_m and C_m are built only on demand.
    """

    def __init__(self, problem: Problem, partition: Partition, states: _NodeStates,
                 transfers: np.ndarray, transfer_nodes: np.ndarray):
        self.problem = problem
        self.partition = partition
        self.states, self.transfers, self.transfer_nodes = states, transfers, transfer_nodes
        interior = partition.interior
        n = problem.n
        N = partition.count
        self.n = n
        self.N = N

        q = problem.q
        jumps = np.zeros((interior.size, n, n), dtype=complex)
        hit = _member(interior, q.atom_positions)
        jumps[hit] = q.atom_matrices[np.searchsorted(q.atom_positions, interior[hit])]
        self.b_plus = problem.J + 0.5 * jumps
        self.u_ends = states.lefts[states.starts[1:] - 1]

    @cached_property
    def fundamentals(self) -> list[FundamentalMatrix]:
        """U_0 .. U_N, views of ``states`` and ``transfers``."""
        return _fundamentals(self.problem.J, self.states, self.transfers, self.transfer_nodes)

    @cached_property
    def _lower(self) -> np.ndarray:
        """B's blocks b_plus^* U_j(x_{j+1}) on column block j; b_plus is on block j + 1."""
        return _adjoint(self.b_plus) @ self.u_ends[:-1]

    @cached_property
    def factors(self) -> Factorisation:
        """Sweeps over B, from its blocks."""
        return Factorisation(self._lower, self.b_plus)

    @cached_property
    def reduced_factors(self) -> AdjointFactorisation:
        """B_m's answers, from the sweeps over W = B_m^*: column block k of B_m
        holds b_plus[k] on block row k and A_{k+1} on block row k + 1."""
        return AdjointFactorisation(Factorisation(_adjoint(self.b_plus[:-1]),
                                                  _adjoint(self._lower[1:])))

    # Dense coupling matrices, built on demand for the identity suites and as
    # oracles; no solve or kernel reads them.
    @cached_property
    def B(self) -> np.ndarray:
        return _bidiagonal(self._lower, self.b_plus)

    @cached_property
    def C(self) -> np.ndarray:
        return _bidiagonal(0.5 * self.u_ends[:-1],
                           np.broadcast_to(0.5 * np.eye(self.n), self.b_plus.shape))

    @cached_property
    def B_m(self) -> np.ndarray:
        return self.B[:, self.n:-self.n]

    @cached_property
    def C_m(self) -> np.ndarray:
        return self.C[:, self.n:-self.n]

    @property
    def points(self) -> np.ndarray:
        return self.partition.points

    @cached_property
    def propagator_defect(self) -> float:
        """max_k ||U_k^* J U_k - J|| over the node states' left limits ``states.lefts``.

        Zero in exact arithmetic; computed, it is about cond(U) times the
        unit roundoff, so above ``TOL_IDENTITY`` the propagators are too
        ill-conditioned for the rank decisions built on them.  Not finite
        if a state overflowed.
        """
        U, J = self.states.lefts, self.problem.J
        return float(np.linalg.norm(_adjoint(U) @ J @ U - J, axis=(1, 2)).max())


def assemble(problem: Problem, partition: Partition,
             tol_sing: float = DEFAULT_TOL_SING) -> BlockSystem:
    """The partition's node states plus the coupling matrices.

    Every gap of every subinterval is exponentiated in one stacked call.
    Raises SingularAtom if a singular jump sits strictly inside a
    subinterval, i.e. the partition misses it.
    """
    return BlockSystem(problem, partition,
                       *_fundamental_matrices(problem, partition.points, tol_sing))


def build_system(problem: Problem, window, extra=(),
                 tol_sing: float = DEFAULT_TOL_SING) -> BlockSystem:
    """The block system of the partition at the window's singular points.

    ``extra`` positions are added to the partition as in make_partition.
    """
    return assemble(problem, _partition_step(problem, window, extra, tol_sing)[1], tol_sing)


@dataclass(frozen=True)
class MomentVectors:
    """Every moment of a right-hand side the block system consumes.

    ``jump_moments`` stacks dw(x_j) f(x_j); ``integrals`` stacks the
    subinterval integrals of U^* w f for the first N subintervals and
    ``last_integral`` holds the final one.  ``rhs`` is the right-hand side of
    the coupling equation and ``functional`` the combination that decides
    solvability with vanishing endpoint data.
    """

    f: L2Function
    jump_moments: np.ndarray
    integrals: np.ndarray
    last_integral: np.ndarray
    rhs: np.ndarray
    functional: np.ndarray


def moment_vectors(bs: BlockSystem, f: L2Function) -> MomentVectors:
    """Compute all moments of f that the coupling equation needs.

    The integrals sum f's pairing table on ``bs.states`` per subinterval;
    the table is built here on first use and kept on the states, so later
    pairings of the build's homogeneous solutions with f read it too
    (``propagation._table_pairings``).
    """
    problem, pts, n, N = bs.problem, bs.points, bs.n, bs.N
    w = problem.w
    _check_rhs(f, pts[0], pts[-1])
    # Only the partition points that carry a w-atom have a nonzero jump moment.
    jump_moments = np.zeros((N, n), dtype=complex)
    for j in np.flatnonzero(_member(pts[1:-1], w.atom_positions)).tolist():
        x = float(pts[j + 1])
        jump_moments[j] = w.jump(x) @ f.value(x, "balanced")
    jump_moments = jump_moments.reshape(-1)
    # Open subintervals: the w-atoms at the partition points are the jump moments.
    integrals = bs.states.table(w, pts[[0, -1]], f).integrals(N + 1)[..., 0]
    solved = np.linalg.solve(problem.J, integrals.T).T  # J^{-1} of each integral
    coupled = bs._lower @ solved[:N, :, None]
    rhs = jump_moments - coupled.reshape(-1)
    functional = rhs.copy()
    functional[-n:] += bs.b_plus[-1] @ solved[N]
    return MomentVectors(f, jump_moments, integrals[:N].reshape(-1), integrals[N],
                         rhs, functional)
