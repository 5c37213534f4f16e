"""Partitions at singular jumps and the coupled block system.

Points where J + dq/2 is singular break unique continuation; they become
partition points x_1 < ... < x_N inside the window, with x_0 and x_{N+1} the
window ends.  Between them fundamental matrices exist, and matching the jump
rule at each x_j couples the subinterval coefficients through one sparse
block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import Problem
from .errors import DimensionMismatch, EmptyWindow, OutOfInterval
from .functions import L2Function
from .propagation import (DEFAULT_TOL_SING, FundamentalMatrix, _adjoint, _check_rhs,
                          _fundamental_matrices, _pairings, _partition_states)

DEFAULT_TOL_RANK = 1e-10
BORDERLINE_SING = 1e-6


@dataclass(frozen=True)
class JumpReport:
    """Singular-value data of J + dq/2 at one jump position."""

    position: float
    sigma_min: float
    sigma_max: float
    status: str  # "singular" | "borderline" | "regular"


def classify_jumps(problem: Problem, window,
                   tol_sing: float = DEFAULT_TOL_SING) -> list[JumpReport]:
    """Classify every q-atom inside the open window by how singular it is."""
    lo, hi = float(window[0]), float(window[1])
    a, b = problem.interval
    if not (a <= lo < hi <= b):
        raise OutOfInterval(f"window ({lo}, {hi}) is not inside [{a}, {b}]")
    reports = []
    positions, _ = problem.q.atoms_between(lo, hi)
    for x in positions:
        sigma = np.linalg.svd(problem.b_plus(float(x)), compute_uv=False)
        smin, smax = float(sigma[-1]), float(sigma[0])
        if smin <= tol_sing * max(1.0, smax):
            status = "singular"
        elif smin <= BORDERLINE_SING * max(1.0, smax):
            status = "borderline"
        else:
            status = "regular"
        reports.append(JumpReport(float(x), smin, smax, status))
    return reports


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
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise EmptyWindow(f"window ({lo}, {hi}) is empty")
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


def nullspace(matrix: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
    """Orthonormal basis of the kernel, columns; rank cut at tol_rank * sigma_max."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    cols = matrix.shape[1]
    if matrix.shape[0] == 0 or not matrix.any():
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(matrix)
    rank = int(np.sum(s > tol_rank * s[0]))
    return vh[rank:].conj().T


class Factorisation:
    """One factorisation of a coupling matrix (a full SVD).

    Min-norm solves and kernels are cut at rank tol_rank * sigma_max per
    call, so one factorisation serves every tolerance.
    """

    def __init__(self, matrix: np.ndarray):
        self.u, self.s, self.vh = np.linalg.svd(matrix)

    def rank(self, tol_rank: float = DEFAULT_TOL_RANK) -> int:
        """Singular values above tol_rank * sigma_max (none if all vanish)."""
        return int(np.sum(self.s > tol_rank * self.s[0]))

    def kernel(self, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        """Orthonormal basis of the kernel, columns."""
        return self.vh[self.rank(tol_rank):].conj().T

    def adjoint_kernel(self, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        """Orthonormal basis of the adjoint matrix's kernel, columns."""
        return self.u[:, self.rank(tol_rank):]

    def solve(self, rhs: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
        """Minimum-norm least-squares solution."""
        rhs = np.asarray(rhs, dtype=complex).reshape(-1)
        if rhs.size != self.u.shape[0]:
            raise DimensionMismatch("right-hand side length must match the row count")
        r = self.rank(tol_rank)
        return self.vh[:r].conj().T @ ((self.u[:, :r].conj().T @ rhs) / self.s[:r])


class BlockSystem:
    """All matrices coupling the subinterval coefficients of a partition.

    ``states`` holds the read-only node states of the whole partition, one
    build stepped through every gap, and ``transfers`` the matrices that
    carry them into each gap; each fundamental matrix's states and transfers
    are views of those, and solutions, moment vectors and pairings read them.
    ``b_plus`` and ``b_minus`` stack J +- dq/2 at the N interior points,
    ``u_ends`` the end values of the N + 1 fundamental matrices.  Every
    min-norm solve and kernel of B and of the reduced B_m comes from
    ``factors`` and ``reduced_factors``, each computed once.
    """

    def __init__(self, problem: Problem, partition: Partition,
                 fundamentals: list[FundamentalMatrix]):
        self.problem = problem
        self.partition = partition
        self.fundamentals = fundamentals
        interior = partition.interior
        n = problem.n
        N = partition.count
        self.n = n
        self.N = N

        self.b_plus = np.array([problem.b_plus(float(x)) for x in interior])
        self.b_minus = np.array([problem.b_minus(float(x)) for x in interior])
        self.states, self.transfers = _partition_states(fundamentals, partition.points)
        self.u_ends = self.states.lefts[
            np.searchsorted(self.states.nodes, partition.points[1:]) - 1]

        B = np.zeros((n * N, n * (N + 1)), dtype=complex)
        C = np.zeros_like(B)
        j = np.arange(N)
        # Block (j, j) and block (j, j + 1) of each block row j.
        B.reshape(N, n, N + 1, n)[j, :, j] = _adjoint(self.b_plus) @ self.u_ends[:N]
        B.reshape(N, n, N + 1, n)[j, :, j + 1] = self.b_plus
        C.reshape(N, n, N + 1, n)[j, :, j] = 0.5 * self.u_ends[:N]
        C.reshape(N, n, N + 1, n)[j, :, j + 1] = 0.5 * np.eye(n)
        self.B = B
        self.C = C
        self.B_m = B[:, n:-n]
        self.C_m = C[:, n:-n]

    @cached_property
    def factors(self) -> Factorisation:
        """Factorisation of B, computed on first use."""
        return Factorisation(self.B)

    @cached_property
    def reduced_factors(self) -> Factorisation:
        """Factorisation of B_m, computed on first use."""
        return Factorisation(self.B_m)

    @property
    def points(self) -> np.ndarray:
        return self.partition.points


def assemble(problem: Problem, partition: Partition,
             tol_sing: float = DEFAULT_TOL_SING) -> BlockSystem:
    """Fundamental matrices per subinterval plus the coupling matrices.

    Every gap of every subinterval is exponentiated in one stacked call.
    Raises SingularAtom if a singular jump sits strictly inside a
    subinterval, i.e. the partition misses it.
    """
    fundamentals = _fundamental_matrices(problem, partition.points, tol_sing)
    return BlockSystem(problem, partition, fundamentals)


def build_system(problem: Problem, window, extra=(),
                 tol_sing: float = DEFAULT_TOL_SING) -> BlockSystem:
    """The block system of the partition at the window's singular points.

    ``extra`` positions are added to the partition as in make_partition.
    """
    singular = find_singular_points(problem, window, tol_sing)
    return assemble(problem, make_partition(window, singular, extra), tol_sing)


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

    @property
    def tail_integrals(self) -> np.ndarray:
        """Stacked vector that is zero except for the last subinterval integral."""
        head = np.zeros(self.integrals.size - self.last_integral.size, dtype=complex)
        return np.concatenate([head, self.last_integral])


def moment_vectors(bs: BlockSystem, f: L2Function) -> MomentVectors:
    """Compute all moments of f that the coupling equation needs."""
    problem, pts, n, N = bs.problem, bs.points, bs.n, bs.N
    w = problem.w
    _check_rhs(f, pts[0], pts[-1])
    jump_moments = np.concatenate([w.jump(x) @ f.value(x, "balanced")
                                   for x in pts[1:-1].tolist()])
    # Open subintervals: the w-atoms at the partition points are the jump moments.
    integrals = _pairings(w, bs.states, f, pts)[..., 0]
    solved = np.linalg.solve(problem.J, integrals.T).T  # J^{-1} of each integral
    coupled = _adjoint(bs.b_plus) @ (bs.u_ends[:N] @ solved[:N, :, None])
    rhs = jump_moments - coupled.reshape(-1)
    functional = rhs.copy()
    functional[-n:] += bs.b_plus[-1] @ solved[N]
    return MomentVectors(f, jump_moments, integrals[:N].reshape(-1), integrals[N],
                         rhs, functional)
