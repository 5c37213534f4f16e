"""Solving the coupled block system and reconstructing balanced solutions.

The coupling matrix acts on stacked subinterval coefficients.  Its kernel
corresponds one-to-one to homogeneous balanced solutions; kernel vectors of
the adjoint reduced matrix lift to homogeneous solutions with prescribed
balanced values at the partition points, and kernel vectors of the full
adjoint lift to solutions supported inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocksystem import BlockSystem, MomentVectors
# DEFAULT_TOL_SOLVE is imported to be re-exported.
from .coefficients import DEFAULT_TOL_SOLVE, Tolerances
from .errors import (
    DimensionMismatch,
    InconsistentLift,
    LiftEndpointNonzero,
    NotInKernel,
)
from .functions import L2Function
from .propagation import PiecewiseSolution, _adjoint, _contract

# How far a claimed kernel vector may sit from the computed kernel.
KERNEL_MEMBERSHIP_TOL = 1e-6


def reconstruct(bs: BlockSystem, coefficients: np.ndarray,
                f: L2Function | None = None) -> PiecewiseSolution:
    """Balanced solution from one stacked coefficient vector (N+1 blocks), on ``bs.states``."""
    coefficients = np.asarray(coefficients, dtype=complex).reshape(-1)
    if coefficients.size != bs.n * (bs.N + 1):
        raise DimensionMismatch(
            f"expected {bs.n * (bs.N + 1)} stacked coefficients, got {coefficients.size}")
    return PiecewiseSolution(bs.problem, bs.states, coefficients.reshape(-1, bs.n), f)


def _consistency_bound(rhs: np.ndarray, tol_solve: float) -> float:
    """Largest residual a solve of the coupling equation for rhs may leave."""
    return tol_solve * (1.0 + float(np.linalg.norm(rhs)))


@dataclass
class SolutionSet:
    """Outcome of solving the coupling equation for one right-hand side."""

    consistent: bool
    residual: float
    bound: float  # consistent means residual <= bound
    coefficients: np.ndarray
    particular: PiecewiseSolution | None
    kernel_coefficients: np.ndarray  # columns span the nullspace
    kernel_basis: list[PiecewiseSolution]
    propagator_defect: float  # the system's BlockSystem.propagator_defect

    @property
    def kernel_dimension(self) -> int:
        return self.kernel_coefficients.shape[1]


def _check_moments(bs: BlockSystem, moments: MomentVectors) -> None:
    """ValueError unless ``moments`` were computed on the node states of ``bs``."""
    if moments.states is not bs.states:
        raise ValueError("moment vectors were computed on another block system")


def solve_system(bs: BlockSystem, moments: MomentVectors | None = None,
                 tols: Tolerances = Tolerances()) -> SolutionSet:
    """Particular solution (minimum norm) plus a basis of homogeneous ones.

    With no moment data the right-hand side is zero: the particular solution
    is the zero solution and the kernel basis spans all homogeneous balanced
    solutions on the window.  ``propagator_defect`` says whether the
    propagators the answer rests on are well conditioned.  Moments of
    another build raise ValueError.
    """
    if moments is None:
        rhs = np.zeros(bs.n * bs.N, dtype=complex)
        coeffs = np.zeros(bs.n * (bs.N + 1), dtype=complex)
    else:
        _check_moments(bs, moments)
        rhs = moments.rhs
        coeffs = bs.factors.solve(rhs, tols.rank)
    residual = float(np.linalg.norm(bs.factors.apply(coeffs) - rhs))
    bound = _consistency_bound(rhs, tols.solve)
    consistent = residual <= bound

    kernel_coeffs = bs.factors.kernel(tols.rank)
    kernel_basis = [reconstruct(bs, kernel_coeffs[:, i])
                    for i in range(kernel_coeffs.shape[1])]
    particular = None
    if consistent:
        f = moments.f if moments is not None else None
        particular = reconstruct(bs, coeffs, f)
    return SolutionSet(consistent, residual, bound, coeffs, particular,
                       kernel_coeffs, kernel_basis, bs.propagator_defect)


def _adjoint_kernel_projection(bs: BlockSystem, v: np.ndarray, tol_rank: float) -> np.ndarray:
    """Orthogonal projection of v onto the computed ker(B_m^*)."""
    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    return basis @ (basis.conj().T @ v)


def _project_onto_adjoint_kernel(bs: BlockSystem, uhat: np.ndarray,
                                 tol_rank: float) -> np.ndarray:
    """Orthogonal projection of uhat onto ker(B_m^*): ValueError if uhat is not
    finite (the distance test would pass a NaN), NotInKernel if it is far."""
    uhat = np.asarray(uhat, dtype=complex).reshape(-1)
    if not np.isfinite(uhat).all():
        raise ValueError("kernel vector contains non-finite entries")
    if uhat.size != bs.n * bs.N:
        raise DimensionMismatch(
            f"expected a vector of length {bs.n * bs.N}, got {uhat.size}")
    projected = _adjoint_kernel_projection(bs, uhat, tol_rank)
    distance = float(np.linalg.norm(uhat - projected))
    if distance > KERNEL_MEMBERSHIP_TOL * max(1.0, float(np.linalg.norm(uhat))):
        raise NotInKernel(
            f"vector sits {distance:.3e} away from the adjoint kernel")
    return projected


def lift_kernel_vector(bs: BlockSystem, uhat: np.ndarray,
                       tols: Tolerances = Tolerances()) -> np.ndarray:
    """Stacked coefficients of the homogeneous solution with balanced values uhat.

    ``uhat`` holds the desired balanced values at the interior partition
    points and must lie in the kernel of the adjoint reduced coupling matrix;
    it is replaced by its projection onto the computed kernel when the
    distance is small, rejected otherwise (ValueError if it is not finite,
    NotInKernel if it is far).  The two closed-form reconstruction
    formulas (one stripping the first block, one the last) are both evaluated
    and must agree on the overlap, to within a multiple of ``tols.solve``.
    """
    projected = _project_onto_adjoint_kernel(bs, uhat, tols.rank)
    return _lift_projected(bs, projected[:, None], tols.solve)[:, 0]


def _lift_projected(bs: BlockSystem, uhat: np.ndarray, tol: float) -> np.ndarray:
    """Lift of each column of uhat (nN, K), already in ker B_m^*: (n(N+1), K).

    Overlap and post-checks (B c = 0, C c = uhat) are bounded per column and
    computed block by block from ``b_plus``, ``u_ends`` and B's blocks ``_lower``.
    """
    J = bs.problem.J
    n, N = bs.n, bs.N
    b_plus_adj = _adjoint(bs.b_plus)
    blocks = uhat.reshape(N, n, -1)
    # Strip-first formula: coefficients c_1 .. c_N.
    top = -np.linalg.solve(J, b_plus_adj) @ blocks
    # Strip-last formula: coefficients c_0 .. c_{N-1}, from the adjoint of B's blocks.
    bottom = np.linalg.solve(J, _adjoint(bs._lower)) @ blocks

    scale = np.maximum(1.0, np.linalg.norm(uhat, axis=0))
    overlap = np.linalg.norm(top[:-1] - bottom[1:], axis=1).max(axis=0)
    if (overlap > 10.0 * tol * scale).any():
        raise InconsistentLift(
            f"reconstruction formulas disagree by {overlap.max():.3e} on the overlap")
    c = np.concatenate([bottom[:1], 0.5 * (top[:-1] + bottom[1:]), top[-1:]])

    ends = bs.u_ends[:-1] @ c[:-1]
    residual = np.linalg.norm(b_plus_adj @ ends + bs.b_plus @ c[1:], axis=(0, 1))
    matched = np.linalg.norm(0.5 * (ends + c[1:]) - blocks, axis=(0, 1))
    if (np.maximum(residual, matched) > 100.0 * tol * scale).any():
        raise InconsistentLift(
            f"lift failed post-check: coupling residual {residual.max():.3e}, "
            f"balanced-value mismatch {matched.max():.3e}")
    return c.reshape(n * (N + 1), -1)


def _lift_and_pair(bs: BlockSystem, uhat: np.ndarray, moments: MomentVectors,
                   tol_solve: float) -> tuple[PiecewiseSolution, complex, complex]:
    """The solution u lifted from uhat, already in ker B_m^*, with its two pairings:
    the integral of u^* w f over the window, from f's table in ``moments``,
    and uhat^* functional, equal in exact arithmetic."""
    u = reconstruct(bs, _lift_projected(bs, uhat[:, None], tol_solve)[:, 0])
    pairing = _contract(moments.table, u.coefficients[..., None], np.ones((1, 1, 1)))
    return u, complex(pairing[0, 0, 0]), complex(np.vdot(uhat, moments.functional))


def _compact_lifts(bs: BlockSystem, tols: Tolerances = Tolerances()
                   ) -> list[tuple[PiecewiseSolution, float]]:
    """Solution lifted from each ker B^* vector, with its endpoint defect.

    ker B^* lies in ker B_m^*, so the columns are lifted without projection.
    The defect is the larger norm of the lift's first and last coefficient
    blocks, taken before they are set to zero.
    """
    basis = bs.factors.adjoint_kernel(tols.rank)
    if basis.shape[1] == 0:
        return []
    n = bs.n
    uhat = basis / basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    stacked = _lift_projected(bs, uhat, tols.solve)
    edges = np.maximum(np.linalg.norm(stacked[:n], axis=0),
                       np.linalg.norm(stacked[-n:], axis=0))
    if (edges > 10.0 * tols.solve * np.maximum(1.0, np.linalg.norm(uhat, axis=0))).any():
        raise LiftEndpointNonzero(
            f"endpoint coefficient blocks have norm {edges.max():.3e}")
    stacked[:n] = 0.0
    stacked[-n:] = 0.0
    return [(reconstruct(bs, stacked[:, k]), float(edges[k]))
            for k in range(basis.shape[1])]


def compact_support_solutions(bs: BlockSystem, tols: Tolerances = Tolerances()
                              ) -> list[PiecewiseSolution]:
    """Homogeneous solutions vanishing identically outside the interior points.

    One solution per kernel vector of the adjoint coupling matrix.  The first
    and last coefficient blocks of each lift are checked to vanish and then
    set to exactly zero, so evaluation outside the support returns exact
    zeros.  Each kernel vector is scaled so its largest balanced value is
    exactly 1, which pins the otherwise arbitrary basis scaling.
    """
    return [solution for solution, _ in _compact_lifts(bs, tols)]


def functional_identity_defect(bs: BlockSystem, moments: MomentVectors,
                               uhat: np.ndarray,
                               tols: Tolerances = Tolerances()) -> float:
    """|uhat^* functional - integral of u^* w f| for the lifted solution u.

    The pairing of the functional moment vector with a kernel vector of the
    adjoint reduced matrix equals the weighted pairing of the lifted
    homogeneous solution with the right-hand side; this returns the absolute
    mismatch between the two computations (ValueError for a non-finite uhat
    or another build's moments).
    """
    _check_moments(bs, moments)
    projected = _project_onto_adjoint_kernel(bs, uhat, tols.rank)
    _, pairing, moment_pairing = _lift_and_pair(bs, projected, moments, tols.solve)
    return abs(moment_pairing - pairing)
