"""Weighted pairings, homogeneous kernels and the endpoint-vanishing solver.

The weight w turns functions on a window into a (possibly degenerate) inner
product space.  Homogeneous balanced solutions form the kernel of the
maximal relation there; right-hand sides reachable with both endpoint values
forced to zero are exactly those orthogonal to the homogeneous solutions
supported inside the window, and when solving fails the failure is
certified by such a solution with a nonzero pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocksystem import BlockSystem, MomentVectors, build_system, moment_vectors
from .coefficients import MeasureMatrix, Problem, Tolerances
from .errors import MissingRHS, WindowMismatch
from .functions import L2Function
from .propagation import PiecewiseSolution, _squares, w_pairing
from .solutions import (_adjoint_kernel_projection, _consistency_bound, _lift_and_pair,
                        reconstruct, solve_system)

# A kernel element whose squared w-norm falls below this is the zero class.
DEGENERATE_NORM_TOL = 1e-10

__all__ = [
    "L2Function",
    "K0Basis",
    "K0Element",
    "OrthogonalityCertificate",
    "PairingReport",
    "inner_product",
    "kernel_K0",
    "lagrange_check",
    "t0_solve",
    "t0_solve_system",
    "weighted_norm",
]


def inner_product(w: MeasureMatrix, u, v, window=None) -> complex:
    """Pairing of u against v in the weighted space, conjugate-linear in u.

    Both arguments may be balanced solutions or representable functions; they
    must cover the window (default: the window of u).
    """
    if window is None:
        window = u.window
    return w_pairing(w, u, v, window)


def weighted_norm(w: MeasureMatrix, u, window=None) -> float:
    """Norm induced by the weight; tiny negative squares clamp to zero.

    A homogeneous solution of a block system reads the pairing table of the
    build with itself, cached on the build's node states, so the norms of a
    whole kernel basis take exponentials only for the first.
    """
    return _norm_from_square(float(np.real(inner_product(w, u, u, window))))


def _norm_from_square(value: float) -> float:
    """A w-norm from its square; tiny negative squares clamp to zero."""
    if value < -1e-12:
        raise ValueError(f"squared norm came out {value}, far below zero")
    return float(np.sqrt(max(value, 0.0)))


def _basis_squares(bs: BlockSystem, coefficients: np.ndarray) -> np.ndarray:
    """Squared w-norms over the window of the homogeneous solutions whose
    coefficient rows are the columns of ``coefficients`` (n(N+1), d) or
    (N+1, n, d), clamped at zero.

    The diagonal of their Gram pairing, read from the build's pairing table
    with itself (``_squares``): the d x d Gram is never formed.
    """
    table = bs.states.table(bs.problem.w, bs.partition.window)
    squares = _squares(table, coefficients.reshape(bs.N + 1, bs.n, -1))
    return np.maximum(np.real(squares), 0.0)


@dataclass
class K0Element:
    """One homogeneous solution with its weighted norm and degeneracy flag."""

    solution: PiecewiseSolution
    w_norm: float
    degenerate: bool


class K0Basis(list):
    """The K0Elements of one window, with ``propagator_defect``, that of the
    block system they come from (``BlockSystem.propagator_defect``)."""

    def __init__(self, elements, propagator_defect: float):
        super().__init__(elements)
        self.propagator_defect = propagator_defect


def kernel_K0(problem: Problem, window, extra_points=(),
              tols: Tolerances = Tolerances()) -> K0Basis:
    """All homogeneous balanced solutions on the window, with w-norms.

    Elements whose w-norm vanishes represent the zero class of the weighted
    space and are flagged degenerate.  The squared norms are the diagonal
    of the basis's Gram pairing, read from the build's pairing table and
    clamped at zero (``_basis_squares``).
    """
    bs = build_system(problem, window, extra_points, tols.sing)
    result = solve_system(bs, tols=tols)
    squares = _basis_squares(bs, result.kernel_coefficients).tolist()
    return K0Basis([K0Element(sol, float(np.sqrt(square)), square <= DEGENERATE_NORM_TOL)
                    for sol, square in zip(result.kernel_basis, squares)],
                   result.propagator_defect)


@dataclass
class OrthogonalityCertificate:
    """Witness that a right-hand side is not orthogonal to the inner kernel.

    ``kernel_vector`` lies in the kernel of the adjoint reduced coupling
    matrix, ``solution`` is the homogeneous solution it lifts to (supported
    between the first and last interior partition points when the vector is
    in the full adjoint kernel), ``pairing`` is its weighted pairing with the
    right-hand side and ``moment_pairing`` the same number computed from
    moment data alone.
    """

    kernel_vector: np.ndarray
    solution: PiecewiseSolution
    pairing: complex
    moment_pairing: complex
    projection_norm: float


def t0_solve(problem: Problem, window, f: L2Function, extra_points=(),
             tols: Tolerances = Tolerances()):
    """Solve with both endpoint values forced to zero, or certify failure.

    Returns the balanced solution with vanishing right limit at the window
    start and vanishing left limit at the window end when the reduced system
    is consistent; otherwise returns an OrthogonalityCertificate whose
    solution pairs nontrivially with f.
    """
    if f is None:
        raise MissingRHS("the endpoint-vanishing solver needs a right-hand side")
    bs = build_system(problem, window, extra_points, tols.sing)
    return t0_solve_system(bs, moment_vectors(bs, f), tols)


def t0_solve_system(bs: BlockSystem, moments: MomentVectors,
                    tols: Tolerances = Tolerances()):
    """t0_solve on ``bs``, from the moments of its rhs.

    The rhs is solvable when the projection of its functional moment vector
    onto ker B_m^* is within the consistency bound; only then is B_m solved.
    """
    target = moments.functional
    kernel_vector = _adjoint_kernel_projection(bs, target, tols.rank)
    projection_norm = float(np.linalg.norm(kernel_vector))

    if projection_norm <= _consistency_bound(target, tols.solve):
        gamma = bs.reduced_factors.solve(target, tols.rank)
        last = -np.linalg.solve(bs.problem.J, moments.last_integral)
        stacked = np.concatenate([np.zeros(bs.n, dtype=complex), gamma, last])
        return reconstruct(bs, stacked, moments.f)

    witness, pairing, moment_pairing = _lift_and_pair(bs, kernel_vector, moments, tols.solve)
    return OrthogonalityCertificate(kernel_vector, witness, pairing,
                                    moment_pairing, projection_norm)


@dataclass
class PairingReport:
    """Both sides of the boundary-pairing identity for two solution pairs."""

    lhs: complex
    rhs: complex
    defect: float
    boundary_start: complex
    boundary_end: complex


def lagrange_check(problem: Problem, window, pair_uf, pair_vg) -> PairingReport:
    """Compare <v, f> - <g, u> with the boundary terms of v^* J u.

    ``pair_uf`` and ``pair_vg`` are (solution, rhs) tuples solving the system
    for their respective right-hand sides (rhs None means homogeneous).  The
    boundary term at the window start uses right limits, the one at the end
    left limits.
    """
    u, f = pair_uf
    v, g = pair_vg
    lo, hi = float(window[0]), float(window[1])
    for sol in (u, v):
        if not sol.covers(lo, hi):
            raise WindowMismatch("both solutions must cover the window")
    w = problem.w
    lhs = 0.0 + 0.0j
    if f is not None:
        lhs += w_pairing(w, v, f, (lo, hi))
    if g is not None:
        lhs -= w_pairing(w, g, u, (lo, hi))

    J = problem.J
    end = complex(v.evaluate(hi, "left").conj() @ (J @ u.evaluate(hi, "left")))
    start = complex(v.evaluate(lo, "right").conj() @ (J @ u.evaluate(lo, "right")))
    rhs = end - start
    return PairingReport(lhs, rhs, abs(lhs - rhs), start, end)
