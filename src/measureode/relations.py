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

from .blocksystem import (
    DEFAULT_TOL_RANK,
    DEFAULT_TOL_SING,
    BlockSystem,
    MomentVectors,
    build_system,
    moment_vectors,
)
from .coefficients import MeasureMatrix, Problem
from .errors import MissingRHS, WindowMismatch
from .functions import L2Function
from .propagation import PiecewiseSolution, w_pairing
from .solutions import (DEFAULT_TOL_SOLVE, _consistency_bound, _lift_projected,
                        reconstruct, solve_system)

# A kernel element whose squared w-norm falls below this is the zero class.
DEGENERATE_NORM_TOL = 1e-10

__all__ = [
    "L2Function",
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
    """Norm induced by the weight; tiny negative squares clamp to zero."""
    square = inner_product(w, u, u, window)
    value = float(np.real(square))
    if value < -1e-12:
        raise ValueError(f"squared norm came out {value}, far below zero")
    return float(np.sqrt(max(value, 0.0)))


@dataclass
class K0Element:
    """One homogeneous solution with its weighted norm and degeneracy flag."""

    solution: PiecewiseSolution
    w_norm: float
    degenerate: bool


def kernel_K0(problem: Problem, window, extra_points=(),
              tol_sing: float = DEFAULT_TOL_SING,
              tol_rank: float = DEFAULT_TOL_RANK) -> list[K0Element]:
    """All homogeneous balanced solutions on the window, with w-norms.

    Elements whose w-norm vanishes represent the zero class of the weighted
    space and are flagged degenerate.
    """
    bs = build_system(problem, window, extra_points, tol_sing)
    result = solve_system(bs, tol_rank=tol_rank)
    elements = []
    for sol in result.kernel_basis:
        square = float(np.real(inner_product(problem.w, sol, sol, window)))
        square = max(square, 0.0)
        elements.append(K0Element(sol, float(np.sqrt(square)),
                                  square <= DEGENERATE_NORM_TOL))
    return elements


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
    residual: float


def t0_solve(problem: Problem, window, f: L2Function, extra_points=(),
             tol_sing: float = DEFAULT_TOL_SING,
             tol_rank: float = DEFAULT_TOL_RANK,
             tol_solve: float = DEFAULT_TOL_SOLVE):
    """Solve with both endpoint values forced to zero, or certify failure.

    Returns the balanced solution with vanishing right limit at the window
    start and vanishing left limit at the window end when the reduced system
    is consistent; otherwise returns an OrthogonalityCertificate whose
    solution pairs nontrivially with f.
    """
    if f is None:
        raise MissingRHS("the endpoint-vanishing solver needs a right-hand side")
    bs = build_system(problem, window, extra_points, tol_sing)
    moments = moment_vectors(bs, f.refined_against(problem.w))
    return t0_solve_system(bs, moments, tol_rank, tol_solve)


def t0_solve_system(bs: BlockSystem, moments: MomentVectors,
                    tol_rank: float = DEFAULT_TOL_RANK,
                    tol_solve: float = DEFAULT_TOL_SOLVE):
    """t0_solve on an already built block system, from the moments of its rhs.

    ``moments`` are the moment vectors on ``bs`` of the right-hand side
    refined against the weight, as t0_solve computes them.
    """
    problem = bs.problem
    f = moments.f
    target = moments.functional
    gamma = bs.reduced_factors.solve(target, tol_rank)
    residual = float(np.linalg.norm(bs.B_m @ gamma - target))

    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    kernel_vector = basis @ (basis.conj().T @ target)
    projection_norm = float(np.linalg.norm(kernel_vector))

    if residual <= _consistency_bound(target, tol_solve):
        n = bs.n
        first = np.zeros(n, dtype=complex)
        last = -np.linalg.solve(problem.J, moments.last_integral)
        stacked = np.concatenate([first, gamma, last])
        return reconstruct(bs, stacked, f)

    stacked = _lift_projected(bs, kernel_vector[:, None], tol_solve)[:, 0]
    witness = reconstruct(bs, stacked)
    pairing = w_pairing(problem.w, witness, f, bs.partition.window)
    moment_pairing = complex(np.vdot(kernel_vector, target))
    return OrthogonalityCertificate(kernel_vector, witness, pairing,
                                    moment_pairing, projection_norm, residual)


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
