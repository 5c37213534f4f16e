"""Identity suites: randomized numerical checks of the structural algebra.

Each suite measures defects of relations that hold exactly in real
arithmetic — commutation of the coupling matrices, conservation of the
indefinite form along fundamental matrices, kernel lifting, the functional
identity, Lagrange's identity and the endpoint-vanishing solve — and reports
them as named rows next to their tolerances.  The same rows back both the
command line and the test battery.
"""

from __future__ import annotations

import math
import sys
from functools import cache

import numpy as np

from .blocksystem import (TOL_IDENTITY, MomentVectors, _dense_rank, build_system,
                          moment_vectors, nullspace)
from .coefficients import SUITE_NAMES, Check, Problem, Tolerances
from .errors import InconsistentLift, LiftEndpointNonzero, NotInKernel
from .functions import L2Function
from .fuzz import random_f, random_instance
from .propagation import _adjoint, _contract, _pairings
from .relations import (OrthogonalityCertificate, _basis_squares, _norm_from_square,
                        lagrange_check, t0_solve_system)
from .solutions import (_consistency_bound, _lift_projected, compact_support_solutions,
                        functional_identity_defect, reconstruct, solve_system)

TOL_LIFT = 1e-9          # lifted-solution defects
TOL_FUNCTIONAL = 1e-9    # functional identity, scaled by data size
TOL_PAIRING = 1e-8       # integral pairings
TOL_ENDPOINT = 1e-9      # endpoint-vanishing solve
CERTIFICATE_TRIGGER = 1e-6


def _sup_norm(f: L2Function) -> float:
    """The largest norm of f's piece values and atom values."""
    values = np.concatenate([f.piece_values, f.atom_values])
    return float(np.linalg.norm(values, axis=-1).max())


def _rand_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _row(name: str, defect: float, tolerance: float) -> Check:
    """A row that passes when the defect is at most the tolerance."""
    return Check(name, defect, tolerance, defect <= tolerance)


def suite_cbbc(bs, tag: str, tol_rank: float) -> list[Check]:
    n, N = bs.n, bs.N
    expected = np.zeros((n * (N + 1), n * (N + 1)), dtype=complex)
    expected[:n, :n] = -bs.problem.J
    expected[-n:, -n:] = bs.problem.J
    full = bs.C.conj().T @ bs.B - bs.B.conj().T @ bs.C - expected
    reduced = bs.C_m.conj().T @ bs.B - bs.B_m.conj().T @ bs.C
    # ker B* from its own singular values, so the ledger compares two
    # independent ranks.
    dim_ker = bs.factors.kernel(tol_rank).shape[1]
    adjoint = bs.B.conj().T
    dim_adj = adjoint.shape[1] - _dense_rank(adjoint, tol_rank)
    bookkeeping = abs(dim_ker - n - dim_adj)
    return [_row(f"cbbc full [{tag}]", float(np.linalg.norm(full)), TOL_IDENTITY),
            _row(f"cbbc reduced [{tag}]", float(np.linalg.norm(reduced)), TOL_IDENTITY),
            _row(f"cbbc rank bookkeeping [{tag}]", float(bookkeeping), 0.0)]


def suite_wronskian(bs, samples: int, tag: str) -> list[Check]:
    if samples < 2:
        raise ValueError("samples must be at least 2")
    J = bs.problem.J
    pts = bs.points
    # Left limits: at each partition point the end value of the subinterval before.
    values, _ = bs.states.limits(np.concatenate(
        [np.linspace(lo, hi, samples) for lo, hi in zip(pts[:-1], pts[1:])]))
    worst, transfer_worst = (
        float(np.max(np.linalg.norm(_adjoint(M) @ J @ M - J, axis=(1, 2)), initial=0.0))
        for M in (values, bs.transfers))
    return [_row(f"wronskian fundamental [{tag}]", worst, TOL_IDENTITY),
            _row(f"wronskian transfer [{tag}]", transfer_worst, TOL_IDENTITY)]


def suite_lift(bs, tag: str, tol_solve: float, tol_rank: float) -> list[Check]:
    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    # The basis columns already lie in ker B_m*: one batched lift, no projection.
    lifts = _lift_projected(bs, np.column_stack([basis, basis.sum(axis=1)]), tol_solve)
    lifts, combined = lifts[:, :-1], lifts[:, -1]
    annihilated = float(np.linalg.norm(bs.B @ lifts, axis=0).max())
    matched = float(np.linalg.norm(bs.C @ lifts - basis, axis=0).max())
    linearity = float(np.linalg.norm(combined - lifts.sum(axis=1)))
    return [_row(f"lift annihilated [{tag}]", annihilated, TOL_LIFT),
            _row(f"lift matches balanced values [{tag}]", matched, TOL_LIFT),
            _row(f"lift linearity [{tag}]", linearity, TOL_LIFT)]


def suite_functional(bs, f: L2Function, rng: np.random.Generator, tag: str,
                     tol_solve: float, tol_rank: float, *,
                     moments: MomentVectors | None = None) -> list[Check]:
    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    uhat = basis @ _rand_complex(rng, basis.shape[1])
    if moments is None:
        moments = moment_vectors(bs, f)
    defect = functional_identity_defect(bs, moments, uhat,
                                        Tolerances(rank=tol_rank, solve=tol_solve))
    bound = TOL_FUNCTIONAL * (1.0 + _sup_norm(f)) \
        * (1.0 + float(np.linalg.norm(uhat)))
    return [_row(f"functional identity [{tag}]", defect, bound)]


def _solution_with_rhs(bs, f: L2Function, rng: np.random.Generator,
                       tols: Tolerances, moments: MomentVectors | None = None):
    """A genuine balanced solution on the window, with the rhs it solves.

    Uses the inhomogeneous solve when consistent; otherwise falls back to a
    random homogeneous solution (rhs None, meaning zero).  ``moments`` are
    f's, computed here when not given.
    """
    if moments is None:
        moments = moment_vectors(bs, f)
    result = solve_system(bs, moments, tols)
    combo = result.kernel_coefficients @ _rand_complex(
        rng, result.kernel_dimension)
    if result.consistent:
        return reconstruct(bs, result.coefficients + combo, f), f
    return reconstruct(bs, combo), None


def suite_lagrange(bs, f: L2Function, g: L2Function, rng: np.random.Generator,
                   tag: str, tol_solve: float, tol_rank: float, *,
                   moments: MomentVectors | None = None) -> list[Check]:
    problem = bs.problem
    window = bs.partition.window
    tols = Tolerances(rank=tol_rank, solve=tol_solve)
    u, fu = _solution_with_rhs(bs, f, rng, tols, moments)
    v, gv = _solution_with_rhs(bs, g, rng, tols)
    report = lagrange_check(problem, window, (u, fu), (v, gv))
    compact = compact_support_solutions(bs, tols)
    compact_defect = 0.0
    if compact:
        compact_defect = lagrange_check(problem, window, (compact[0], None), (v, gv)).defect
    return [_row(f"lagrange pairing [{tag}]", report.defect, TOL_PAIRING),
            _row(f"lagrange compact support [{tag}]", compact_defect, TOL_PAIRING)]


def orthogonal_rhs(rng: np.random.Generator, bs,
                   tol_rank: float) -> L2Function:
    """Random representable function orthogonal to every homogeneous solution.

    Constant on each partition subinterval with zero values at the weight
    atoms; the piece values are drawn from the nullspace of the Gram matrix
    pairing each homogeneous solution with each indicator of a subinterval and
    a component.  On subinterval i a homogeneous solution is U_i c_i, so its
    pairing with the indicator of (i, c) is c_i^* times the integral of
    U_i^* w e_c there: one pairing of the fundamental matrices with the n
    indicator columns gives them all.
    """
    problem, window, edges, n = bs.problem, bs.partition.window, bs.points, bs.n
    pieces = len(edges) - 1
    positions, _ = problem.w.atoms_between(*window)
    zero_atoms = {float(x): np.zeros(n, dtype=complex) for x in positions}

    indicators = [L2Function(window, list(window), [e], zero_atoms)
                  for e in np.eye(n, dtype=complex)]
    moments = _pairings(problem.w, bs.states, indicators, edges)
    kernel = bs.factors.kernel(tol_rank).reshape(pieces, n, -1)
    gram = np.einsum("iak,iac->kic", kernel.conj(), moments).reshape(-1, pieces * n)
    span = nullspace(gram, tol_rank)
    coeffs = span @ _rand_complex(rng, span.shape[1])
    return L2Function(window, edges, coeffs.reshape(pieces, n), zero_atoms)


def _t0_result_rows(bs, moments: MomentVectors, result, kernel, kernel_norms,
                    prefix: str, tag: str, tol_rank: float) -> list[Check]:
    """Rows for one t0 result: a certificate's two checks, or a solution's three.

    ``kernel`` holds the coefficient rows (N+1, n, d) of every homogeneous
    solution on the window as columns, and ``kernel_norms()`` their w-norms.
    A solution's "range orthogonal to kernel" row pairs all columns with f
    in one contraction of f's pairing table (``moments.table``, built by
    ``moment_vectors``), and reads f's w-norm there; the kernel norms are
    asked for only then, so a certificate costs no w-norm.
    """
    f = moments.f
    lo, hi = bs.partition.window
    rows = []
    if isinstance(result, OrthogonalityCertificate):
        bound = TOL_PAIRING * (1.0 + _sup_norm(f)) \
            * (1.0 + float(np.linalg.norm(result.kernel_vector)))
        two_route = abs(result.pairing - result.moment_pairing)
        rows.append(_row(f"{prefix} certificate two-route [{tag}]", two_route, bound))
        if result.projection_norm > CERTIFICATE_TRIGGER:
            floor = 0.5 * result.projection_norm ** 2
            rows.append(Check(f"{prefix} certificate nonzero [{tag}]",
                              abs(result.pairing), floor,
                              abs(result.pairing) > floor))
        return rows
    solution = result
    endpoint = float(np.linalg.norm(solution.evaluate(lo, "right"))) \
        + float(np.linalg.norm(solution.evaluate(hi, "left")))
    rows.append(_row(f"{prefix} endpoints vanish [{tag}]", endpoint, TOL_ENDPOINT))

    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    proj = float(np.linalg.norm(basis.conj().T @ moments.functional))
    rows.append(_row(f"{prefix} solvable means orthogonal [{tag}]", proj, CERTIFICATE_TRIGGER))

    norm_f = _norm_from_square(moments.table.square)
    pairings = np.abs(_contract(moments.table, kernel, np.ones((1, 1, 1)))[0, :, 0])
    worst = float(np.max(pairings / (1.0 + norm_f * kernel_norms())))
    rows.append(_row(f"{prefix} range orthogonal to kernel [{tag}]", worst, TOL_PAIRING))
    return rows


def suite_t0(bs, f: L2Function, extra_points, rng: np.random.Generator,
             tag: str, tol_sing: float, tol_rank: float,
             tol_solve: float, *, moments: MomentVectors | None = None) -> list[Check]:
    """Endpoint-vanishing solves for f and a random orthogonal rhs, on ``bs``.

    ``extra_points`` and ``tol_sing`` have no effect, as ``bs`` is built;
    they stay only for the call shape of perfbench's traced verify-fuzz op,
    until ROADMAP item 6 moves the suites to ``tols``.  ``moments``, when
    given, are f's.  The homogeneous basis is one set of coefficient rows
    for both results, and its w-norms are read at most once.
    """
    tols = Tolerances(tol_sing, tol_rank, tol_solve)
    kernel = bs.factors.kernel(tol_rank).reshape(bs.N + 1, bs.n, -1)

    @cache
    def kernel_norms() -> np.ndarray:
        return np.sqrt(_basis_squares(bs, kernel))

    if moments is None:
        moments = moment_vectors(bs, f)
    result = t0_solve_system(bs, moments, tols)
    rows = _t0_result_rows(bs, moments, result, kernel, kernel_norms, "t0", tag, tol_rank)
    f_perp = orthogonal_rhs(rng, bs, tol_rank)
    moments_perp = moment_vectors(bs, f_perp)
    result_perp = t0_solve_system(bs, moments_perp, tols)
    if isinstance(result_perp, OrthogonalityCertificate):
        rows.append(Check(f"t0 orthogonal rhs solvable [{tag}]", result_perp.projection_norm,
                          _consistency_bound(moments_perp.functional, tol_solve), False))
    else:
        rows.extend(_t0_result_rows(bs, moments_perp, result_perp, kernel, kernel_norms,
                                    "t0 orthogonal rhs", tag, tol_rank))
    return rows


def run_suites(problem: Problem, window, f: L2Function | None = None,
               extra_points=(), checks=SUITE_NAMES,
               rng: np.random.Generator | None = None, samples: int = 64,
               tols: Tolerances = Tolerances(), tag: str = "input") -> list[Check]:
    """Run the selected identity suites against one problem instance.

    ``f`` is synthesized pseudo-randomly when a suite needs a right-hand
    side and none is given; all randomness comes from ``rng``.  f's moment
    vectors are computed once and passed to the functional, lagrange and t0
    suites as ``moments``; called without it, each computes its own.  A
    row whose defect or tolerance is NaN or inf becomes a failing row named
    "non-finite: ..." with the defect ``sys.float_info.max``; a non-finite
    tolerance becomes 0.
    """
    unknown = sorted(set(checks) - set(SUITE_NAMES))
    if unknown:
        raise ValueError(f"unknown check suite '{unknown[0]}'")
    if rng is None:
        rng = np.random.default_rng(0)
    selected = [name for name in SUITE_NAMES if name in checks]

    bs = build_system(problem, window, extra_points, tols.sing)

    moments = None
    if {"functional", "lagrange", "t0"} & set(selected):
        if f is None:
            f = random_f(rng, problem, window)
        moments = moment_vectors(bs, f)

    rows: list[Check] = []
    for name in selected:
        try:
            if name == "cbbc":
                rows.extend(suite_cbbc(bs, tag, tols.rank))
            elif name == "wronskian":
                rows.extend(suite_wronskian(bs, samples, tag))
            elif name == "lift":
                rows.extend(suite_lift(bs, tag, tols.solve, tols.rank))
            elif name == "functional":
                rows.extend(suite_functional(bs, f, rng, tag, tols.solve, tols.rank,
                                             moments=moments))
            elif name == "lagrange":
                g = random_f(rng, problem, window)
                rows.extend(suite_lagrange(bs, f, g, rng, tag, tols.solve, tols.rank,
                                           moments=moments))
            elif name == "t0":
                rows.extend(suite_t0(bs, f, extra_points, rng, tag,
                                     tols.sing, tols.rank, tols.solve, moments=moments))
        except (InconsistentLift, NotInKernel, LiftEndpointNonzero) as exc:
            # A lift the suite relies on broke down: one failing row, not a
            # crash.
            rows.append(Check(f"{name} raised {type(exc).__name__} [{tag}]",
                              1.0, 0.0, False))
    return [row if math.isfinite(row.measured) and math.isfinite(row.tolerance) else
            Check(f"non-finite: {row.name}", sys.float_info.max,
                  row.tolerance if math.isfinite(row.tolerance) else 0.0, False)
            for row in rows]


def run_random_suites(seed, count: int, checks=SUITE_NAMES, samples: int = 64,
                      tols: Tolerances = Tolerances()) -> list[Check]:
    """Run the suites over ``count`` random instances drawn from ``seed``.

    ``seed`` is an int or a numpy Generator, which is drawn from in place.
    """
    if count < 0:
        raise ValueError("count must not be negative")
    rng = np.random.default_rng(seed)
    rows: list[Check] = []
    for index in range(count):
        instance = random_instance(rng)
        rows.extend(run_suites(instance.problem, instance.window, instance.f,
                               instance.extra_points, checks, rng, samples, tols,
                               tag=f"random {index}"))
    return rows
