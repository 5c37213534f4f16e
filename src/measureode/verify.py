"""Identity suites: randomized numerical checks of the structural algebra.

Each suite measures defects of relations that hold exactly in real
arithmetic — commutation of the coupling matrices, conservation of the
indefinite form along fundamental matrices, kernel lifting, the functional
identity, Lagrange's identity and the endpoint-vanishing solve — and reports
them as named rows next to their tolerances.  The same rows back both the
command line and the test battery.
"""

from __future__ import annotations

import numpy as np

from .blocksystem import (DEFAULT_TOL_RANK, DEFAULT_TOL_SING, MomentVectors,
                          build_system, moment_vectors, nullspace)
from .coefficients import Check, Problem
from .errors import InconsistentLift, LiftEndpointNonzero, NotInKernel
from .functions import L2Function
from .fuzz import random_f, random_instance
from .propagation import _adjoint, _pairings
from .relations import (OrthogonalityCertificate, inner_product,
                        lagrange_check, t0_solve_system, weighted_norm)
from .solutions import (DEFAULT_TOL_SOLVE, _lift_projected, compact_support_solutions,
                        functional_identity_defect, reconstruct, solve_system)

SUITE_NAMES = ("cbbc", "wronskian", "lift", "functional", "lagrange", "t0")

TOL_IDENTITY = 1e-10     # exact matrix identities
TOL_LIFT = 1e-9          # lifted-solution defects
TOL_FUNCTIONAL = 1e-9    # functional identity, scaled by data size
TOL_PAIRING = 1e-8       # integral pairings
TOL_ENDPOINT = 1e-9      # endpoint-vanishing solve
CERTIFICATE_TRIGGER = 1e-6


def _sup_norm(f: L2Function) -> float:
    norms = [float(np.linalg.norm(v)) for v in f.piece_values]
    norms += [float(np.linalg.norm(v)) for v in f.atom_value_map().values()]
    return max(norms, default=0.0)


def _rand_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def suite_cbbc(bs, tag: str, tol_rank: float) -> list[Check]:
    n, N = bs.n, bs.N
    expected = np.zeros((n * (N + 1), n * (N + 1)), dtype=complex)
    expected[:n, :n] = -bs.problem.J
    expected[-n:, -n:] = bs.problem.J
    full = bs.C.conj().T @ bs.B - bs.B.conj().T @ bs.C - expected
    reduced = bs.C_m.conj().T @ bs.B - bs.B_m.conj().T @ bs.C
    # ker B* from its own SVD, so the ledger compares two independent ranks.
    dim_ker = bs.factors.kernel(tol_rank).shape[1]
    dim_adj = nullspace(bs.B.conj().T, tol_rank).shape[1]
    bookkeeping = abs(dim_ker - n - dim_adj) + max(0, n - dim_ker)
    return [
        Check(f"cbbc full [{tag}]", float(np.linalg.norm(full)),
              TOL_IDENTITY, float(np.linalg.norm(full)) <= TOL_IDENTITY),
        Check(f"cbbc reduced [{tag}]", float(np.linalg.norm(reduced)),
              TOL_IDENTITY, float(np.linalg.norm(reduced)) <= TOL_IDENTITY),
        Check(f"cbbc rank bookkeeping [{tag}]", float(bookkeeping), 0.0,
              bookkeeping == 0),
    ]


def suite_wronskian(bs, samples: int, tag: str) -> list[Check]:
    J = bs.problem.J
    pts = bs.points
    # Left limits: at each partition point the end value of the subinterval before.
    values, _ = bs.states.limits(np.concatenate(
        [np.linspace(lo, hi, samples) for lo, hi in zip(pts[:-1], pts[1:])]))
    worst, transfer_worst = (
        float(np.max(np.linalg.norm(_adjoint(M) @ J @ M - J, axis=(1, 2)), initial=0.0))
        for M in (values, bs.transfers))
    return [
        Check(f"wronskian fundamental [{tag}]", worst, TOL_IDENTITY,
              worst <= TOL_IDENTITY),
        Check(f"wronskian transfer [{tag}]", transfer_worst, TOL_IDENTITY,
              transfer_worst <= TOL_IDENTITY),
    ]


def suite_lift(bs, tag: str, tol_solve: float, tol_rank: float) -> list[Check]:
    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    if basis.shape[1] == 0:
        return [Check(f"lift [{tag}]", 0.0, TOL_LIFT, True)]
    # The basis columns already lie in ker B_m*: one batched lift, no projection.
    lifts = _lift_projected(bs, np.column_stack([basis, basis.sum(axis=1)]), tol_solve)
    lifts, combined = lifts[:, :-1], lifts[:, -1]
    annihilated = float(np.linalg.norm(bs.B @ lifts, axis=0).max())
    matched = float(np.linalg.norm(bs.C @ lifts - basis, axis=0).max())
    linearity = float(np.linalg.norm(combined - lifts.sum(axis=1)))
    return [
        Check(f"lift annihilated [{tag}]", annihilated, TOL_LIFT,
              annihilated <= TOL_LIFT),
        Check(f"lift matches balanced values [{tag}]", matched, TOL_LIFT,
              matched <= TOL_LIFT),
        Check(f"lift linearity [{tag}]", linearity, TOL_LIFT,
              linearity <= TOL_LIFT),
    ]


def suite_functional(bs, f: L2Function, rng: np.random.Generator, tag: str,
                     tol_solve: float, tol_rank: float) -> list[Check]:
    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    if basis.shape[1] == 0:
        return [Check(f"functional identity [{tag}]", 0.0, TOL_FUNCTIONAL, True)]
    uhat = basis @ _rand_complex(rng, basis.shape[1])
    mv = moment_vectors(bs, f)
    defect = functional_identity_defect(bs, mv, uhat, tol_solve, tol_rank)
    bound = TOL_FUNCTIONAL * (1.0 + _sup_norm(f)) \
        * (1.0 + float(np.linalg.norm(uhat)))
    return [Check(f"functional identity [{tag}]", defect, bound,
                  defect <= bound)]


def _solution_with_rhs(bs, f: L2Function, rng: np.random.Generator,
                       tol_solve: float, tol_rank: float):
    """A genuine balanced solution on the window, with the rhs it solves.

    Uses the inhomogeneous solve when consistent; otherwise falls back to a
    random homogeneous solution (rhs None, meaning zero).
    """
    mv = moment_vectors(bs, f)
    result = solve_system(bs, mv, tol_solve, tol_rank)
    combo = result.kernel_coefficients @ _rand_complex(
        rng, result.kernel_dimension)
    if result.consistent:
        return reconstruct(bs, result.coefficients + combo, f), f
    return reconstruct(bs, combo), None


def suite_lagrange(bs, f: L2Function, g: L2Function, rng: np.random.Generator,
                   tag: str, tol_solve: float, tol_rank: float) -> list[Check]:
    problem = bs.problem
    window = bs.partition.window
    u, fu = _solution_with_rhs(bs, f, rng, tol_solve, tol_rank)
    v, gv = _solution_with_rhs(bs, g, rng, tol_solve, tol_rank)
    report = lagrange_check(problem, window, (u, fu), (v, gv))
    rows = [Check(f"lagrange pairing [{tag}]", report.defect, TOL_PAIRING,
                  report.defect <= TOL_PAIRING)]
    compact = compact_support_solutions(bs, tol_solve, tol_rank)
    if compact:
        creport = lagrange_check(problem, window, (compact[0], None), (v, gv))
        rows.append(Check(f"lagrange compact support [{tag}]", creport.defect,
                          TOL_PAIRING, creport.defect <= TOL_PAIRING))
    else:
        rows.append(Check(f"lagrange compact support [{tag}]", 0.0,
                          TOL_PAIRING, True))
    return rows


def orthogonal_rhs(rng: np.random.Generator, bs,
                   tol_rank: float) -> L2Function:
    """Random representable function orthogonal to every homogeneous solution.

    Constant on each partition subinterval with zero values at the weight
    atoms; the piece values are drawn from the nullspace of the Gram matrix
    pairing each homogeneous solution with each indicator of a subinterval and
    a component.  On subinterval i a homogeneous solution is U_i c_i, so its
    pairing with the indicator of (i, c) is c_i^* times the integral of
    U_i^* w e_c there: n pairings of the fundamental matrices give them all.
    """
    problem, window, edges, n = bs.problem, bs.partition.window, bs.points, bs.n
    pieces = len(edges) - 1
    positions, _ = problem.w.atoms_between(*window)
    zero_atoms = {float(x): np.zeros(n, dtype=complex) for x in positions}

    moments = np.stack([_pairings(problem.w, bs.states,
                                  L2Function(window, list(window), [e], zero_atoms),
                                  edges)[..., 0]
                        for e in np.eye(n, dtype=complex)], axis=-1)
    kernel = bs.factors.kernel(tol_rank).reshape(pieces, n, -1)
    gram = np.einsum("iak,iac->kic", kernel.conj(), moments).reshape(-1, pieces * n)
    span = nullspace(gram, tol_rank)
    coeffs = span @ _rand_complex(rng, span.shape[1]) if span.shape[1] else \
        np.zeros(pieces * n, dtype=complex)
    values = [coeffs[i * n:(i + 1) * n] for i in range(pieces)]
    return L2Function(window, edges, values, zero_atoms)


def _t0_result_rows(bs, moments: MomentVectors, result, homogeneous, prefix: str,
                    tag: str, tol_rank: float) -> list[Check]:
    problem = bs.problem
    f = moments.f
    window = bs.partition.window
    lo, hi = window
    rows = []
    if isinstance(result, OrthogonalityCertificate):
        bound = TOL_PAIRING * (1.0 + _sup_norm(f)) \
            * (1.0 + float(np.linalg.norm(result.kernel_vector)))
        two_route = abs(result.pairing - result.moment_pairing)
        rows.append(Check(f"{prefix} certificate two-route [{tag}]", two_route,
                          bound, two_route <= bound))
        if result.projection_norm > CERTIFICATE_TRIGGER:
            floor = 0.5 * result.projection_norm ** 2
            rows.append(Check(f"{prefix} certificate nonzero [{tag}]",
                              abs(result.pairing), floor,
                              abs(result.pairing) > floor))
        return rows
    solution = result
    endpoint = float(np.linalg.norm(solution.evaluate(lo, "right"))) \
        + float(np.linalg.norm(solution.evaluate(hi, "left")))
    rows.append(Check(f"{prefix} endpoints vanish [{tag}]", endpoint,
                      TOL_ENDPOINT, endpoint <= TOL_ENDPOINT))

    basis = bs.reduced_factors.adjoint_kernel(tol_rank)
    proj = float(np.linalg.norm(basis.conj().T @ moments.functional)) \
        if basis.shape[1] else 0.0
    rows.append(Check(f"{prefix} solvable means orthogonal [{tag}]", proj,
                      CERTIFICATE_TRIGGER, proj <= CERTIFICATE_TRIGGER))

    norm_f = weighted_norm(problem.w, f, window)
    worst = 0.0
    for sol in homogeneous:
        pairing = abs(inner_product(problem.w, f, sol, window))
        norm_r = weighted_norm(problem.w, sol, window)
        worst = max(worst, pairing / (1.0 + norm_f * norm_r))
    rows.append(Check(f"{prefix} range orthogonal to kernel [{tag}]", worst,
                      TOL_PAIRING, worst <= TOL_PAIRING))
    return rows


def suite_t0(bs, f: L2Function, extra_points, rng: np.random.Generator,
             tag: str, tol_sing: float, tol_rank: float,
             tol_solve: float) -> list[Check]:
    """Endpoint-vanishing solves for f and a random orthogonal rhs, on ``bs``.

    ``bs`` must be built from ``extra_points`` and ``tol_sing``, as run_suites does.
    """
    homogeneous = solve_system(bs, tol_rank=tol_rank).kernel_basis
    moments = moment_vectors(bs, f.refined_against(bs.problem.w))
    result = t0_solve_system(bs, moments, tol_rank, tol_solve)
    rows = _t0_result_rows(bs, moments, result, homogeneous, "t0", tag, tol_rank)
    f_perp = orthogonal_rhs(rng, bs, tol_rank)
    moments_perp = moment_vectors(bs, f_perp.refined_against(bs.problem.w))
    result_perp = t0_solve_system(bs, moments_perp, tol_rank, tol_solve)
    if isinstance(result_perp, OrthogonalityCertificate):
        rows.append(Check(f"t0 orthogonal rhs solvable [{tag}]",
                          result_perp.residual, tol_solve, False))
    else:
        rows.extend(_t0_result_rows(bs, moments_perp, result_perp, homogeneous,
                                    "t0 orthogonal rhs", tag, tol_rank))
    return rows


def run_suites(problem: Problem, window, f: L2Function | None = None,
               extra_points=(), checks=SUITE_NAMES,
               rng: np.random.Generator | None = None, samples: int = 64,
               tol_sing: float = DEFAULT_TOL_SING,
               tol_rank: float = DEFAULT_TOL_RANK,
               tol_solve: float = DEFAULT_TOL_SOLVE,
               tag: str = "input") -> list[Check]:
    """Run the selected identity suites against one problem instance.

    ``f`` is synthesized pseudo-randomly when a suite needs a right-hand
    side and none is given; all randomness comes from ``rng``.
    """
    unknown = sorted(set(checks) - set(SUITE_NAMES))
    if unknown:
        raise ValueError(f"unknown check suite '{unknown[0]}'")
    if rng is None:
        rng = np.random.default_rng(0)
    selected = [name for name in SUITE_NAMES if name in checks]

    bs = build_system(problem, window, extra_points, tol_sing)

    if {"functional", "lagrange", "t0"} & set(selected):
        if f is None:
            f = random_f(rng, problem, window)
        f = f.refined_against(problem.w)

    rows: list[Check] = []
    for name in selected:
        try:
            if name == "cbbc":
                rows.extend(suite_cbbc(bs, tag, tol_rank))
            elif name == "wronskian":
                rows.extend(suite_wronskian(bs, samples, tag))
            elif name == "lift":
                rows.extend(suite_lift(bs, tag, tol_solve, tol_rank))
            elif name == "functional":
                rows.extend(suite_functional(bs, f, rng, tag, tol_solve, tol_rank))
            elif name == "lagrange":
                g = random_f(rng, problem, window).refined_against(problem.w)
                rows.extend(suite_lagrange(bs, f, g, rng, tag, tol_solve, tol_rank))
            elif name == "t0":
                rows.extend(suite_t0(bs, f, extra_points, rng, tag,
                                     tol_sing, tol_rank, tol_solve))
        except (InconsistentLift, NotInKernel, LiftEndpointNonzero) as exc:
            # A lift the suite relies on broke down: one failing row, not a crash.
            rows.append(Check(f"{name} raised {type(exc).__name__} [{tag}]",
                              1.0, 0.0, False))
    return rows


def run_random_suites(seed, count: int, checks=SUITE_NAMES,
                      samples: int = 64,
                      tol_sing: float = DEFAULT_TOL_SING,
                      tol_rank: float = DEFAULT_TOL_RANK,
                      tol_solve: float = DEFAULT_TOL_SOLVE) -> list[Check]:
    """Run the suites over ``count`` random instances drawn from ``seed``.

    ``seed`` is an int or a numpy Generator, which is drawn from in place.
    """
    rng = np.random.default_rng(seed)
    rows: list[Check] = []
    for index in range(count):
        instance = random_instance(rng)
        rows.extend(run_suites(instance.problem, instance.window, instance.f,
                               instance.extra_points, checks, rng, samples,
                               tol_sing, tol_rank, tol_solve,
                               tag=f"random {index}"))
    return rows
