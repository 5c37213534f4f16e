"""Propagators, exponential integrals, fundamental matrices, pairings.

The matrix-exponential oracle here is deliberately independent of scipy:
a 30-term Taylor series evaluated after scaling the argument below unit
norm, followed by repeated squaring.  The integral oracles are adaptive
quadrature of the integrand sampled entry by entry.
"""

import dataclasses
import gc
import os
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad_vec

from measureode import (
    DimensionMismatch,
    FundamentalMatrix,
    MeasureMatrix,
    NotRepresentable,
    OutOfInterval,
    PiecewiseSolution,
    Problem,
    SingularAtom,
    SingularInitialPoint,
    SingularJ,
    WindowMismatch,
    atom_transfer,
    fundamental_matrix,
    inner_product,
    segment_exponential,
    segment_integral,
    product_integral,
    solve_ivp_regular,
    weighted_norm,
)
from measureode import build_system, propagation
from measureode.blocksystem import moment_vectors
from measureode.functions import L2Function
from measureode.fileio import load_problem
from measureode.fuzz import (hermitize, psd_project, random_chain, random_f, random_instance,
                             random_matrix, random_skew_invertible)
from measureode.propagation import inhomogeneous_integral, w_pairing
from measureode.solutions import compact_support_solutions, reconstruct, solve_system
from measureode.verify import orthogonal_rhs

TOL_SERIES = 1e-12    # relative, exponential vs series oracle
TOL_QUAD = 1e-8       # absolute, integrals vs adaptive quadrature
TOL_IDENTITY = 1e-10  # Wronskian / transfer identities

J2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def series_expm(M, terms=30):
    """Taylor-series exponential: scale below unit norm, sum, square back."""
    M = np.asarray(M, dtype=complex)
    norm = float(np.linalg.norm(M, 2))
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    S = M / (2.0 ** squarings)
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ S / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def canonical_j(n):
    J = np.zeros((n, n), dtype=complex)
    for k in range(n // 2):
        J[2 * k, 2 * k + 1] = -1.0
        J[2 * k + 1, 2 * k] = 1.0
    if n % 2:
        J[-1, -1] = 1j
    return J


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_segment_exponential_matches_series_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        J = canonical_j(n)
        M = random_complex(rng, (n, n))
        dx = float(rng.uniform(0.05, 1.5))
        # rescale so the generator argument has norm at most 5
        target = float(rng.uniform(0.0, 5.0))
        M *= target / max(np.linalg.norm(M, 2) * dx, 1e-12)
        q0 = -J @ M
        got = segment_exponential(J, q0, dx)
        want = series_expm(M * dx)
        rel = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
        worst = max(worst, float(rel))
    assert worst <= TOL_SERIES


def test_segment_exponential_zero_gap_is_identity():
    q0 = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    np.testing.assert_array_equal(segment_exponential(J2, q0, 0.0), np.eye(2))


def test_segment_exponential_rejects_negative_gap():
    with pytest.raises(ValueError):
        segment_exponential(J2, np.eye(2, dtype=complex), -0.1)


def test_segment_integral_matches_quadrature():
    rng = np.random.default_rng(32)
    from scipy.linalg import expm
    for _ in range(25):
        n = int(rng.integers(1, 4))
        A = random_complex(rng, (n, n))
        dx = float(rng.uniform(0.1, 2.0))
        got = segment_integral(A, dx)
        want, _ = quad_vec(lambda s: expm(A * s), 0.0, dx,
                           epsabs=1e-12, epsrel=1e-12)
        assert np.linalg.norm(got - want) <= TOL_QUAD


def test_segment_integral_closed_form_for_invertible():
    A = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    dx = 0.7
    from scipy.linalg import expm
    want = np.linalg.solve(A, expm(A * dx) - np.eye(2))
    np.testing.assert_allclose(segment_integral(A, dx), want, atol=1e-13)


def test_product_integral_matches_quadrature():
    rng = np.random.default_rng(33)
    from scipy.linalg import expm
    for _ in range(25):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        A = random_complex(rng, (m, m))
        B = random_complex(rng, (p, p))
        X = random_complex(rng, (m, p))
        dx = float(rng.uniform(0.1, 1.5))
        got = product_integral(A, X, B, dx)
        want, _ = quad_vec(lambda s: expm(A * s) @ X @ expm(B * s), 0.0, dx,
                           epsabs=1e-12, epsrel=1e-12)
        assert np.linalg.norm(got - want) <= TOL_QUAD


@pytest.mark.parametrize("beta", [-2.0, -0.5, 0.5, 3.0])
def test_atom_transfer_shear_jump(beta):
    dq = np.array([[0.0, 0.0], [0.0, -beta]], dtype=complex)
    want = np.array([[1.0, beta], [0.0, 1.0]], dtype=complex)
    np.testing.assert_allclose(atom_transfer(J2, dq), want, atol=1e-12)


def test_atom_transfer_solves_the_jump_equation():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        J = canonical_j(n)
        H = random_complex(rng, (n, n))
        dq = 0.5 * (H + H.conj().T)
        try:
            T = atom_transfer(J, dq)
        except SingularAtom:
            continue
        np.testing.assert_allclose((J + dq / 2) @ T, J - dq / 2, atol=1e-12)


def test_atom_transfer_singular_jump_raises():
    dq = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)  # J + dq/2 drops rank
    with pytest.raises(SingularAtom):
        atom_transfer(J2, dq)


def test_atom_transfer_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        atom_transfer(J2, np.eye(3, dtype=complex))


def test_a_singular_j_raises_singular_j():
    # diag(i, 0) is skew-Hermitian but singular: Problem takes it, and the
    # J^{-1} of a build or of a fundamental matrix raises, with a regular atom too.
    q = MeasureMatrix((-1.0, 1.0), n=2, breakpoints=[-1.0, 1.0], densities=[np.eye(2)],
                      atoms=[(0.3, np.eye(2))])
    problem = Problem(np.diag([1j, 0.0]), q, MeasureMatrix.lebesgue((-1.0, 1.0), np.eye(2)))
    with pytest.raises(SingularJ):
        build_system(problem, (-1.0, 1.0))
    with pytest.raises(SingularJ):
        fundamental_matrix(problem, (-1.0, 1.0))


def _lebesgue_problem():
    window = (-1.0, 1.0)
    return Problem(J2, MeasureMatrix.lebesgue(window, np.eye(2)),
                   MeasureMatrix.lebesgue(window, np.eye(2))), window


def test_a_rhs_or_factor_of_the_wrong_length_raises_dimension_mismatch():
    # An n = 3 rhs on an n = 2 system: each entry that takes a rhs, and
    # w_pairing with it as either factor, raises before numpy sees a product.
    problem, window = _lebesgue_problem()
    bs = build_system(problem, window)
    f3 = L2Function.constant(window, np.ones(3))
    u = solve_ivp_regular(problem, window, 0.0, [1.0, 0.0])
    calls = [lambda: moment_vectors(bs, f3),
             lambda: PiecewiseSolution(problem, bs.states, [[0.0, 0.0]] * (bs.N + 1),
                                       f3).evaluate(0.3),
             lambda: inhomogeneous_integral(fundamental_matrix(problem, window), problem.w,
                                            f3, 0.5),
             lambda: w_pairing(problem.w, u, f3, window),
             lambda: w_pairing(problem.w, f3, u, window),
             lambda: w_pairing(problem.w, f3, f3, window)]
    for call in calls:
        with pytest.raises(DimensionMismatch, match="length 3"):
            call()


def test_a_piecewise_solution_checks_its_rhs_at_construction():
    # An n = 3 rhs, or one on half the window, raises when the solution is
    # built, not at its first evaluate.
    problem, window = _lebesgue_problem()
    bs = build_system(problem, window)
    coefficients = [[0.0, 0.0]] * (bs.N + 1)
    with pytest.raises(DimensionMismatch, match="length 3"):
        PiecewiseSolution(problem, bs.states, coefficients,
                          L2Function.constant(window, np.ones(3)))
    with pytest.raises(NotRepresentable, match="does not cover"):
        PiecewiseSolution(problem, bs.states, coefficients,
                          L2Function.constant((0.0, 1.0), [1.0, 0.0]))


def test_w_pairing_raises_window_mismatch_for_a_factor_short_of_the_window():
    problem, window = _lebesgue_problem()
    u = solve_ivp_regular(problem, (-1.0, 0.5), 0.0, [1.0, 0.0])
    f = L2Function.constant((-0.5, 1.0), [1.0, 0.0])
    whole = solve_ivp_regular(problem, window, 0.0, [0.0, 1.0])
    for a, b in ((u, whole), (whole, u), (f, whole), (whole, f)):
        with pytest.raises(WindowMismatch):
            w_pairing(problem.w, a, b, window)
    assert isinstance(w_pairing(problem.w, u, f, (-0.5, 0.5)), complex)


def _density_problem():
    q = MeasureMatrix.lebesgue((-1.0, 1.0), np.diag([0.4, -0.2]).astype(complex))
    return Problem(J2, q, MeasureMatrix.zero((-1.0, 1.0), 2))


def test_fundamental_matrix_normalization_and_end_value():
    U = fundamental_matrix(_density_problem(), (-1.0, 1.0))
    np.testing.assert_array_equal(U.evaluate(-1.0, "right"), np.eye(2))
    want = segment_exponential(J2, np.diag([0.4, -0.2]), 2.0)
    np.testing.assert_allclose(U.states.lefts[-1], want, atol=1e-13)


def test_fundamental_matrix_wronskian_identity():
    q = MeasureMatrix((-1.0, 1.0), breakpoints=[-1.0, 0.2, 1.0],
                      densities=[np.diag([0.4, -0.2]), np.array([[0.0, 0.3], [0.3, 0.0]])],
                      atoms=[(-0.3, np.diag([0.5, 0.5]))])
    U = fundamental_matrix(Problem(J2, q, MeasureMatrix.zero((-1.0, 1.0), 2)),
                           (-1.0, 1.0))
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 64)[1:]:
        V = U.evaluate(float(x), "left")
        worst = max(worst, float(np.linalg.norm(V.conj().T @ J2 @ V - J2)))
    assert worst <= TOL_IDENTITY
    # One transfer, through the one atom inside.
    assert len(U.transfers) == 1
    for T in U.transfers:
        assert np.linalg.norm(T.conj().T @ J2 @ T - J2) <= TOL_IDENTITY


def test_a_build_transfers_through_its_atoms_in_one_stacked_call(count_calls):
    # Bitwise the per-atom transfer, from one call per build that crosses an
    # atom inside a subinterval, and none from a build that crosses none.
    from test_acceptance import _fuzz_systems
    stacked = count_calls(propagation, "_transfers")
    single = count_calls(propagation, "atom_transfer")
    crossed = 0
    for inst, bs in _fuzz_systems():
        problem, points = inst.problem, bs.points
        stacked.calls = 0
        states, transfers, inner = propagation._fundamental_matrices(problem, points)
        nodes = states.nodes
        inside = [k for k, x in enumerate(nodes[:-1].tolist())
                  if x in problem.q.atom_positions and x not in points]
        assert stacked.calls == (1 if inside else 0)
        # Only the atoms inside a subinterval have a transfer, in node order.
        assert inner.tolist() == inside and len(transfers) == len(inside)
        for k, transfer in zip(inside, transfers):
            want = propagation.atom_transfer(problem.J, problem.q.jump(nodes[k]))
            np.testing.assert_array_equal(transfer, want)
        crossed += len(inside)
    assert single.calls == crossed > 0


def test_fundamental_matrix_rejects_interior_singular_atom():
    q = MeasureMatrix.from_atoms((-1.0, 1.0), 2,
                                 [(0.0, np.array([[0.0, 2.0], [2.0, 0.0]]))])
    problem = Problem(J2, q, MeasureMatrix.zero((-1.0, 1.0), 2))
    with pytest.raises(SingularAtom):
        fundamental_matrix(problem, (-1.0, 1.0))
    # the same atom at a subinterval edge is fine: edges are not propagated over
    fundamental_matrix(problem, (-1.0, 0.0))
    fundamental_matrix(problem, (0.0, 1.0))


def test_fundamental_matrix_window_checks():
    with pytest.raises(OutOfInterval):
        fundamental_matrix(_density_problem(), (-2.0, 1.0))


def _weighted_problem():
    w = MeasureMatrix((-1.0, 1.0), breakpoints=[-1.0, 1.0],
                      densities=[np.eye(2, dtype=complex)],
                      atoms=[(0.3, np.diag([2.0, 1.0]).astype(complex))])
    return Problem(J2, MeasureMatrix.zero((-1.0, 1.0), 2), w)


def test_inhomogeneous_integral_counts_interior_atoms_once():
    problem = _weighted_problem()
    U = fundamental_matrix(problem, (-1.0, 1.0))
    f = L2Function.constant((-1.0, 1.0), [1.0, 1.0], w=problem.w)
    upto_atom = inhomogeneous_integral(U, problem.w, f, 0.3)
    past_atom = inhomogeneous_integral(U, problem.w, f, 0.30000001)
    jump = past_atom - upto_atom
    # crossing the atom adds U_bal^* dw f_bal (U is constant here: q = 0)
    expect = U.evaluate(0.3, "balanced").conj().T @ (np.diag([2.0, 1.0]) @ [1.0, 1.0])
    np.testing.assert_allclose(jump, expect, atol=1e-7)


def test_inhomogeneous_integral_matches_quadrature():
    q = MeasureMatrix.lebesgue((-1.0, 1.0), np.diag([0.3, -0.1]).astype(complex))
    w = MeasureMatrix((-1.0, 1.0), breakpoints=[-1.0, 0.0, 1.0],
                      densities=[np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)],
                      atoms=[(0.5, np.diag([1.0, 2.0]).astype(complex))])
    problem = Problem(J2, q, w)
    U = fundamental_matrix(problem, (-1.0, 1.0))
    f = L2Function.from_pieces((-1.0, 1.0), [(-1.0, 0.2, [1.0, -1.0]), (0.2, 1.0, [0.0, 2.0])],
                               w=w)
    got = inhomogeneous_integral(U, w, f, 1.0)
    want, _ = quad_vec(
        lambda s: U.evaluate(float(s)).conj().T @ w.density_at(float(s)) @ f.value(float(s)),
        -1.0, 1.0, epsabs=1e-12, epsrel=1e-12, points=[0.0, 0.2, 0.5])
    want = want + U.evaluate(0.5, "balanced").conj().T @ (np.diag([1.0, 2.0]) @ f.value(0.5))
    assert np.linalg.norm(got - want) <= TOL_QUAD


def test_solve_ivp_regular_initial_conventions():
    problem = _density_problem()
    u0 = np.array([1.0, -2.0], dtype=complex)
    left = solve_ivp_regular(problem, (-1.0, 1.0), -1.0, u0)
    np.testing.assert_allclose(left.evaluate(-1.0, "right"), u0, atol=1e-14)
    right = solve_ivp_regular(problem, (-1.0, 1.0), 1.0, u0)
    np.testing.assert_allclose(right.evaluate(1.0, "left"), u0, atol=1e-13)
    mid = solve_ivp_regular(problem, (-1.0, 1.0), 0.2, u0)
    np.testing.assert_allclose(mid.evaluate(0.2), u0, atol=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_ivp_regular_rejects_a_non_finite_initial_value(bad):
    # The miss check compares with ">", which is False for NaN: without the
    # input check the solution comes back all NaN.
    with pytest.raises(ValueError, match="non-finite"):
        solve_ivp_regular(_density_problem(), (-1.0, 1.0), 0.2, [1.0, bad])


def test_solve_ivp_regular_propagates_like_the_exponential():
    problem = _density_problem()
    u0 = np.array([1.0, 1.0], dtype=complex)
    sol = solve_ivp_regular(problem, (-1.0, 1.0), -1.0, u0)
    q0 = np.diag([0.4, -0.2])
    for x in (-0.5, 0.0, 0.9):
        want = segment_exponential(J2, q0, x + 1.0) @ u0
        np.testing.assert_allclose(sol.evaluate(x), want, atol=1e-12)


def test_solve_ivp_regular_names_a_numerically_singular_initial_point():
    # On (0, 100) U(x0) = exp(G x0) has entries cosh x0 and sinh x0, so at
    # x0 = 70 it is singular in floating point.
    problem = load_problem(os.path.join(os.path.dirname(__file__), "data",
                                        "instance_hyperbolic.json")).problem
    with pytest.raises(SingularInitialPoint, match="x0=70.0"):
        solve_ivp_regular(problem, (0.0, 100.0), 70.0, [1.0, 0.0])


def test_solve_ivp_regular_raises_rather_than_miss_u0():
    # cond U(x0) grows like e^(2 x0): past a few units the solve loses u0
    # without U(x0) being singular in floating point.
    problem = load_problem(os.path.join(os.path.dirname(__file__), "data",
                                        "instance_hyperbolic.json")).problem
    u0 = np.array([1.0, 0.0])
    returned = 0
    for x0 in np.arange(1.0, 99.0, 0.5).tolist():
        try:
            sol = solve_ivp_regular(problem, (0.0, 100.0), x0, u0)
        except SingularInitialPoint as exc:
            assert f"x0={x0}" in str(exc)
            continue
        returned += 1
        assert np.linalg.norm(sol.evaluate(x0) - u0) <= 1e-6 * (1.0 + np.linalg.norm(u0))
    assert returned


def test_solution_jumps_at_interior_weight_atom():
    problem = _weighted_problem()
    f = L2Function.constant((-1.0, 1.0), [1.0, -1.0], w=problem.w)
    sol = solve_ivp_regular(problem, (-1.0, 1.0), -1.0, [0.0, 0.0], f=f)
    up = sol.evaluate(0.3, "right")
    um = sol.evaluate(0.3, "left")
    dw = problem.w.jump(0.3)
    np.testing.assert_allclose(J2 @ (up - um), dw @ f.value(0.3), atol=1e-12)
    np.testing.assert_allclose(sol.evaluate(0.3), 0.5 * (up + um), atol=1e-14)


def test_piecewise_solution_rejects_points_outside_window():
    sol = solve_ivp_regular(_density_problem(), (-1.0, 1.0), -1.0, [1.0, 0.0])
    with pytest.raises(OutOfInterval):
        sol.evaluate(1.2)
    with pytest.raises(OutOfInterval):
        sol.evaluate(-1.0, "left")
    with pytest.raises(OutOfInterval):
        sol.evaluate(1.0, "right")


def test_w_pairing_piecewise_constant_closed_form():
    w = MeasureMatrix((-1.0, 1.0), breakpoints=[-1.0, 0.0, 1.0],
                      densities=[np.diag([1.0, 0.0]), np.diag([0.0, 2.0])],
                      atoms=[(0.0, np.eye(2, dtype=complex))])
    u = L2Function.from_pieces((-1.0, 1.0), [(-1.0, 0.0, [1.0, 2.0]), (0.0, 1.0, [3.0, 4.0])],
                               w=w)
    v = L2Function.constant((-1.0, 1.0), [1.0, 1.0], w=w)
    got = w_pairing(w, u, v, (-1.0, 1.0))
    # left piece: u*.diag(1,0).v integrates to 1; right piece: 2*4 = 8;
    # atom at 0: balanced u = (2,3) against balanced v = (1,1).
    want = 1.0 * 1.0 + 8.0 + (2.0 + 3.0)
    assert got == pytest.approx(want, abs=1e-10)


def test_w_pairing_conjugate_linearity():
    w = MeasureMatrix.lebesgue((-1.0, 1.0), np.eye(2, dtype=complex))
    u = L2Function.constant((-1.0, 1.0), [1.0 + 1.0j, 0.0], w=w)
    v = L2Function.constant((-1.0, 1.0), [2.0, 1.0], w=w)
    uv = w_pairing(w, u, v, (-1.0, 1.0))
    vu = w_pairing(w, v, u, (-1.0, 1.0))
    assert uv == pytest.approx(np.conj(vu), abs=1e-12)
    assert uv == pytest.approx((1.0 - 1.0j) * 2.0 * 2.0, abs=1e-10)


# -- balanced solutions against the closed-form oracle ----------------------------

TOL_ORACLE = 1e-12  # relative to max(1, |u|)


def _oracle_limit(sol, fundamentals, j, x, side):
    """U(x)(c + J^{-1} int U^* w f) on subinterval j, plus the w-atom shift on the right."""
    U, J, w, f = fundamentals[j], sol.problem.J, sol.problem.w, sol.rhs
    v = sol.coefficients[j] + np.linalg.solve(J, inhomogeneous_integral(U, w, f, x))
    if side == "right" and f is not None and x > U.lo:
        atom = U.evaluate(x, "balanced").conj().T @ (w.jump(x) @ f.value(x, "balanced"))
        v = v + np.linalg.solve(J, atom)
    return U.evaluate(x, side) @ v


def _oracle(sol, fundamentals, x):
    """Oracle values at x by side, from the fundamental matrices of the solution's
    build; a side the window lacks is left out."""
    pts = sol.points
    out = {}
    if x > pts[0]:
        out["left"] = _oracle_limit(sol, fundamentals, int(np.searchsorted(pts, x)) - 1, x,
                                    "left")
    if x < pts[-1]:
        out["right"] = _oracle_limit(sol, fundamentals,
                                     int(np.searchsorted(pts, x, "right")) - 1, x, "right")
    sides = list(out.values())
    out["balanced"] = 0.5 * (sides[0] + sides[-1])
    return out


def _nodes(sol):
    """Partition points and every point where q, w or f changes, in the window."""
    lo, hi = sol.window
    nodes = np.unique(np.concatenate([sol.structure_points(),
                                      sol.problem.w.structure_points()]))
    return nodes[(nodes >= lo) & (nodes <= hi)]


def _worst_oracle_defect(sol, fundamentals):
    nodes = _nodes(sol)
    worst = 0.0
    for x in np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]):
        for side, want in _oracle(sol, fundamentals, float(x)).items():
            got = sol.evaluate(float(x), side)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return worst


def _solutions_of(bs, f):
    """The min-norm solution for f and every homogeneous basis element."""
    result = solve_system(bs, moment_vectors(bs, f))
    return [reconstruct(bs, result.coefficients, f)] + result.kernel_basis


def _dense_problem(rng):
    """n = 2 with 24 w-pieces, five interior w-atoms (one on a q-atom) and two q-atoms."""
    window = lo, hi = (-1.0, 1.0)
    wbp = np.linspace(lo, hi, 25)
    w = MeasureMatrix(window, breakpoints=wbp,
                      densities=[psd_project(random_matrix(rng, 2)) for _ in range(24)],
                      atoms=[(x, psd_project(random_matrix(rng, 2)))
                             for x in (-0.7, -0.3, 0.05, 0.1, 0.45)])
    q = MeasureMatrix(window, breakpoints=[lo, -0.2, 0.4, hi],
                      densities=[0.2 * hermitize(random_matrix(rng, 2)) for _ in range(3)],
                      atoms=[(-0.3, 0.3 * hermitize(random_matrix(rng, 2))),
                             (0.6, 0.3 * hermitize(random_matrix(rng, 2)))])
    problem = Problem(J2, q, w)
    fbp = np.sort(rng.uniform(lo, hi, 20))
    edges = np.concatenate([[lo], fbp, [hi]])
    f = L2Function.from_pieces(
        window, [(edges[i], edges[i + 1], random_complex(rng, 2)) for i in range(21)],
        w=w)
    return problem, f


def test_solution_values_match_the_closed_form_oracle():
    # Both import this module (test_block_factors through test_acceptance).
    from test_acceptance import _fuzz_systems
    from test_block_factors import mirrored_chain
    rng = np.random.default_rng(41)
    worst = 0.0
    for inst, bs in _fuzz_systems():
        f = random_f(rng, inst.problem, inst.window)
        for sol in _solutions_of(bs, f):
            worst = max(worst, _worst_oracle_defect(sol, bs.fundamentals))
    problem, f = _dense_problem(rng)
    for extra in ((), (0.1,)):
        bs = build_system(problem, (-1.0, 1.0), extra)
        for sol in _solutions_of(bs, f):
            worst = max(worst, _worst_oracle_defect(sol, bs.fundamentals))
    for pairs in (2, 10):
        problem, window = mirrored_chain(pairs=pairs)
        bs = build_system(problem, window)
        compact = compact_support_solutions(bs)
        assert len(compact) == pairs
        for sol in compact:
            worst = max(worst, _worst_oracle_defect(sol, bs.fundamentals))
            _assert_zero_outside_support(sol, bs.fundamentals)
        for sol in _solutions_of(bs, random_f(rng, problem, window)):
            worst = max(worst, _worst_oracle_defect(sol, bs.fundamentals))
    assert worst <= TOL_ORACLE


def _assert_zero_outside_support(sol, fundamentals):
    """Exact zeros off [p_1, p_{N-1}], and the outer limits at its two ends."""
    lo, hi = sol.points[1], sol.points[-2]
    nodes = _nodes(sol)
    for x in np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]):
        for side in _oracle(sol, fundamentals, float(x)):
            if x < lo or x > hi or (x, side) in ((lo, "left"), (hi, "right")):
                assert not sol.evaluate(float(x), side).any()


def _worst_relative(got, want):
    """Largest |got - want| per point, relative to max(1, |want|) there."""
    scale = np.maximum(1.0, np.abs(want).max(axis=1))
    return float(np.max(np.abs(got - want).max(axis=1) / scale, initial=0.0))


def test_evaluate_many_matches_the_balanced_values():
    # Both import this module (test_block_factors through test_acceptance).
    from test_acceptance import _fuzz_systems
    rng = np.random.default_rng(47)
    worst = 0.0
    for inst, bs in _fuzz_systems():
        f = random_f(rng, inst.problem, inst.window)
        for sol in _solutions_of(bs, f):
            # Window ends, partition points, q- and w-atoms, gap midpoints.
            nodes = _nodes(sol)
            xs = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])])
            want = np.array([sol.evaluate(float(x), "balanced") for x in xs])
            worst = max(worst, _worst_relative(sol.evaluate_many(xs), want))
    assert worst <= TOL_ORACLE
    lo, hi = sol.window
    for outside in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
        with pytest.raises(OutOfInterval):
            sol.evaluate_many([0.5 * (lo + hi), outside])
    assert sol.evaluate_many([]).shape == (0, sol.n)


def test_a_single_off_node_value_matches_evaluate_many():
    # One point at a time is read from the factor's sampler, not from the
    # stack; on a node it is the stored limit itself.  Solutions with a rhs,
    # kernel elements and the matrix states of fundamental matrices, some with
    # gaps that split into sub-gaps, read just beside every node and sub-gap
    # start and exactly on each sub-gap start inside a gap (r = 0).
    rng = np.random.default_rng(42)
    problem, f = _dense_problem(rng)
    bs = build_system(problem, (-1.0, 1.0), (0.1,))
    factors = _solutions_of(bs, f) + bs.fundamentals + _complex_j_factors(rng, 3)
    def casts(x):
        return (float, np.float64) + ((int,) if x == int(x) else ())

    worst, split = 0.0, 0
    for factor in factors:
        matrix = isinstance(factor, FundamentalMatrix)
        states = factor.states if matrix else factor._node_states()
        nodes, lo, hi = states.nodes, states.nodes[0], states.nodes[-1]
        starts = np.array(factor._sampler.starts)
        inner = np.setdiff1d(starts, nodes)
        split += inner.size > 0
        marks = np.concatenate([nodes, starts])
        xs = np.concatenate([np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
                             inner, np.arange(np.ceil(lo), hi + 1.0)])
        xs = np.unique(xs[(xs >= lo) & (xs <= hi) & ~np.isin(xs, nodes)])
        want = states.limits(xs)[0].reshape(xs.size, -1) if matrix else factor.evaluate_many(xs)
        for x, row in zip(xs, want):
            got = [factor.evaluate(cast(x), side) for cast in casts(x)
                   for side in ("left", "right", "balanced")]
            assert all(np.array_equal(value, got[0]) for value in got)
            worst = max(worst, _worst_relative(got[0].reshape(1, -1), row[None]))
        for i, x in enumerate(nodes):
            left = states.lefts[i - 1] if i > 0 else states.rights[0]
            right = states.rights[i] if i < nodes.size - 1 else states.lefts[-1]
            stored = {"left": left, "right": right, "balanced": 0.5 * (left + right)}
            for side, value in stored.items():
                if not matrix and (x, side) in ((lo, "left"), (hi, "right")):
                    continue
                value = value if matrix else value[:factor.n, 0]
                for cast in casts(x):
                    assert np.array_equal(factor.evaluate(cast(x), side), value)
        for outside in (float("nan"), np.float64("nan"), np.nextafter(lo, -np.inf),
                        np.nextafter(hi, np.inf)):
            with pytest.raises(OutOfInterval):
                factor.evaluate(outside)
    assert worst <= TOL_ORACLE
    assert split >= 2


def test_a_numpy_or_0d_point_reads_as_its_float():
    # x becomes a Python float before anything else, so a float32 point reads
    # the value at float(x), not at a Taylor offset rounded to float32.
    rng = np.random.default_rng(43)
    problem, f = _dense_problem(rng)
    bs = build_system(problem, (-1.0, 1.0), (0.1,))
    factors = _solutions_of(bs, f) + bs.fundamentals + _complex_j_factors(rng, 3)
    casts = (np.float32, np.float64, np.array, lambda x: np.array(x, dtype=np.float32))
    worst, reads = 0.0, 0
    for factor in factors:
        matrix = isinstance(factor, FundamentalMatrix)
        lo, hi = factor.interval if matrix else factor.window
        points = [(cast, x) for x in rng.uniform(lo, hi, 8) for cast in casts]
        points += [(cast, x) for x in np.arange(np.ceil(lo), hi + 0.5)
                   for cast in casts + (np.int64, int)]
        for cast, x in points:
            point = cast(x)
            at = float(point)
            if not lo <= at <= hi:  # float32 rounding may leave the window
                continue
            if matrix:
                left, right = factor.states.limits(np.array([at]))
                want = (0.5 * (left + right)).reshape(1, -1)
            else:
                want = factor.evaluate_many([at])
            got = factor.evaluate(point).reshape(1, -1)
            worst = max(worst, _worst_relative(got, want))
            reads += 1
    assert reads > 300
    assert worst <= TOL_ORACLE


def test_sampling_takes_no_exponential_after_the_first_sample(count_calls):
    # Every interior read of both factor kinds, off the nodes and on them, is
    # one call of ``_Sampler.read``; the window ends and ``evaluate_many`` make none.
    problem, f = _dense_problem(np.random.default_rng(42))
    bs = build_system(problem, (-1.0, 1.0), (0.1,))
    sol = _solutions_of(bs, f)[0]
    read = count_calls(propagation._Sampler, "read")
    expm = count_calls(propagation, "expm")
    integral = count_calls(propagation, "inhomogeneous_integral")
    sampler = count_calls(propagation, "_Sampler")
    grid = -1.0 + (np.arange(200) + 0.5) / 100.0
    assert not np.isin(grid, _nodes(sol)).any()
    sol.evaluate(float(grid[0]))
    first = expm.calls
    for x in grid[1:]:
        sol.evaluate(float(x))
    assert integral.calls == 0
    assert expm.calls == first
    assert sampler.calls == 1
    assert read.calls == grid.size
    first = expm.calls
    sol.evaluate_many(grid)
    assert expm.calls - first == 1
    # A fundamental matrix: its first read off the ends builds its sampler,
    # and no later read exponentiates or builds again.
    U = bs.fundamentals[1]
    inside = grid[(grid > U.lo) & (grid < U.hi)]
    assert inside.size > 10 and not np.isin(inside, U.states.nodes).any()
    U.evaluate(float(inside[0]))
    first = expm.calls
    for x in inside[1:]:
        U.evaluate(float(x))
    assert expm.calls == first
    assert sampler.calls == 2
    assert read.calls == grid.size + inside.size
    # An interior node, on each side, reads through it too; an end does not.
    first = read.calls
    for factor, nodes in ((sol, sol._node_states().nodes), (U, U.states.nodes)):
        assert nodes.size > 2
        for side in ("left", "right", "balanced"):
            factor.evaluate(float(nodes[1]), side)
            factor.evaluate(float(nodes[-1]), "left")
    assert read.calls - first == 6
    assert sampler.calls == 2


def test_reads_at_the_window_ends_build_no_sampler(count_calls):
    # The ends are stored limits: reading only them (as the Lagrange and t0
    # checks do) builds no sampler and, for states already built, takes no
    # exponential.
    problem, f = _dense_problem(np.random.default_rng(42))
    bs = build_system(problem, (-1.0, 1.0), (0.1,))
    solutions = _solutions_of(bs, f)
    assert len(solutions) > 1
    for sol in solutions:
        sol._node_states()
    expm = count_calls(propagation, "expm")
    sampler = count_calls(propagation, "_Sampler")
    for factor in solutions + bs.fundamentals:
        solution = isinstance(factor, PiecewiseSolution)
        lo, hi = factor.window if solution else factor.interval
        for x in (lo, hi):
            for side in ("left", "right", "balanced"):
                if not (solution and (x, side) in ((lo, "left"), (hi, "right"))):
                    factor.evaluate(x, side)
        assert "_sampler" not in vars(factor)
    # A homogeneous solution's states are the build's times its coefficients.
    kernel = solutions[1]
    fresh = PiecewiseSolution(kernel.problem, bs.states, kernel.coefficients)
    for x, side in ((fresh.window[0], "right"), (fresh.window[1], "left")):
        assert np.array_equal(fresh.evaluate(x, side), kernel.evaluate(x, side))
    assert "_sampler" not in vars(fresh)
    assert expm.calls == 0 and sampler.calls == 0


def test_an_invalid_side_raises_before_any_read_for_both_factor_kinds():
    # The side is checked before the interior read, so a bad side raises
    # ValueError inside the window (off and on the nodes, with or without a
    # sampler) as at its ends.
    problem, f = _dense_problem(np.random.default_rng(42))
    bs = build_system(problem, (-1.0, 1.0), (0.1,))
    for factor in (_solutions_of(bs, f)[0], bs.fundamentals[0]):
        lo, hi = factor.window if isinstance(factor, PiecewiseSolution) else factor.interval
        points = [0.5 * (lo + hi), -0.7, -0.3, lo, hi]
        for built in (False, True):
            for x in points:
                with pytest.raises(ValueError, match="side must be one of"):
                    factor.evaluate(x, "middle")
            assert ("_sampler" in vars(factor)) == built
            factor.evaluate(points[0])


def test_node_states_step_each_atom_by_the_jump_rule():
    # A solution with a rhs, w-atoms inside its subintervals and regular
    # q-atoms: at every atom node inside a subinterval the right limit is
    # (J + dq/2)^{-1} ((J - dq/2) u- + dw f(x)), from the node's left limit,
    # and elsewhere it is the left limit itself; across each gap the state
    # flows by the exponential of its generator.
    problem, f = _dense_problem(np.random.default_rng(42))
    bs = build_system(problem, (-1.0, 1.0), (0.1,))
    sol = _solutions_of(bs, f)[0]
    states, n, J = sol._node_states(), sol.n, problem.J
    q, w = problem.q, problem.w
    nodes, firsts = states.nodes, set(states.starts.tolist())
    atoms = {"q": 0, "w": 0}
    for k in range(1, nodes.size - 1):
        if k in firsts:
            continue
        x, before = float(nodes[k]), states.lefts[k - 1]
        dq, dw = q.jump(x), w.jump(x)
        atoms["q"] += bool(dq.any())
        atoms["w"] += bool(dw.any())
        want = before
        if dq.any() or dw.any():
            u = np.linalg.solve(J + 0.5 * dq, (J - 0.5 * dq) @ before[:n, 0]
                                + dw @ f.value(x, "balanced"))
            want = np.concatenate([u[:, None], before[n:]])
        np.testing.assert_array_equal(states.rights[k], want)
    assert atoms["q"] >= 2 and atoms["w"] >= 3
    for k, width in enumerate(np.diff(nodes)):
        step = series_expm(states.generators[k] * width)
        np.testing.assert_allclose(states.lefts[k], step @ states.rights[k], rtol=0,
                                   atol=TOL_SERIES * max(1.0, np.abs(states.lefts[k]).max()))
    for k, c in zip(states.starts[:-1].tolist(), sol.coefficients):
        np.testing.assert_array_equal(states.rights[k], np.append(c, 1.0)[:, None])


# -- pointwise values from the sampler's Taylor table ---------------------------


def _hyperbolic_factors(rng):
    """instance_hyperbolic on its whole (0, 100): every gap splits 100 ways or more."""
    parsed = load_problem(os.path.join(os.path.dirname(__file__), "data",
                                       "instance_hyperbolic.json"))
    problem, f, window = parsed.problem, parsed.f, parsed.window
    U = fundamental_matrix(problem, window)
    return [U, solve_ivp_regular(problem, window, 0.0, random_complex(rng, 2), f)]


def _nilpotent_factors(rng):
    """q = 0 on two of three pieces, with a large rhs: nilpotent generators that split."""
    window = (0.0, 3.0)
    q = MeasureMatrix(window, breakpoints=[0.0, 1.0, 2.0, 3.0],
                      densities=[np.zeros((2, 2)), hermitize(random_matrix(rng, 2)),
                                 np.zeros((2, 2))])
    w = MeasureMatrix.lebesgue(window, psd_project(random_matrix(rng, 2)) + np.eye(2))
    problem = Problem(J2, q, w)
    f = L2Function.from_pieces(window, [(0.0, 0.5, 40.0 * random_complex(rng, 2)),
                                        (0.5, 3.0, 8.0 * random_complex(rng, 2))], w=w)
    return [solve_ivp_regular(problem, window, 0.0, random_complex(rng, 2), f)]


def _complex_j_factors(rng, n):
    """Complex skew-Hermitian J, q with pieces whose ||G|| width runs past 1, and a rhs."""
    window = (-1.0, 2.0)
    qbp = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 2.0, 3)), [2.0]])
    scales = rng.uniform(0.1, 4.0, qbp.size - 1)
    q = MeasureMatrix(window, breakpoints=qbp,
                      densities=[c * hermitize(random_matrix(rng, n)) for c in scales],
                      atoms=[(0.5, 0.2 * hermitize(random_matrix(rng, n)))])
    w = MeasureMatrix(window, breakpoints=[-1.0, 0.0, 2.0],
                      densities=[psd_project(random_matrix(rng, n)) for _ in range(2)])
    problem = Problem(random_skew_invertible(rng, n), q, w)
    f = random_f(rng, problem, window)
    U = fundamental_matrix(problem, window)
    return [U, solve_ivp_regular(problem, window, -1.0, random_complex(rng, n), f)]


def _table_points(factor, states):
    """Just right of each node, just left of the next, mid-gap, and the inner sub-gap starts."""
    nodes = states.nodes
    inner = np.setdiff1d(factor._sampler.starts, nodes)
    xs = np.concatenate([np.nextafter(nodes[:-1], np.inf), np.nextafter(nodes[1:], -np.inf),
                         0.5 * (nodes[:-1] + nodes[1:]), inner])
    return xs, inner


def test_pointwise_values_match_the_stack_and_the_series_oracle():
    rng = np.random.default_rng(48)
    factors = _hyperbolic_factors(rng) + _nilpotent_factors(rng)
    for n in range(1, 7):
        factors += _complex_j_factors(rng, n)
    worst, split = 0.0, 0
    for factor in factors:
        states = factor.states if isinstance(factor, FundamentalMatrix) \
            else factor._node_states()
        xs, inner = _table_points(factor, states)
        split += inner.size > 0
        # On a sub-gap start inside a gap (r = 0) the read is the first term.
        sampler = factor._sampler
        for x in inner:
            term = sampler.terms[sampler.starts.index(x)][0].view(complex)
            assert np.array_equal(factor.evaluate(x).reshape(-1), term)
        gaps = np.searchsorted(states.nodes, xs) - 1
        series = np.array([series_expm(states.generators[k] * (x - states.nodes[k]))
                           @ states.rights[k] for k, x in zip(gaps, xs)])
        stacked, _ = states.limits(xs)
        got = np.array([factor.evaluate(float(x)) for x in xs]).reshape(xs.size, -1)
        if isinstance(factor, FundamentalMatrix):
            series, stacked = series.reshape(xs.size, -1), stacked.reshape(xs.size, -1)
        else:
            series, stacked = series[:, :factor.n, 0], factor.evaluate_many(xs)
        worst = max(worst, _worst_relative(got, series), _worst_relative(got, stacked))
    assert worst <= TOL_ORACLE
    assert split == len(factors)


def test_the_taylor_table_lives_and_dies_with_its_states():
    rng = np.random.default_rng(49)
    U, solution = _hyperbolic_factors(rng)
    # The sampler comes with the first value away from the window ends.
    U.evaluate(U.lo)
    solution.evaluate(solution.window[1], "left")
    assert "_sampler" not in vars(U) and "_sampler" not in vars(solution)
    U.evaluate(50.5)
    solution.evaluate(50.5)
    assert "_sampler" in vars(U) and "_sampler" in vars(solution)
    # It belongs to its factor alone: no states hold it, so a span or a
    # replaced copy of them starts without one, as does a second matrix on
    # the same states.
    for states in (U.states, U.states.span(0, U.states.nodes.size - 1),
                   dataclasses.replace(U.states), solution._node_states()):
        assert not any(isinstance(v, propagation._Sampler) for v in vars(states).values())
    twin = FundamentalMatrix(U.J, U.states, U.transfers)
    assert "_sampler" not in vars(twin)
    samplers = [weakref.ref(f._sampler) for f in (U, solution)]
    owners = [weakref.ref(U), weakref.ref(solution), weakref.ref(solution._node_states())]
    starts = [f._sampler.starts for f in (U, solution)]
    del U, solution, twin, states
    gc.collect()
    assert all(ref() is None for ref in owners + samplers)
    # A tuple takes no weak reference: the list above is all that refers to it.
    assert all(gc.get_referrers(t) == [starts] for t in starts)


def test_solution_fundamentals_must_span_their_subintervals():
    # A solution's points are the nodes where its states restart, so it
    # spans them by construction; it takes one coefficient vector of length
    # n per subinterval there.
    problem = _density_problem()
    U = fundamental_matrix(problem, (-1.0, 0.5))
    bs = build_system(problem, (-1.0, 1.0))
    for states, points in ((U.states, [-1.0, 0.5]), (bs.states, bs.points)):
        count = len(points) - 1
        np.testing.assert_array_equal(PiecewiseSolution(problem, states, [[1.0, 0.0]] * count)
                                      .points, points)
        for wrong in ([[1.0, 0.0]] * (count - 1), [[1.0, 0.0]] * (count + 1),
                      [[1.0, 0.0, 0.0]] * count):
            with pytest.raises(DimensionMismatch):
                PiecewiseSolution(problem, states, wrong)


def test_fundamentals_and_solutions_view_the_partition_states():
    problem, window, f = _chain(4)
    bs = build_system(problem, window)
    names = [field.name for field in dataclasses.fields(bs.states)]
    assert all(not getattr(bs.states, name).flags.writeable for name in names)
    assert not bs.transfers.flags.writeable
    starts = bs.states.starts.tolist()
    for U, first, stop in zip(bs.fundamentals, starts, starts[1:]):
        for name in ("nodes", "generators", "rights", "lefts"):
            assert np.shares_memory(getattr(U.states, name), getattr(bs.states, name))
        assert U.states.starts.tolist() == [0, stop - first]
    # Every atom of the chain is a partition point: no transfer.
    assert bs.transfers.shape == (0, 2, 2)
    # With regular atoms inside two of three subintervals, each fundamental
    # matrix views the transfers through its own atoms.
    q = MeasureMatrix((-1.0, 1.0), breakpoints=[-1.0, 0.2, 1.0],
                      densities=[np.diag([0.4, -0.2]), np.array([[0.0, 0.3], [0.3, 0.0]])],
                      atoms=[(-0.3, np.diag([0.5, 0.5])), (0.6, np.diag([0.2, -0.1])),
                             (0.8, np.diag([0.1, 0.3]))])
    atoms = build_system(Problem(J2, q, MeasureMatrix.zero((-1.0, 1.0), 2)), (-1.0, 1.0),
                         (0.0, 0.5))
    assert not atoms.transfers.flags.writeable and len(atoms.transfers) == 3
    counts = []
    for U in atoms.fundamentals:
        counts.append(len(U.transfers))
        if len(U.transfers):
            assert np.shares_memory(U.transfers, atoms.transfers)
        for T, x in zip(U.transfers, q.atom_positions[(q.atom_positions > U.lo)
                                                      & (q.atom_positions < U.hi)]):
            assert atoms.states.nodes[atoms.transfer_nodes].tolist().count(x) == 1
            np.testing.assert_array_equal(T, atom_transfer(J2, q.jump(x)))
    assert counts == [1, 0, 2]
    kernel = solve_system(bs).kernel_basis[0]
    assert kernel._node_states().generators is kernel._homogeneous.generators
    particular = solve_system(bs, moment_vectors(bs, f)).particular
    for sol in (kernel, particular):
        assert sol._homogeneous is bs.states


def test_assemble_builds_no_fundamental_matrix_until_they_are_read(count_calls):
    problem, window, _ = _chain(4)
    built = count_calls(propagation, "FundamentalMatrix")
    bs = build_system(problem, window)
    solve_system(bs)
    assert built.calls == 0
    assert len(bs.fundamentals) == bs.N + 1 and built.calls == bs.N + 1
    assert bs.fundamentals is bs.fundamentals and built.calls == bs.N + 1


def test_solution_coefficients_are_read_only():
    sol = solve_ivp_regular(_density_problem(), (-1.0, 1.0), -1.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        sol.coefficients[0][0] = 2.0
    # So are its points: a write would move every later pairing of it.
    inst = random_chain(np.random.default_rng(3), 4, 2, True)
    sol = solve_system(build_system(inst.problem, inst.window)).kernel_basis[0]
    norm = weighted_norm(inst.problem.w, sol, inst.window)
    for points in (sol.points, solve_ivp_regular(_density_problem(), (-1.0, 1.0), -1.0,
                                                 [1.0, 0.0]).points):
        with pytest.raises(ValueError):
            points[-2] += 0.25
    assert weighted_norm(inst.problem.w, sol, inst.window) == norm


def test_fundamental_matrix_values_are_read_only():
    q = MeasureMatrix((-1.0, 1.0), breakpoints=[-1.0, 0.2, 1.0],
                      densities=[np.diag([0.4, -0.2]), np.array([[0.0, 0.3], [0.3, 0.0]])],
                      atoms=[(-0.3, np.diag([0.5, 0.5]))])
    U = fundamental_matrix(Problem(J2, q, MeasureMatrix.zero((-1.0, 1.0), 2)), (-1.0, 1.0))
    before = {side: U.evaluate(-0.3, side).copy() for side in ("left", "right")}
    end = U.states.lefts[-1].copy()
    for value in (U.evaluate(-1.0), U.evaluate(-0.3, "left"), U.evaluate(-0.3, "right"),
                  U.states.lefts[-1], U.transfers[0]):
        with pytest.raises(ValueError):
            value[0, 0] = 7.0
    np.testing.assert_array_equal(U.evaluate(-1.0), np.eye(2))
    for side, value in before.items():
        np.testing.assert_array_equal(U.evaluate(-0.3, side), value)
    np.testing.assert_array_equal(U.states.lefts[-1], end)


# -- the stacked exponential kernel ---------------------------------------------


def _kernel_stack(rng, m, top, complex_entries):
    """Matrices of size m with 1-norms up to ``top``; the first one reaches it.

    Hermitian, skew-Hermitian (both with well-conditioned exponentials),
    nilpotent augmented [[0, b], [0, 0]] and, below norm 3, general matrices.
    """
    def draw(shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_entries else out

    mats = []
    for k in range(int(rng.integers(1, 9))):
        kind = k % 4
        A = draw((m, m))
        if kind == 0:
            A = A + A.conj().T
        elif kind == 1:
            A = A - A.conj().T
        elif kind == 2:
            A = np.zeros((m, m), dtype=A.dtype)
            h = max(1, m // 2)
            A[:h, h:] = draw((h, m - h))
        norm = np.abs(A).sum(axis=0).max()
        target = top if k == 0 else rng.uniform(0.0, top if kind < 3 else min(top, 3.0))
        mats.append(A * (target / norm) if norm > 0 else A)
    return np.array(mats)


# scipy's expm itself sits up to 1.1e-12 (relative) from the series oracle on
# the real symmetric matrices of norm 40 below; the stacked kernel stays within
# 1e-14 of the oracle there.
TOL_SCIPY = 1e-11


def test_stacked_expm_matches_series_and_scipy_per_slice():
    from scipy.linalg import expm as scipy_expm
    rng = np.random.default_rng(44)
    worst_series = worst_scipy = 0.0
    # 0 and the bounds between Padé degrees 3 / 5 / 7 / 9 / 13 / scaled 13
    for top in (0.0, 0.01, 0.2, 0.9, 2.0, 5.0, 12.0, 40.0):
        for m in range(1, 15):
            for complex_entries in (False, True):
                stack = _kernel_stack(rng, m, top, complex_entries)
                got = propagation.expm(stack)
                assert got.shape == stack.shape
                assert np.iscomplexobj(got) == complex_entries
                for A, value in zip(stack, got):
                    want = series_expm(A)
                    scale = np.linalg.norm(want, 2)
                    worst_series = max(worst_series, np.linalg.norm(value - want, 2) / scale)
                    worst_scipy = max(worst_scipy,
                                      np.linalg.norm(value - scipy_expm(A), 2) / scale)
    assert worst_series <= TOL_SERIES
    assert worst_scipy <= TOL_SCIPY


def test_stacked_expm_shapes_and_the_exact_nilpotent_case():
    assert propagation.expm(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)
    b = np.array([[2.0, -1.0], [0.5, 3.0]])
    N = np.zeros((2, 3, 4, 4))
    N[..., :2, 2:] = b * np.arange(1, 7).reshape(2, 3, 1, 1)
    got = propagation.expm(N)
    assert got.shape == (2, 3, 4, 4)
    np.testing.assert_allclose(got, np.eye(4) + N, rtol=0, atol=1e-13)


# -- pairings and moment integrals against a per-piece reference -----------------

TOL_PAIRING_REF = 1e-12  # relative to max(1, |value|)


def _piece_form(factor, problem, s0, mid):
    """(P, A, y0) with factor(s0 + s) = P exp(A s) y0 on a structure-free piece.

    Built from problem data and public evaluation only: the augmented
    generator [[-J^-1 q0, J^-1 w0 f0], [0, 0]] and the right limit at s0.
    """
    if isinstance(factor, L2Function):
        return (factor.value(mid).reshape(-1, 1), np.zeros((1, 1), dtype=complex),
                np.ones(1, dtype=complex))
    n, J = problem.n, problem.J
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n] = -np.linalg.solve(J, problem.q.density_at(mid))
    if factor.rhs is not None:
        A[:n, n] = np.linalg.solve(J, problem.w.density_at(mid) @ factor.rhs.value(mid))
    y0 = np.append(factor.evaluate(s0, "right"), 1.0)
    return np.eye(n, n + 1, dtype=complex), A, y0


def _balanced(factor, x):
    if isinstance(factor, L2Function):
        return factor.value(x, "balanced")
    return factor.evaluate(x, "balanced")


def _reference_pairing(problem, u, v, window):
    lo, hi = window
    w = problem.w
    cuts = [np.array([lo, hi])] + [f.structure_points() for f in (w, u, v)]
    grid = np.unique(np.concatenate(cuts))
    grid = grid[(grid >= lo) & (grid <= hi)]
    total = 0.0
    for s0, s1 in zip(grid[:-1], grid[1:]):
        s0, mid = float(s0), 0.5 * float(s0 + s1)
        w0 = w.density_at(mid)
        if not w0.any():
            continue
        Pu, Au, yu = _piece_form(u, problem, s0, mid)
        Pv, Av, yv = _piece_form(v, problem, s0, mid)
        kernel = product_integral(Au.conj().T, Pu.conj().T @ w0 @ Pv, Av, float(s1) - s0)
        total += yu.conj() @ kernel @ yv
    for pos, mat in zip(*w.atoms_between(lo, hi)):
        total += _balanced(u, float(pos)).conj() @ (mat @ _balanced(v, float(pos)))
    return complex(total)


def _reference_integral(U, problem, f, upto):
    w = problem.w
    grid = np.unique(np.concatenate([U.states.nodes, w.structure_points(), f.structure_points(),
                                     [U.lo, upto]]))
    grid = grid[(grid >= U.lo) & (grid <= upto)]
    total = np.zeros(U.n, dtype=complex)
    for s0, s1 in zip(grid[:-1], grid[1:]):
        s0, mid = float(s0), 0.5 * float(s0 + s1)
        M = -np.linalg.solve(problem.J, problem.q.density_at(mid))
        load = w.density_at(mid) @ f.value(mid)
        total += U.evaluate(s0, "right").conj().T @ (segment_integral(M.conj().T, float(s1) - s0)
                                                       @ load)
    for pos, mat in zip(*w.atoms_between(U.lo, upto)):
        total += U.evaluate(float(pos)).conj().T @ (mat @ f.value(float(pos), "balanced"))
    return total


def _relative(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / max(1.0, float(np.max(np.abs(want)))))


def test_pairings_and_moment_integrals_match_a_per_piece_reference():
    # Both import this module (test_block_factors through test_acceptance).
    from test_acceptance import _fuzz_systems
    from test_block_factors import mirrored_chain
    rng = np.random.default_rng(45)
    cases = [(inst.problem, bs, random_f(rng, inst.problem, inst.window))
             for inst, bs in _fuzz_systems()]
    problem, f = _dense_problem(rng)
    cases.append((problem, build_system(problem, (-1.0, 1.0), (0.1,)), f))
    worst = 0.0
    for problem, bs, f in cases:
        f = f.refined_against(problem.w)
        window = bs.partition.window
        integrals = moment_vectors(bs, f).integrals.reshape(bs.N, bs.n)
        for j, U in enumerate(bs.fundamentals[:-1]):
            worst = max(worst, _relative(integrals[j], _reference_integral(U, problem, f, U.hi)))
        U = bs.fundamentals[-1]
        upto = 0.5 * (U.lo + U.hi)
        worst = max(worst, _relative(inhomogeneous_integral(U, problem.w, f, upto),
                                     _reference_integral(U, problem, f, upto)))
        solutions = _solutions_of(bs, f)
        for sol in solutions:
            for u, v in ((sol, sol), (sol, f), (f, sol), (solutions[0], sol)):
                worst = max(worst, _relative(w_pairing(problem.w, u, v, window),
                                             _reference_pairing(problem, u, v, window)))
    assert worst <= TOL_PAIRING_REF


def _exponential_function_pairings(w, u, v, edges):
    """``_pairings`` of two lists of representable functions the general way.

    Each function is a state factor with a zero generator and identity end
    states, so every piece is the block convolution with zero diagonal
    blocks, one stacked exponential, and the terms are summed with
    ``np.add.at``.
    """
    n, edges = w.n, np.asarray(edges, dtype=float)
    starts, ends, mids, w0, positions, matrices = propagation._pairing_grid(
        w, edges, [f.structure_points() for f in u + v])
    Pu, _, _, _, au, _ = propagation._pairing_form(u, n, mids, positions, starts, ends)
    Pv, _, _, _, av, _ = propagation._pairing_form(v, n, mids, positions, starts, ends)
    zu, zv = (np.zeros((mids.size, len(f), len(f)), dtype=complex) for f in (u, v))
    kernel = propagation._convolution(zu, Pu.conj().swapaxes(1, 2) @ w0 @ Pv, zv,
                                      ends - starts)
    out = np.zeros((edges.size - 1, len(u), len(v)), dtype=complex)
    np.add.at(out, np.searchsorted(edges, mids) - 1, kernel)
    np.add.at(out, np.searchsorted(edges, positions) - 1,
              au.conj().swapaxes(1, 2) @ (matrices @ av))
    return out


def test_function_pairings_in_closed_form_match_the_exponential_path():
    # Over the window (w-atoms strictly inside) and over the partition
    # points (some w-atoms on the edges), for one function, two, and lists.
    from test_acceptance import _fuzz_systems
    rng = np.random.default_rng(53)
    cases = [(inst.problem, bs.points) for inst, bs in _fuzz_systems()]
    problem, _ = _dense_problem(rng)
    cases.append((problem, np.array([-1.0, -0.3, 0.1, 1.0])))  # atoms at -0.3 and 0.1
    worst, on_edges = 0.0, 0
    for problem, points in cases:
        window = (points[0], points[-1])
        w = problem.w
        f, g = (random_f(rng, problem, window) for _ in range(2))
        on_edges += int(np.isin(w.atom_positions, points).sum())
        for edges in (points[[0, -1]], points):
            for u, v in (([f], [f]), ([f], [g]), ([f, g], [g]), ([g], [f, g])):
                got = propagation._pairings(w, u[0] if len(u) == 1 else u,
                                            v[0] if len(v) == 1 else v, edges)
                want = _exponential_function_pairings(w, u, v, edges)
                scale = max(float(np.abs(want).max()), np.finfo(float).tiny)  # w may vanish
                worst = max(worst, float(np.abs(got - want).max()) / scale)
    assert on_edges > 0
    assert worst <= 1e-14


def test_an_interval_with_no_piece_and_no_atom_sums_to_exactly_zero():
    # A weight that vanishes on the middle interval and has no atom there:
    # every pairing route leaves that row exactly zero and matches the
    # per-piece reference on the others.
    rng = np.random.default_rng(54)
    problem, f = _dense_problem(rng)
    edges = np.array([-1.0, -0.2, 0.3, 1.0])
    w = MeasureMatrix(problem.interval, breakpoints=[-1.0, -0.2, 0.3, 1.0],
                      densities=[np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)],
                      atoms=[(-0.7, np.eye(2)), (-0.2, np.eye(2)), (0.45, np.eye(2))])
    problem = Problem(problem.J, problem.q, w)
    f = f.refined_against(w)
    bs = build_system(problem, (-1.0, 1.0), (-0.2, 0.3))
    assert np.array_equal(bs.points, edges)
    solutions = _solutions_of(bs, f)
    kernel = solutions[1]
    for u, v in ((kernel, kernel), (solutions[0], f), (f, f)):
        got = propagation._pairings(w, u, v, edges)[:, 0, 0]
        assert got[1] == 0.0
        for i in (0, 2):
            assert _relative(got[i], _reference_pairing(problem, u, v, edges[i:i + 2])) \
                <= TOL_PAIRING_REF


def test_a_batched_basis_pairs_like_its_solutions_one_by_one():
    # The kernel basis as one factor with d columns: its Gram matrix and its
    # pairings with f must match w_pairing on the d reconstructed solutions,
    # from either side (so a lost conjugate shows as a non-Hermitian Gram).
    from test_acceptance import _fuzz_systems
    from test_block_factors import _mirrored_family
    from conftest import basis_states
    rng = np.random.default_rng(47)
    systems = _fuzz_systems() + _mirrored_family()
    worst, widest = 0.0, 0
    for inst, bs in systems:
        w, window = inst.problem.w, bs.partition.window
        f = random_f(rng, inst.problem, window)
        kernel = bs.factors.kernel()
        basis = basis_states(bs, kernel)
        gram = propagation._pairings(w, basis, basis, window)[0]
        f_pairings = propagation._pairings(w, f, basis, window)[0, 0]
        solutions = [reconstruct(bs, column) for column in kernel.T]
        norms = [abs(w_pairing(w, u, u, window)) ** 0.5 for u in solutions]
        f_norm = abs(w_pairing(w, f, f, window)) ** 0.5
        widest = max(widest, len(solutions))
        for i, u in enumerate(solutions):
            scale = max(1.0, f_norm * norms[i])
            worst = max(worst, abs(f_pairings[i] - w_pairing(w, f, u, window)) / scale,
                        abs(f_pairings[i] - np.conj(w_pairing(w, u, f, window))) / scale)
            for j, v in enumerate(solutions):
                scale = max(1.0, norms[i] * norms[j])
                worst = max(worst, abs(gram[i, j] - w_pairing(w, u, v, window)) / scale,
                            abs(gram[i, j] - np.conj(w_pairing(w, v, u, window))) / scale)
    assert len(systems) == 240 and widest >= 6
    assert worst <= 1e-12


def _plain(states):
    """A copy of node states as plain ``_NodeStates``: no pairing table serves them."""
    return propagation._NodeStates(states.nodes, states.generators, states.rights,
                                   states.lefts, states.starts)


def _other_weight(rng, problem, bs):
    """A weight with atoms on every interior partition point and between them,
    its own pieces inside the window, and one piece where its density is zero."""
    (a, b), (lo, hi), n = problem.interval, bs.partition.window, bs.n
    breakpoints = np.concatenate([[a], np.sort(rng.uniform(lo, hi, 4)), [b]])
    densities = [psd_project(random_matrix(rng, n)) for _ in breakpoints[1:]]
    densities[int(rng.integers(len(densities)))] = np.zeros((n, n))
    positions = np.sort(np.concatenate([bs.points[1:-1], rng.uniform(lo, hi, 3)]))
    return MeasureMatrix((a, b), breakpoints=breakpoints, densities=densities,
                         atoms=[(float(x), psd_project(random_matrix(rng, n)))
                                for x in positions])


def test_homogeneous_pairings_from_the_table_match_the_general_path():
    # Every ordered pair of each kernel basis: against the problem's weight
    # over the window, then against another weight over a sub-window and over
    # several intervals (one edge on its w-atom at a partition point).  The
    # general path pairs plain copies of the solutions' own node states,
    # which no table serves; each case changes the weight or the edges, so a
    # stale table would show, and each gets its own table.  The general path
    # runs once per unordered pair; the exact pairing is Hermitian.
    from test_acceptance import _fuzz_systems
    from test_block_factors import _mirrored_family
    rng = np.random.default_rng(51)
    systems = _fuzz_systems() + _mirrored_family()
    worst = 0.0
    for inst, bs in systems:
        problem, (lo, hi) = inst.problem, bs.partition.window
        other = _other_weight(rng, problem, bs)
        a, b = np.sort(rng.uniform(lo, hi, 2))
        cases = [(problem.w, [lo, hi]), (other, [a, b]),
                 (other, np.unique([lo, bs.points[1], b, hi]))]
        solutions = [reconstruct(bs, column) for column in bs.factors.kernel().T]
        states = [_plain(u._node_states()) for u in solutions]
        d = len(solutions)
        for w, edges in cases:
            want = np.empty((d, d, len(edges) - 1), dtype=complex)
            for i in range(d):
                for j in range(i, d):
                    pair = propagation._pairings(w, states[i], states[j], edges)[:, 0, 0]
                    want[j, i], want[i, j] = pair.conj(), pair
            norms = np.sqrt(np.abs(np.diagonal(want).sum(axis=0)))
            for i, u in enumerate(solutions):
                for j, v in enumerate(solutions):
                    got = propagation._pairings(w, u, v, edges)[:, 0, 0]
                    worst = max(worst, np.abs(got - want[i, j]).max()
                                / max(1.0, norms[i] * norms[j]))
            # One table of the build with itself, for the last weight and edges.
            (key,) = bs.states._tables
            assert key == (w, tuple(edges))
            assert bs.states._tables[key].intervals == len(edges) - 1
    assert len(systems) == 240
    assert worst <= 1e-12


def test_weighted_norms_of_a_kernel_basis_exponentiate_only_for_the_first(count_calls):
    inst = random_chain(np.random.default_rng(52), 20)
    bs = build_system(inst.problem, inst.window)
    basis = solve_system(bs).kernel_basis
    expm = count_calls(propagation, "expm")
    counts = []
    for u in basis:
        expm.calls = 0
        weighted_norm(inst.problem.w, u, inst.window)
        counts.append(expm.calls)
    # The first builds the table: one flow to the w-breakpoints, one convolution.
    assert len(basis) == 12 and counts == [2] + [0] * 11


def test_the_pairing_table_lives_and_dies_with_its_build():
    inst = random_chain(np.random.default_rng(53), 6)
    bs = build_system(inst.problem, inst.window)
    basis = solve_system(bs).kernel_basis
    for u in basis:
        weighted_norm(inst.problem.w, u, inst.window)
    states = bs.states
    (table,) = states._tables.values()
    # Spans of the build's states carry no table of their own.
    assert all("_tables" not in vars(U.states) for U in bs.fundamentals)
    refs = [weakref.ref(states), weakref.ref(table)]
    del bs, basis, u, states, table
    gc.collect()
    assert all(ref() is None for ref in refs)


def _padded_hyperbolic_system():
    parsed = load_problem(os.path.join(os.path.dirname(__file__), "data",
                                       "instance_hyperbolic_padded.json"))
    inst = SimpleNamespace(problem=parsed.problem, window=parsed.window)
    return inst, build_system(parsed.problem, parsed.window, parsed.forced_points)


def _homogeneous_factors(bs):
    """A reconstructed, a lifted and a compact solution of bs where it has them."""
    from measureode.solutions import _lift_projected
    factors = [reconstruct(bs, bs.factors.kernel()[:, 0])]
    adjoint = bs.reduced_factors.adjoint_kernel()
    if adjoint.shape[1]:
        factors.append(reconstruct(bs, _lift_projected(bs, adjoint[:, :1], 1e-8)[:, 0]))
    factors += compact_support_solutions(bs)[:1]
    return factors


def test_rhs_table_pairings_match_the_general_path():
    # Each homogeneous factor's pairing with f read from f's table in its
    # moment vectors (the contraction _lift_and_pair and the t0 rows make)
    # against the general path, which w_pairing takes in either order.  The
    # scale is the Cauchy-Schwarz bound |<u, f>| <= |u|_w |f|_w of each column.
    from test_acceptance import _fuzz_systems
    from test_block_factors import _mirrored_family
    rng = np.random.default_rng(54)
    systems = _fuzz_systems() + _mirrored_family() + [_padded_hyperbolic_system()]
    worst, widest = 0.0, 0
    for inst, bs in systems:
        w, window = inst.problem.w, bs.partition.window
        f = random_f(rng, inst.problem, window)
        table = moment_vectors(bs, f).table
        f_norm = weighted_norm(w, f, window)
        factors = _homogeneous_factors(bs)
        widest = max(widest, len(factors))
        for u in factors:
            u_norms = np.sqrt(np.abs(np.diagonal(
                propagation._pairings(w, u, u, window)[0])))
            scale = np.maximum(u_norms * f_norm, np.finfo(float).tiny)
            got = propagation._contract(table, u.coefficients[..., None],
                                        np.ones((1, 1, 1)))[0, :, 0]
            want = propagation._pairings(w, u, f, window)[0, :, 0]
            want_f_first = propagation._pairings(w, f, u, window)[0, 0]
            worst = max(worst, float(np.max(np.abs(got - want) / scale)),
                        float(np.max(np.abs(want_f_first - got.conj()) / scale)))
    # Some system has all three factors: a lifted and a compact solution too.
    assert widest == 3
    assert worst <= 1e-13


def test_a_pairing_with_a_rhs_does_not_depend_on_its_moment_vectors():
    # w_pairing(w, u, f) for a homogeneous u gives the same bits before and
    # after moment_vectors(bs, f) has built f's table, in either order.
    pairs = 0
    for seed in range(4):
        inst = random_chain(np.random.default_rng(seed), 8, mirrored=True)
        bs = build_system(inst.problem, inst.window)
        w, window = inst.problem.w, inst.window
        f = random_f(np.random.default_rng(100 + seed), inst.problem, window)
        factors = _homogeneous_factors(bs)

        def pairings():
            return [(w_pairing(w, u, f, window), w_pairing(w, f, u, window)) for u in factors]

        before = pairings()
        moment_vectors(bs, f)
        assert pairings() == before
        pairs += len(before)
    assert pairs >= 8


def _two_piece_weight(rng, problem, window):
    """A weight of two densities, cut inside the window, with one atom strictly inside it."""
    (a, b), (lo, hi), n = problem.interval, window, problem.n
    cut, atom = sorted(rng.uniform(lo, hi, 2).tolist())
    return MeasureMatrix((a, b), breakpoints=[a, cut, b],
                         densities=[psd_project(random_matrix(rng, n)) for _ in range(2)],
                         atoms=[(atom, psd_project(random_matrix(rng, n)))])


def _self_pairing_defect(w, u, edges):
    """The largest difference of u's pairings with itself over edges read from
    its own Taylor table and from the block convolution, relative to their
    sum over the edges (each weight here is positive semidefinite)."""
    copy = PiecewiseSolution(u.problem, u._homogeneous, u.coefficients, u.rhs)
    got = propagation._pairings(w, u, u, edges)[:, 0, 0]
    want = propagation._pairings(w, u, copy, edges)[:, 0, 0]
    return float(np.abs(got - want).max() / max(np.abs(want).sum(), np.finfo(float).tiny))


def test_self_pairings_from_the_taylor_table_match_the_block_convolution():
    # A solution with a rhs paired with itself reads its own Taylor table; a
    # distinct copy of it forces the block convolution.  Each solution is
    # weighed against the problem's weight over its window, over a sub-window
    # and over edges of more than two points (so the interval sums are
    # checked), and against a foreign two-piece weight with an interior atom.
    from test_acceptance import _fuzz_systems
    rng = np.random.default_rng(56)
    cases = []
    for inst, bs in _fuzz_systems():
        result = solve_system(bs, moment_vectors(bs, random_f(rng, inst.problem,
                                                               bs.partition.window)))
        if result.consistent:
            cases.append((inst.problem, bs, result.particular))
    consistent = len(cases)
    chains = [random_chain(rng, N, 2, mirrored) for N in (4, 8) for mirrored in (True, False)]
    three = random_instance(rng, n=3)
    padded, padded_bs = _padded_hyperbolic_system()
    for inst, bs in [(c, build_system(c.problem, c.window)) for c in chains] + [
            (three, build_system(three.problem, three.window, three.extra_points)),
            (padded, padded_bs)]:
        f = random_f(rng, inst.problem, bs.partition.window)
        result = solve_system(bs, moment_vectors(bs, f))
        cases.append((inst.problem, bs, reconstruct(bs, result.coefficients, f)))
    assert three.problem.n == 3 and consistent == 200
    worst = 0.0
    for problem, bs, u in cases:
        (lo, hi), w = u.window, problem.w
        a, b = np.sort(rng.uniform(lo, hi, 2))
        edges = np.unique([lo, *bs.points[1:-1], a, b, hi])
        weights = [w, _two_piece_weight(rng, problem, u.window)]
        if bs.N > 1:
            # w-atoms on every interior partition point and between them.
            weights.append(_other_weight(rng, problem, bs))
        for weight in weights:
            for window in ([lo, hi], [a, b], edges):
                worst = max(worst, _self_pairing_defect(weight, u, np.asarray(window)))
    assert worst <= 1e-12


def test_weighing_a_solution_reads_its_own_taylor_table(count_calls):
    # Weighing a solution that has been sampled takes no exponential and
    # builds no second sampler; weighing one that has not builds the one
    # sampler that a later interior read reuses.
    inst = random_chain(np.random.default_rng(57), 6, mirrored=False)
    w, window = inst.problem.w, inst.window
    bs = build_system(inst.problem, window)
    result = solve_system(bs, moment_vectors(bs, inst.f))
    sampled = result.particular
    unsampled = reconstruct(bs, result.coefficients, inst.f)
    sampled.evaluate(0.5 * sum(window))
    expm = count_calls(propagation, "expm")
    sampler = count_calls(propagation, "_Sampler")
    norm = weighted_norm(w, sampled, window)
    squares = [inner_product(w, sampled, sampled, window),
               w_pairing(w, sampled, sampled, window)]
    assert expm.calls == 0 and sampler.calls == 0
    assert squares[0] == squares[1] and np.sqrt(squares[0].real) == norm
    assert weighted_norm(w, unsampled, window) == norm
    assert sampler.calls == 1
    unsampled.evaluate(0.25 * window[1])
    assert sampler.calls == 1 and "_sampler" in vars(unsampled)


def test_moment_vectors_equal_a_direct_pairing_of_the_fundamental_matrices():
    # moment_vectors sums f's rhs table per subinterval; the general path on
    # the build's own states over the partition points gives the same arrays
    # bit for bit, w-atoms on partition points (jump moments) left out.
    from test_acceptance import _fuzz_systems
    from test_block_factors import _mirrored_family
    rng = np.random.default_rng(55)
    systems = _fuzz_systems() + _mirrored_family() + [_padded_hyperbolic_system()]
    problem, _ = _dense_problem(rng)
    systems.append((SimpleNamespace(problem=problem, window=(-1.0, 1.0)),
                    build_system(problem, (-1.0, 1.0), (-0.3, 0.1))))
    on_points = 0
    for inst, bs in systems:
        f = random_f(rng, inst.problem, bs.partition.window)
        mv = moment_vectors(bs, f)
        direct = propagation._pairings(inst.problem.w, bs.states, f, bs.points)[..., 0]
        assert np.array_equal(mv.integrals, direct[:-1].reshape(-1))
        assert np.array_equal(mv.last_integral, direct[-1])
        on_points += int(np.isin(inst.problem.w.atom_positions, bs.points[1:-1]).sum())
    assert on_points > 0


def test_the_rhs_table_lives_and_dies_with_its_moment_vectors():
    inst = random_chain(np.random.default_rng(56), 6, mirrored=True)
    bs = build_system(inst.problem, inst.window)
    w = inst.problem.w
    f = random_f(np.random.default_rng(57), inst.problem, inst.window)
    u = compact_support_solutions(bs)[0]
    moments, again = moment_vectors(bs, f), moment_vectors(bs, f)
    # Each call builds its own table, equal term for term; the build keeps none.
    assert moments.table is not again.table
    assert np.array_equal(moments.table.terms, again.table.terms)
    assert moments.states is bs.states and "_tables" not in vars(bs.states)
    # Pairings with f, on the build and on a span of its states, build no table.
    U = bs.fundamentals[1]
    span_solution = PiecewiseSolution(inst.problem, U.states, [np.ones(2)])
    w_pairing(w, u, f, inst.window)
    w_pairing(w, span_solution, f, U.interval)
    assert "_tables" not in vars(bs.states)
    assert all("_tables" not in vars(V.states) for V in bs.fundamentals)
    refs = [weakref.ref(moments.table), weakref.ref(again.table)]
    del moments, again
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_build_keeps_one_table():
    # Five right-hand sides and norms against two weights and two windows:
    # the states keep one table, the build's with itself for the last pairing.
    inst = random_chain(np.random.default_rng(58), 4)
    bs = build_system(inst.problem, inst.window)
    rng = np.random.default_rng(59)
    for f in [random_f(rng, inst.problem, inst.window) for _ in range(5)]:
        moment_vectors(bs, f)
    assert "_tables" not in vars(bs.states)
    u = solve_system(bs).kernel_basis[0]
    other = _other_weight(rng, inst.problem, bs)
    for w in (inst.problem.w, other):
        for window in (inst.window, (1.5, 3.5)):
            weighted_norm(w, u, window)
            assert list(bs.states._tables) == [(w, window)]


def test_limits_flow_each_distinct_point_once(monkeypatch):
    # Repeated off-node points share one flow, and every point reads the
    # state that flowing all of them in one stack gives, bit for bit.
    inst = random_chain(np.random.default_rng(60), 5, mirrored=False)
    states = build_system(inst.problem, inst.window).states
    xs = np.random.default_rng(61).uniform(*inst.window, 7)
    repeated = np.concatenate([xs, states.nodes[2:4], xs[::-1], xs[:3]])
    i = np.searchsorted(states.nodes, repeated)
    off = states.nodes[np.minimum(i, states.generators.shape[0])] != repeated
    every = states.flow(i[off] - 1, repeated[off])
    sizes, flow = [], type(states).flow
    monkeypatch.setattr(type(states), "flow",
                        lambda self, k, x: sizes.append(x.size) or flow(self, k, x))
    left, right = states.limits(repeated)
    assert off.sum() == 17 and sizes == [7]
    assert np.array_equal(left[off], every) and np.array_equal(right[off], every)


# -- one stacked exponential call per routine ------------------------------------


def _chain(N):
    """N mirrored singular atoms on (0, N + 1), q and w densities on quarter pieces,
    w-atoms between the q-atoms, and a rhs with its own breakpoints."""
    rng = np.random.default_rng(46)
    window = (0.0, N + 1.0)
    qbp = np.arange(0.0, N + 1.25, 0.5)
    q = MeasureMatrix(window, breakpoints=qbp,
                      densities=[0.3 * hermitize(random_matrix(rng, 2)) for _ in qbp[1:]],
                      atoms=[(float(x), (-1) ** x * np.array([[0.0, 2.0], [2.0, 0.0]]))
                             for x in range(1, N + 1)])
    wbp = np.arange(0.0, N + 1.125, 0.25)
    w = MeasureMatrix(window, breakpoints=wbp,
                      densities=[psd_project(random_matrix(rng, 2)) for _ in wbp[1:]],
                      atoms=[(x + 0.625, psd_project(random_matrix(rng, 2))) for x in range(N)])
    problem = Problem(J2, q, w)
    edges = np.arange(0.0, N + 1.1, 1.0 / 3.0)
    edges[-1] = N + 1.0
    f = L2Function.from_pieces(window, [(edges[i], edges[i + 1], random_complex(rng, 2))
                                        for i in range(edges.size - 1)], w=w)
    return problem, window, f


def test_each_routine_makes_a_fixed_number_of_exponential_calls(count_calls):
    from measureode.blocksystem import assemble, find_singular_points, make_partition
    expm = count_calls(propagation, "expm")

    def calls(run):
        expm.calls = 0
        result = run()
        return expm.calls, result

    per_size = []
    for N in (10, 40):
        problem, window, f = _chain(N)
        partition = make_partition(window, find_singular_points(problem, window))
        assert partition.count == N
        n_assemble, bs = calls(lambda: assemble(problem, partition))
        n_moments, mv = calls(lambda: moment_vectors(bs, f))
        sol = reconstruct(bs, solve_system(bs, mv).coefficients, f)
        n_states, _ = calls(sol._node_states)
        n_pairing, _ = calls(lambda: w_pairing(problem.w, sol, sol, window))
        n_mixed, _ = calls(lambda: w_pairing(problem.w, sol, f, window))
        U = bs.fundamentals[-1]
        n_integral, _ = calls(lambda: inhomogeneous_integral(U, problem.w, f,
                                                             0.5 * (U.lo + U.hi)))
        n_orthogonal, _ = calls(lambda: orthogonal_rhs(np.random.default_rng(0), bs, 1e-10))
        # A homogeneous solution reads its states off the fundamental matrices.
        kernel = solve_system(bs).kernel_basis[0]
        n_homogeneous, states = calls(kernel._node_states)
        assert states.generators.shape[1:] == (2, 2) and states.rights.shape[1:] == (2, 1)
        n_kernel, _ = calls(lambda: w_pairing(problem.w, kernel, kernel, window))
        g = random_f(np.random.default_rng(N), problem, window)
        n_functions, _ = calls(lambda: (w_pairing(problem.w, f, g, window),
                                        propagation._pairings(problem.w, [f, g], g, bs.points)))
        per_size.append(dict(assemble=n_assemble, moments=n_moments, states=n_states,
                             pairing=n_pairing, mixed=n_mixed, integral=n_integral,
                             orthogonal=n_orthogonal, homogeneous=n_homogeneous,
                             kernel_pairing=n_kernel, functions=n_functions))
    # Each piece end's left limit comes from the same limits call as its start,
    # so a pairing exponentiates only the block convolution besides the flows
    # to grid points off the factor's nodes (the w-breakpoints here).  Two
    # representable functions pair in closed form.  A solution paired with
    # itself reads its own Taylor table: its one call is the flow to the
    # table's sub-gap starts, made when the table is built.
    assert per_size[0] == per_size[1] == dict(
        assemble=1, moments=2, states=1, pairing=1, mixed=1, integral=2,
        orthogonal=2, homogeneous=0, kernel_pairing=2, functions=0)
