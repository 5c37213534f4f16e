"""Propagators, exponential integrals, fundamental matrices, pairings.

The matrix-exponential oracle here is deliberately independent of scipy:
a 30-term Taylor series evaluated after scaling the argument below unit
norm, followed by repeated squaring.  The integral oracles are adaptive
quadrature of the integrand sampled entry by entry.
"""

import numpy as np
import pytest
from scipy.integrate import quad_vec

from measureode import (
    MeasureMatrix,
    OutOfInterval,
    Problem,
    SingularAtom,
    atom_transfer,
    fundamental_matrix,
    segment_exponential,
    segment_integral,
    product_integral,
    solve_ivp_regular,
)
from measureode import build_system, propagation
from measureode.blocksystem import moment_vectors
from measureode.functions import L2Function
from measureode.fuzz import hermitize, psd_project, random_f, random_matrix
from measureode.propagation import inhomogeneous_integral, w_pairing
from measureode.solutions import reconstruct, solve_system

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
    from measureode import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        atom_transfer(J2, np.eye(3, dtype=complex))


def _density_problem():
    q = MeasureMatrix.lebesgue((-1.0, 1.0), np.diag([0.4, -0.2]).astype(complex))
    return Problem(J2, q, MeasureMatrix.zero((-1.0, 1.0), 2))


def test_fundamental_matrix_normalization_and_end_value():
    U = fundamental_matrix(_density_problem(), (-1.0, 1.0))
    np.testing.assert_array_equal(U.evaluate(-1.0, "right"), np.eye(2))
    want = segment_exponential(J2, np.diag([0.4, -0.2]), 2.0)
    np.testing.assert_allclose(U.end_value, want, atol=1e-13)


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
    for T in U.transfers:
        assert np.linalg.norm(T.conj().T @ J2 @ T - J2) <= TOL_IDENTITY


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


def test_solve_ivp_regular_propagates_like_the_exponential():
    problem = _density_problem()
    u0 = np.array([1.0, 1.0], dtype=complex)
    sol = solve_ivp_regular(problem, (-1.0, 1.0), -1.0, u0)
    q0 = np.diag([0.4, -0.2])
    for x in (-0.5, 0.0, 0.9):
        want = segment_exponential(J2, q0, x + 1.0) @ u0
        np.testing.assert_allclose(sol.evaluate(x), want, atol=1e-12)


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


def _oracle_limit(sol, j, x, side):
    """U(x)(c + J^{-1} int U^* w f) on subinterval j, plus the w-atom shift on the right."""
    U, J, w, f = sol.fundamentals[j], sol.problem.J, sol.problem.w, sol.rhs
    v = sol.coefficients[j] + np.linalg.solve(J, inhomogeneous_integral(U, w, f, x))
    if side == "right" and f is not None and x > U.lo:
        atom = U.evaluate(x, "balanced").conj().T @ (w.jump(x) @ f.value(x, "balanced"))
        v = v + np.linalg.solve(J, atom)
    return U.evaluate(x, side) @ v


def _oracle(sol, x):
    """Oracle values at x by side; a side the window lacks is left out."""
    pts = sol.points
    out = {}
    if x > pts[0]:
        out["left"] = _oracle_limit(sol, int(np.searchsorted(pts, x)) - 1, x, "left")
    if x < pts[-1]:
        out["right"] = _oracle_limit(sol, int(np.searchsorted(pts, x, "right")) - 1, x, "right")
    sides = list(out.values())
    out["balanced"] = 0.5 * (sides[0] + sides[-1])
    return out


def _nodes(sol):
    """Partition points and every point where q, w or f changes, in the window."""
    lo, hi = sol.window
    nodes = np.unique(np.concatenate([sol.structure_points(),
                                      sol.problem.w.structure_points()]))
    return nodes[(nodes >= lo) & (nodes <= hi)]


def _worst_oracle_defect(sol):
    nodes = _nodes(sol)
    worst = 0.0
    for x in np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]):
        for side, want in _oracle(sol, float(x)).items():
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
    from test_acceptance import _fuzz_systems  # imports this module, so not at the top
    rng = np.random.default_rng(41)
    worst = 0.0
    for inst, bs in _fuzz_systems():
        f = random_f(rng, inst.problem, inst.window)
        for sol in _solutions_of(bs, f):
            worst = max(worst, _worst_oracle_defect(sol))
    problem, f = _dense_problem(rng)
    for extra in ((), (0.1,)):
        bs = build_system(problem, (-1.0, 1.0), extra)
        for sol in _solutions_of(bs, f):
            worst = max(worst, _worst_oracle_defect(sol))
    assert worst <= TOL_ORACLE


def test_sampling_takes_one_exponential_per_sample(monkeypatch):
    problem, f = _dense_problem(np.random.default_rng(42))
    sol = _solutions_of(build_system(problem, (-1.0, 1.0), (0.1,)), f)[0]
    counts = {"expm": 0, "integral": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(propagation, "expm", counted("expm", propagation.expm))
    monkeypatch.setattr(propagation, "inhomogeneous_integral",
                        counted("integral", propagation.inhomogeneous_integral))
    grid = -1.0 + (np.arange(200) + 0.5) / 100.0
    assert not np.isin(grid, _nodes(sol)).any()
    sol.evaluate(float(grid[0]))
    first = counts["expm"]
    for x in grid[1:]:
        sol.evaluate(float(x))
    assert counts["integral"] == 0
    assert counts["expm"] - first <= grid.size - 1


def test_solution_coefficients_are_read_only():
    sol = solve_ivp_regular(_density_problem(), (-1.0, 1.0), -1.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        sol.coefficients[0][0] = 2.0
