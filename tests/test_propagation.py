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
    PiecewiseSolution,
    Problem,
    SingularAtom,
    atom_transfer,
    fundamental_matrix,
    segment_exponential,
    segment_integral,
    product_integral,
    solve_ivp_regular,
    WindowMismatch,
)
from measureode import build_system, propagation
from measureode.blocksystem import moment_vectors
from measureode.functions import L2Function
from measureode.fuzz import hermitize, psd_project, random_f, random_matrix
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
    # Both import this module (test_block_factors through test_acceptance).
    from test_acceptance import _fuzz_systems
    from test_block_factors import mirrored_chain
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
    for pairs in (2, 10):
        problem, window = mirrored_chain(pairs=pairs)
        bs = build_system(problem, window)
        compact = compact_support_solutions(bs)
        assert len(compact) == pairs
        for sol in compact:
            worst = max(worst, _worst_oracle_defect(sol))
            _assert_zero_outside_support(sol)
        for sol in _solutions_of(bs, random_f(rng, problem, window)):
            worst = max(worst, _worst_oracle_defect(sol))
    assert worst <= TOL_ORACLE


def _assert_zero_outside_support(sol):
    """Exact zeros off [p_1, p_{N-1}], and the outer limits at its two ends."""
    lo, hi = sol.points[1], sol.points[-2]
    nodes = _nodes(sol)
    for x in np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]):
        for side in _oracle(sol, float(x)):
            if x < lo or x > hi or (x, side) in ((lo, "left"), (hi, "right")):
                assert not sol.evaluate(float(x), side).any()


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


def test_solution_fundamentals_must_span_their_subintervals():
    problem = _density_problem()
    U = fundamental_matrix(problem, (-1.0, 0.5))
    with pytest.raises(WindowMismatch):
        PiecewiseSolution(problem, [-1.0, 1.0], [U], [[1.0, 0.0]])
    # Consecutive subintervals, but from two builds: no shared states to view.
    left, right = (fundamental_matrix(problem, sub) for sub in ((-1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(WindowMismatch):
        PiecewiseSolution(problem, [-1.0, 0.0, 1.0], [left, right], [[1.0, 0.0]] * 2)
    bs = build_system(problem, (-1.0, 1.0))
    with pytest.raises(WindowMismatch):
        PiecewiseSolution(problem, bs.points[:3], bs.fundamentals[::2], [[1.0, 0.0]] * 2)


def test_fundamentals_and_solutions_view_the_partition_states():
    problem, window, f = _chain(4)
    bs = build_system(problem, window)
    assert all(not a.flags.writeable for a in bs.states)
    for U in bs.fundamentals:
        for mine, shared in zip(U.states, bs.states):
            assert np.shares_memory(mine, shared)
        assert np.shares_memory(U.transfers, bs.transfers)
    kernel = solve_system(bs).kernel_basis[0]
    assert kernel._node_states().generators is kernel._homogeneous.generators
    particular = solve_system(bs, moment_vectors(bs, f)).particular
    for sol in (kernel, particular):
        assert np.shares_memory(sol._homogeneous.generators, bs.states.generators)
        assert np.shares_memory(sol._homogeneous.rights, bs.states.rights)


def test_solution_coefficients_are_read_only():
    sol = solve_ivp_regular(_density_problem(), (-1.0, 1.0), -1.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        sol.coefficients[0][0] = 2.0


def test_fundamental_matrix_values_are_read_only():
    q = MeasureMatrix((-1.0, 1.0), breakpoints=[-1.0, 0.2, 1.0],
                      densities=[np.diag([0.4, -0.2]), np.array([[0.0, 0.3], [0.3, 0.0]])],
                      atoms=[(-0.3, np.diag([0.5, 0.5]))])
    U = fundamental_matrix(Problem(J2, q, MeasureMatrix.zero((-1.0, 1.0), 2)), (-1.0, 1.0))
    before = {side: U.evaluate(-0.3, side).copy() for side in ("left", "right")}
    end = U.end_value.copy()
    for value in (U.evaluate(-1.0), U.evaluate(-0.3, "left"), U.evaluate(-0.3, "right"),
                  U.end_value, U.transfers[0]):
        with pytest.raises(ValueError):
            value[0, 0] = 7.0
    np.testing.assert_array_equal(U.evaluate(-1.0), np.eye(2))
    for side, value in before.items():
        np.testing.assert_array_equal(U.evaluate(-0.3, side), value)
    np.testing.assert_array_equal(U.end_value, end)


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
    grid = np.unique(np.concatenate([U.nodes, w.structure_points(), f.structure_points(),
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


def test_each_routine_makes_a_fixed_number_of_exponential_calls(monkeypatch):
    from measureode.blocksystem import assemble, find_singular_points, make_partition
    counts = {}

    def counted(func):
        def wrapper(*args, **kwargs):
            counts["expm"] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(propagation, "expm", counted(propagation.expm))

    def calls(run):
        counts["expm"] = 0
        result = run()
        return counts["expm"], result

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
        per_size.append(dict(assemble=n_assemble, moments=n_moments, states=n_states,
                             pairing=n_pairing, mixed=n_mixed, integral=n_integral,
                             orthogonal=n_orthogonal, homogeneous=n_homogeneous,
                             kernel_pairing=n_kernel))
    # Each piece end's left limit comes from the same limits call as its start,
    # so a pairing exponentiates only the block convolution besides the flows
    # to grid points off the factor's nodes (the w-breakpoints here).
    assert per_size[0] == per_size[1] == dict(
        assemble=1, moments=2, states=1, pairing=1, mixed=1, integral=2,
        orthogonal=4, homogeneous=0, kernel_pairing=2)
