"""Weighted pairings, homogeneous kernels, endpoint-vanishing solves."""

import os

import numpy as np
import pytest

from measureode import (
    MeasureMatrix,
    MissingRHS,
    OrthogonalityCertificate,
    PiecewiseSolution,
    Problem,
    Tolerances,
    build_system,
    inner_product,
    kernel_K0,
    lagrange_check,
    moment_vectors,
    solve_system,
    t0_solve,
    weighted_norm,
)
from measureode import blocksystem, fuzz, solutions
from measureode.blocksystem import TOL_IDENTITY
from measureode.errors import InconsistentLift, ParseError
from measureode.fileio import load_problem
from measureode.functions import L2Function
from measureode.relations import _norm_from_square, t0_solve_system
from measureode.solutions import _consistency_bound
from measureode.verify import TOL_ENDPOINT, orthogonal_rhs

from conftest import (INTERVAL, J2, SWAP2, basis_states, block_system, minimum_norm_solve,
                      two_atom_problem)
from test_acceptance import _fuzz_systems
from test_cli import DATA

TOL_PAIRING = 1e-8
TOLS = Tolerances()


def test_inner_product_against_hand_integral():
    w = MeasureMatrix.lebesgue((0.0, 1.0), np.diag([2.0, 0.0]).astype(complex))
    u = L2Function.constant((0.0, 1.0), [1.0 + 1.0j, 5.0], w=w)
    v = L2Function.constant((0.0, 1.0), [3.0, 7.0], w=w)
    got = inner_product(w, u, v)
    assert got == pytest.approx((1.0 - 1.0j) * 2.0 * 3.0, abs=1e-10)


def test_weighted_norm_is_real_and_monotone_in_the_weight():
    w1 = MeasureMatrix.lebesgue((0.0, 1.0), np.eye(2, dtype=complex))
    w2 = MeasureMatrix.lebesgue((0.0, 1.0), 2.0 * np.eye(2, dtype=complex))
    f = L2Function.constant((0.0, 1.0), [1.0, 1.0])
    assert weighted_norm(w1, f) == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert weighted_norm(w2, f) == pytest.approx(2.0, abs=1e-10)


def test_a_squared_norm_far_below_zero_raises_and_a_rounding_one_clamps():
    # bad_negative_w.json's w is not PSD: (1, 0) has squared norm -1.
    parsed = load_problem(os.path.join(DATA, "bad_negative_w.json"))
    w = parsed.problem.w
    f = L2Function.constant(parsed.window, [1, 0], w)
    with pytest.raises(ValueError, match="squared norm came out -1.0, far below zero"):
        weighted_norm(w, f, parsed.window)
    assert _norm_from_square(-1e-13) == 0.0


def test_kernel_K0_of_the_mirror_problem(mirror_problem):
    elements = kernel_K0(mirror_problem, INTERVAL)
    assert len(elements) == 3
    for el in elements:
        assert el.degenerate == (el.w_norm ** 2 <= 1e-10)
        # each element really is a homogeneous balanced solution
        bs = block_system(mirror_problem)
        assert np.linalg.norm(bs.B @ el.solution.coefficients.reshape(-1)) <= 1e-9
    assert max(el.w_norm for el in elements) > 0.1


def test_kernel_K0_with_zero_weight_is_all_degenerate():
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [(-0.5, SWAP2), (0.5, -SWAP2)])
    problem = Problem(J2, q, MeasureMatrix.zero(INTERVAL, 2))
    elements = kernel_K0(problem, INTERVAL)
    assert len(elements) == 3
    assert all(el.degenerate for el in elements)
    assert all(el.w_norm == 0.0 for el in elements)


def test_basis_w_norms_are_the_diagonal_of_a_general_gram_pairing():
    # The diagonal read of the build's pairing table against the Gram
    # pairing of the basis's node states on the general path: plain copies
    # of the states, which no table serves.
    from measureode import propagation
    from measureode.relations import _basis_squares
    from test_block_factors import _mirrored_family
    from test_propagation import _plain
    systems = _fuzz_systems() + _mirrored_family()
    worst = 0.0
    for inst, bs in systems:
        kernel = bs.factors.kernel()
        plain = _plain(basis_states(bs, kernel))
        gram = propagation._pairings(inst.problem.w, plain, plain, bs.partition.window)[0]
        want = np.maximum(np.real(np.diagonal(gram)), 0.0)
        got = _basis_squares(bs, kernel)
        worst = max(worst, float(np.max(np.abs(got - want)
                                        / np.maximum(want, np.finfo(float).tiny))))
    assert len(systems) == 240
    assert worst <= 1e-13


def test_kernel_K0_forms_no_gram_matrix():
    # Mirrored N = 400 chain, d = 202: a Gram pairing of the basis takes
    # hundreds of MB; the table and its diagonal read take a few.
    import tracemalloc
    inst = fuzz.random_chain(np.random.default_rng(3), 400, 2, True)
    tracemalloc.start()
    try:
        elements = kernel_K0(inst.problem, inst.window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(elements) == 202
    assert peak < 32e6


def test_kernel_norms_and_the_t0_suite_take_a_grid_only_to_build_a_table(monkeypatch):
    # Each pairing grid is recorded with its caller and the caller's caller.
    # moment_vectors takes one grid, for f's table; kernel_K0 one, for the
    # table of its build with itself; and suite_t0 one for that table, one
    # for orthogonal_rhs's pairing of the fundamental matrices with the
    # indicators, and one for f_perp's table, built by its moment vectors:
    # f's and f_perp's w-norms and pairings with the basis, read from the
    # tables in their moments, take none.
    import sys
    from measureode import propagation
    from measureode.verify import suite_t0
    grid, callers = propagation._pairing_grid, []

    def recorded(*args):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return grid(*args)

    monkeypatch.setattr(propagation, "_pairing_grid", recorded)
    rng = np.random.default_rng(63)
    inst = fuzz.random_chain(rng, 8, 2, True)
    bs = build_system(inst.problem, inst.window)
    moments = moment_vectors(bs, fuzz.random_f(rng, inst.problem, inst.window))
    assert callers == [("_pairing_table", "moment_vectors")]
    callers.clear()
    kernel_K0(inst.problem, inst.window)
    assert callers == [("_pairing_table", "table")]
    callers.clear()
    rows = suite_t0(bs, moments.f, (), rng, "x", TOLS.sing, TOLS.rank, TOLS.solve,
                    moments=moments)
    assert any(row.name.startswith("t0 orthogonal rhs range orthogonal") for row in rows)
    assert sorted(callers) == [("_pairing_table", "moment_vectors"), ("_pairing_table", "table"),
                               ("_pairings", "orthogonal_rhs")]


def test_t0_solve_requires_a_right_hand_side(mirror_problem):
    with pytest.raises(MissingRHS):
        t0_solve(mirror_problem, INTERVAL, None)


def test_t0_solve_certifies_the_mirror_obstruction(mirror_problem, ones_rhs):
    result = t0_solve(mirror_problem, INTERVAL, ones_rhs)
    assert isinstance(result, OrthogonalityCertificate)
    assert result.pairing == pytest.approx(2.0, abs=1e-10)
    assert result.moment_pairing == pytest.approx(2.0, abs=1e-10)
    assert result.projection_norm == pytest.approx(np.sqrt(2.0), abs=1e-10)
    # the witness is itself a homogeneous solution, compactly supported
    witness = result.solution
    for x in (-0.9, 0.9):
        assert np.linalg.norm(witness.evaluate(x)) <= 1e-12
    assert inner_product(mirror_problem.w, witness, ones_rhs,
                         INTERVAL) == pytest.approx(result.pairing, abs=1e-10)


def test_t0_certificate_is_lifted_without_a_membership_check(
        monkeypatch, mirror_problem, ones_rhs):
    # The certificate vector is a projection onto ker B_m^* by construction.
    checks = []
    original = solutions._project_onto_adjoint_kernel
    monkeypatch.setattr(solutions, "_project_onto_adjoint_kernel",
                        lambda *args: checks.append(args) or original(*args))
    assert isinstance(t0_solve(mirror_problem, INTERVAL, ones_rhs),
                      OrthogonalityCertificate)
    assert checks == []


def test_t0_solve_solves_orthogonal_right_hand_sides(repeated_problem):
    rng = np.random.default_rng(43)
    bs = block_system(repeated_problem)
    f = orthogonal_rhs(rng, bs, 1e-10)
    solution = t0_solve(repeated_problem, INTERVAL, f)
    assert not isinstance(solution, OrthogonalityCertificate)
    lo, hi = INTERVAL
    assert np.linalg.norm(solution.evaluate(lo, "right")) \
        + np.linalg.norm(solution.evaluate(hi, "left")) <= 1e-9
    # solvable right-hand sides pair to zero with every homogeneous solution
    for el in kernel_K0(repeated_problem, INTERVAL):
        pairing = abs(inner_product(repeated_problem.w, f, el.solution, INTERVAL))
        norm = weighted_norm(repeated_problem.w, f, INTERVAL) * el.w_norm
        assert pairing <= TOL_PAIRING * (1.0 + norm)


def _t0_against_the_dense_solve(bs, f):
    """t0 on bs for f, checked against the dense min-norm solve of B_m.

    The dense residual ||B_m B_m^+ t - t|| decides solvability against the
    same bound t0 uses; a certificate's projection norm is that residual.
    Returns the t0 result, or None when the certificate's lift failed.
    """
    moments = moment_vectors(bs, f.refined_against(bs.problem.w))
    target = moments.functional
    residual = float(np.linalg.norm(bs.B_m @ minimum_norm_solve(bs.B_m, target) - target))
    solvable = residual <= _consistency_bound(target, TOLS.solve)
    try:
        result = t0_solve_system(bs, moments)
    except InconsistentLift:
        # Only a certificate is lifted; the lift fails only where the
        # propagators are flagged ill-conditioned.
        assert not solvable and bs.propagator_defect > TOL_IDENTITY
        return None
    assert isinstance(result, OrthogonalityCertificate) != solvable
    if not solvable:
        assert result.projection_norm == pytest.approx(residual, rel=1e-12, abs=0.0)
    return result


def test_t0_decides_as_the_dense_solve_on_the_fuzz_systems():
    outcomes = set()
    for k, (inst, bs) in enumerate(_fuzz_systems()):
        rng = np.random.default_rng(k)
        for f in (fuzz.random_f(rng, inst.problem, inst.window),
                  orthogonal_rhs(rng, bs, TOLS.rank)):
            outcomes.add(type(_t0_against_the_dense_solve(bs, f)))
    assert outcomes == {OrthogonalityCertificate, PiecewiseSolution}


def test_t0_decides_as_the_dense_solve_on_every_data_file_with_a_rhs():
    checked = []
    for name in sorted(os.listdir(DATA)):
        try:
            parsed = load_problem(os.path.join(DATA, name))
        except ParseError:
            continue
        if parsed.f is not None:
            bs = build_system(parsed.problem, parsed.window, parsed.forced_points)
            _t0_against_the_dense_solve(bs, parsed.f)
            checked.append(name)
    assert len(checked) >= 4


@pytest.mark.parametrize("N", [20, 80, 160])
@pytest.mark.parametrize("mirrored", [True, False])
def test_t0_decides_as_the_dense_solve_on_chains(N, mirrored):
    inst = fuzz.random_chain(np.random.default_rng(3), N, 2, mirrored)
    bs = block_system(inst.problem, inst.window, inst.extra_points)
    assert isinstance(_t0_against_the_dense_solve(bs, inst.f), OrthogonalityCertificate)
    f_perp = orthogonal_rhs(np.random.default_rng(4), bs, TOLS.rank)
    assert isinstance(_t0_against_the_dense_solve(bs, f_perp), PiecewiseSolution)


@pytest.mark.parametrize("mirrored", [True, False])
def test_t0_solves_B_m_only_for_a_returned_solution(count_calls, mirrored):
    inst = fuzz.random_chain(np.random.default_rng(3), 80, 2, mirrored)
    bs = block_system(inst.problem, inst.window, inst.extra_points)
    f_perp = orthogonal_rhs(np.random.default_rng(4), bs, TOLS.rank)
    # B_m is solved through the sweep over its adjoint W = B_m^*; B is never solved.
    solves = count_calls(blocksystem.Factorisation, "adjoint_solve")
    b_solves = count_calls(blocksystem.Factorisation, "solve")
    certificate = t0_solve(inst.problem, inst.window, inst.f)
    assert isinstance(certificate, OrthogonalityCertificate)
    assert solves.calls == 0
    solution = t0_solve(inst.problem, inst.window, f_perp)
    assert not isinstance(solution, OrthogonalityCertificate)
    assert solves.calls == 1
    assert b_solves.calls == 0
    lo, hi = inst.window
    endpoint = np.linalg.norm(solution.evaluate(lo, "right")) \
        + np.linalg.norm(solution.evaluate(hi, "left"))
    assert endpoint <= TOL_ENDPOINT


def _unpinned_rhs(rng, problem, window):
    """f from pieces, built without w: no w-atom value is pinned, and half the
    time a piece ends at a w-atom, where the balanced value is an average."""
    lo, hi = window
    cuts = set(rng.choice(np.linspace(lo, hi, 17)[1:-1], size=int(rng.integers(0, 3)),
                          replace=False).tolist())
    positions, _ = problem.w.atoms_between(lo, hi)
    if positions.size and rng.uniform() < 0.5:
        cuts.add(float(rng.choice(positions)))
    edges = [lo, *sorted(cuts), hi]
    return L2Function.from_pieces(window, [
        (edges[i], edges[i + 1], fuzz.random_vector(rng, problem.n))
        for i in range(len(edges) - 1)])


def test_refining_the_rhs_against_the_weight_changes_no_number():
    # Moments, solutions and t0 cut at w's structure and read a w-atom's
    # value in the balanced sense, so refining f first must not move a bit.
    rng = np.random.default_rng(11)
    refined = 0
    for inst, bs in _fuzz_systems():
        f = _unpinned_rhs(rng, inst.problem, inst.window)
        g = f.refined_against(inst.problem.w)
        refined += g is not f
        mf, mg = moment_vectors(bs, f), moment_vectors(bs, g)
        for name in ("jump_moments", "integrals", "last_integral", "rhs", "functional"):
            assert np.array_equal(getattr(mf, name), getattr(mg, name)), name
        coefficients = solve_system(bs, mf).coefficients
        grid = np.linspace(*inst.window, 41)
        assert np.array_equal(
            solutions.reconstruct(bs, coefficients, f).evaluate_many(grid),
            solutions.reconstruct(bs, coefficients, g).evaluate_many(grid))
        try:
            tf = t0_solve_system(bs, mf)
        except InconsistentLift:
            with pytest.raises(InconsistentLift):
                t0_solve_system(bs, mg)
            continue
        tg = t0_solve_system(bs, mg)
        assert type(tf) is type(tg)
        if isinstance(tf, OrthogonalityCertificate):
            assert np.array_equal(tf.kernel_vector, tg.kernel_vector)
            assert (tf.pairing, tf.moment_pairing, tf.projection_norm) \
                == (tg.pairing, tg.moment_pairing, tg.projection_norm)
        else:
            assert np.array_equal(tf.evaluate_many(grid), tg.evaluate_many(grid))
    assert refined > len(_fuzz_systems()) // 2


def test_lagrange_identity_for_inhomogeneous_pairs(repeated_problem):
    bs = block_system(repeated_problem)
    f = L2Function.from_pieces(INTERVAL, [(-1.0, 0.0, [1.0, 2.0]), (0.0, 1.0, [-1.0, 0.5])],
                               w=repeated_problem.w)
    g = L2Function.constant(INTERVAL, [0.5, -0.25], w=repeated_problem.w)
    u = solve_system(bs, moment_vectors(bs, f)).particular
    v = solve_system(bs, moment_vectors(bs, g)).particular
    report = lagrange_check(repeated_problem, INTERVAL, (u, f), (v, g))
    assert report.defect <= TOL_PAIRING
    assert report.rhs == pytest.approx(report.boundary_end - report.boundary_start)


def test_lagrange_identity_with_compactly_supported_factor(
        mirror_problem, repeated_problem, ones_rhs):
    from measureode import compact_support_solutions
    bs = block_system(mirror_problem)
    (u,) = compact_support_solutions(bs)
    g = L2Function.constant(INTERVAL, [2.0, 1.0], w=mirror_problem.w)
    mv = moment_vectors(bs, g)
    result = solve_system(bs, mv)
    if result.consistent:
        v, gv = result.particular, g
    else:
        v, gv = result.kernel_basis[0], None
    report = lagrange_check(mirror_problem, INTERVAL, (u, None), (v, gv))
    assert report.defect <= TOL_PAIRING
    # both boundary terms vanish because u vanishes near the window ends
    assert abs(report.boundary_start) <= 1e-12
    assert abs(report.boundary_end) <= 1e-12


def test_lagrange_identity_with_weight_atoms_on_and_off_the_partition():
    """Weight atoms inside a subinterval and at a singular point together.

    The solution must jump at an interior weight atom via the balanced jump
    rule, and at a partition point the jump is carried by the coupling
    equation alone; mixing up the two conventions breaks the identity.
    """
    w = MeasureMatrix(INTERVAL, breakpoints=[-1.0, 1.0],
                      densities=[0.25 * np.eye(2, dtype=complex)],
                      atoms=[(0.2, np.diag([1.0, 2.0]).astype(complex)),
                             (0.5, np.eye(2, dtype=complex))])
    problem = two_atom_problem(SWAP2, SWAP2, w_atoms=())
    problem = Problem(J2, problem.q, w)
    bs = block_system(problem)
    f = L2Function.from_pieces(INTERVAL, [(-1.0, 0.3, [1.0, -2.0]), (0.3, 1.0, [0.5, 1.5])],
                               w=w)
    g = L2Function.constant(INTERVAL, [-1.0, 1.0], w=w)
    u = solve_system(bs, moment_vectors(bs, f)).particular
    v = solve_system(bs, moment_vectors(bs, g)).particular
    assert u is not None and v is not None

    # jump relation at every atom, q-borne or w-borne
    for sol, rhs in ((u, f), (v, g)):
        for x in (-0.5, 0.2, 0.5):
            defect = problem.b_plus(x) @ sol.evaluate(x, "right") \
                - problem.b_minus(x) @ sol.evaluate(x, "left") \
                - w.jump(x) @ rhs.value(x, "balanced")
            assert np.linalg.norm(defect) <= 1e-10

    report = lagrange_check(problem, INTERVAL, (u, f), (v, g))
    assert report.defect <= TOL_PAIRING
