"""Solving the coupling system, kernel lifts, compactly supported solutions."""

import os
import re

import numpy as np
import pytest

from measureode import (
    DimensionMismatch,
    NotInKernel,
    compact_support_solutions,
    functional_identity_defect,
    lift_kernel_vector,
    moment_vectors,
    nullspace,
    solve_system,
)
from measureode.solutions import DEFAULT_TOL_SOLVE, reconstruct
from measureode.fuzz import random_f, random_instance

from conftest import INTERVAL, block_system, minimum_norm_solve

TOL = 1e-9


def test_minimum_norm_solve_full_rank_matches_lstsq():
    rng = np.random.default_rng(40)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    got = minimum_norm_solve(m, b)
    want, *_ = np.linalg.lstsq(m, b, rcond=None)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_minimum_norm_solve_picks_the_smallest_solution():
    # one equation, two unknowns: x + y = 2, minimum norm is (1, 1)
    m = np.array([[1.0, 1.0]], dtype=complex)
    got = minimum_norm_solve(m, np.array([2.0]))
    np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-14)


def test_minimum_norm_solve_shape_check():
    with pytest.raises(DimensionMismatch):
        minimum_norm_solve(np.eye(2), np.ones(3))


def test_solve_system_homogeneous_by_default(mirror_system):
    result = solve_system(mirror_system)
    assert result.consistent
    assert result.residual == 0.0
    np.testing.assert_array_equal(result.coefficients, 0.0)
    assert result.kernel_dimension == 3
    assert len(result.kernel_basis) == 3
    for sol in result.kernel_basis:
        assert np.linalg.norm(mirror_system.B @ sol.coefficients.reshape(-1)) <= TOL


def test_solve_system_detects_inconsistency(mirror_system, ones_rhs):
    mv = moment_vectors(mirror_system, ones_rhs)
    result = solve_system(mirror_system, mv)
    # the rhs has a component along the adjoint kernel: no exact solution
    assert not result.consistent
    assert result.particular is None
    assert result.residual == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert result.bound == DEFAULT_TOL_SOLVE * (1.0 + float(np.linalg.norm(mv.rhs)))
    assert result.residual > result.bound


def test_solve_system_consistent_case(repeated_system, ones_rhs):
    mv = moment_vectors(repeated_system, ones_rhs)
    result = solve_system(repeated_system, mv)
    assert result.consistent
    coeffs = result.particular.coefficients.reshape(-1)
    assert np.linalg.norm(repeated_system.B @ coeffs - mv.rhs) <= TOL


def test_reconstruct_rejects_bad_length(mirror_system):
    with pytest.raises(DimensionMismatch):
        reconstruct(mirror_system, np.zeros(5))


def test_lift_of_the_adjoint_kernel_vector(mirror_system):
    lifted = lift_kernel_vector(mirror_system, np.array([0.0, 1.0, 0.0, 1.0]))
    np.testing.assert_allclose(lifted, [0, 0, 0, 2.0, 0, 0], atol=1e-12)
    # the lift solves the coupling equation and has the asked balanced values
    assert np.linalg.norm(mirror_system.B @ lifted) <= TOL
    np.testing.assert_allclose(mirror_system.C @ lifted, [0, 1.0, 0, 1.0], atol=1e-12)


def test_lift_rejects_vectors_off_the_kernel(mirror_system):
    # the adjoint kernel here is {u2 == u4}; this vector breaks the tie
    with pytest.raises(NotInKernel):
        lift_kernel_vector(mirror_system, np.array([0.0, 1.0, 0.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lift_rejects_a_non_finite_vector(mirror_system, bad):
    # The distance and overlap checks compare with ">", which is False for
    # NaN: without the input check the lift comes back as NaN coefficients.
    with pytest.raises(ValueError, match="non-finite"):
        lift_kernel_vector(mirror_system, np.array([0.0, 1.0, 0.0, bad]))


def test_lift_is_linear_on_random_instances():
    rng = np.random.default_rng(41)
    found = 0
    while found < 5:
        inst = random_instance(rng, with_f=False)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        basis = nullspace(bs.B_m.conj().T)
        if basis.shape[1] < 2:
            continue
        found += 1
        a = lift_kernel_vector(bs, basis[:, 0])
        b = lift_kernel_vector(bs, basis[:, 1])
        both = lift_kernel_vector(bs, basis[:, 0] + 2.0 * basis[:, 1])
        np.testing.assert_allclose(both, a + 2.0 * b, atol=1e-9)


def test_compact_support_solution_of_the_mirror_instance(mirror_system):
    (sol,) = compact_support_solutions(mirror_system)
    np.testing.assert_allclose(sol.evaluate(0.0), [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(sol.evaluate(-0.5), [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(sol.evaluate(0.5), [0.0, 1.0], atol=1e-12)
    # exact zeros outside the support, not merely small values
    for x in (-1.0, -0.9, -0.6, 0.6, 0.9):
        assert np.linalg.norm(sol.evaluate(x)) == 0.0
    # jump conditions hold at both atoms
    p = mirror_system.problem
    for x in (-0.5, 0.5):
        defect = p.b_plus(x) @ sol.evaluate(x, "right") \
            - p.b_minus(x) @ sol.evaluate(x, "left")
        assert np.linalg.norm(defect) <= 1e-10


def test_no_compact_support_solutions_for_the_repeated_instance(repeated_system):
    assert compact_support_solutions(repeated_system) == []


def test_functional_identity_on_random_instances():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 10:
        inst = random_instance(rng)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        basis = nullspace(bs.B_m.conj().T)
        if basis.shape[1] == 0:
            continue
        checked += 1
        f = inst.f.refined_against(inst.problem.w)
        mv = moment_vectors(bs, f)
        coeffs = rng.standard_normal(basis.shape[1]) \
            + 1j * rng.standard_normal(basis.shape[1])
        uhat = basis @ coeffs
        defect = functional_identity_defect(bs, mv, uhat)
        assert defect <= 1e-9 * (1.0 + np.linalg.norm(uhat)) * 10.0


def test_functional_identity_exact_value_for_the_mirror_instance(
        mirror_system, ones_rhs):
    mv = moment_vectors(mirror_system, ones_rhs)
    uhat = np.array([0.0, 1.0, 0.0, 1.0], dtype=complex)
    # both routes give exactly 2 here, so the defect is fp-zero
    assert functional_identity_defect(mirror_system, mv, uhat) <= 1e-13
    assert complex(np.vdot(uhat, mv.functional)) == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_functional_identity_rejects_a_non_finite_vector(mirror_system, ones_rhs, bad):
    # As for the lift: without the input check the defect comes back as NaN.
    mv = moment_vectors(mirror_system, ones_rhs)
    with pytest.raises(ValueError, match="non-finite"):
        functional_identity_defect(mirror_system, mv, np.array([0.0, 1.0, 0.0, bad]))


def test_moments_of_another_build_raise():
    # Two N = 8 builds of one chain, on (0, 9) and (0, 8.5): solving c with
    # a's moments reported "inconsistent" (residual 0.056) instead of raising.
    from measureode.fuzz import random_chain
    from measureode.relations import t0_solve_system
    inst = random_chain(np.random.default_rng(3), 8)
    a, c = block_system(inst.problem, (0.0, 9.0)), block_system(inst.problem, (0.0, 8.5))
    assert a.N == c.N == 8
    mv = moment_vectors(a, inst.f)
    uhat = c.reduced_factors.adjoint_kernel()[:, 0]
    for call in (lambda: solve_system(c, mv), lambda: t0_solve_system(c, mv),
                 lambda: functional_identity_defect(c, mv, uhat)):
        with pytest.raises(ValueError, match="another block system"):
            call()
    solve_system(a, mv)
    t0_solve_system(a, mv)


def test_the_readme_library_example_prints_what_its_comment_says(capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(example.group(1), namespace)
    solutions = compact_support_solutions(namespace["system"])
    assert solutions
    assert len(capsys.readouterr().out.splitlines()) == len(solutions)
    for solution in solutions:
        # Off the nodes: the value is a Taylor-table lookup.
        assert 0.0 not in solution._node_states().nodes
        np.testing.assert_allclose(solution.evaluate(0.0), [0.0, 2.0], rtol=0, atol=1e-12)
