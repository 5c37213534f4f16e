"""Randomized self-check suites."""

import json
import os

import numpy as np
import pytest

from measureode import load_problem, parse_problem, run_random_suites, run_suites
from measureode.propagation import w_pairing
from measureode.solutions import solve_system
from measureode.verify import SUITE_NAMES, TOL_PAIRING, orthogonal_rhs, suite_cbbc
from measureode import inner_product, kernel_K0, weighted_norm
from measureode.fuzz import random_chain, random_instance

from conftest import INTERVAL, block_system
from test_acceptance import _fuzz_systems
from test_cli import _stretched_hyperbolic


def test_every_suite_row_passes_on_a_seeded_batch():
    rows = run_random_suites(20260819, 6)
    assert rows, "suites produced no checks"
    failures = [r for r in rows if not r.passed]
    assert failures == []
    names = {r.name.split()[0] for r in rows}
    assert names <= set(SUITE_NAMES)
    assert {"cbbc", "wronskian", "lift", "lagrange", "t0"} <= names


def test_samples_and_instance_counts_follow_the_command_line_rules():
    # --samples must be at least 2 and --random not negative: with samples=0
    # the wronskian row passed at 0.0 having checked no point, and a negative
    # count returned no rows.
    from measureode.verify import suite_wronskian
    inst = random_chain(np.random.default_rng(3), 4)
    bs = block_system(inst.problem, inst.window)
    for samples in (0, 1):
        with pytest.raises(ValueError, match="samples"):
            suite_wronskian(bs, samples, "x")
    assert all(row.passed for row in suite_wronskian(bs, 2, "x"))
    with pytest.raises(ValueError, match="count"):
        run_random_suites(7, -3)
    assert run_random_suites(7, 0) == []


def test_rows_compare_measured_defects_with_their_tolerances():
    rows = run_random_suites(7, 3)
    for row in rows:
        if "nonzero" in row.name:
            # the certificate pairing must exceed its floor, not stay below
            assert row.passed == (row.measured > row.tolerance)
        else:
            assert row.passed == (row.measured <= row.tolerance)
        assert np.isfinite(row.measured)


def test_unknown_check_name_is_rejected(mirror_problem):
    with pytest.raises(ValueError):
        run_suites(mirror_problem, INTERVAL, checks=("cbbc", "nonsense"))


def test_single_suite_selection(mirror_problem):
    rows = run_suites(mirror_problem, INTERVAL, checks=("wronskian",))
    assert rows
    assert all(r.name.startswith("wronskian") for r in rows)


def test_orthogonal_rhs_is_orthogonal_to_the_kernel():
    rng = np.random.default_rng(11)
    for _ in range(5):
        inst = random_instance(rng, with_f=False)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        f = orthogonal_rhs(rng, bs, 1e-10)
        if f is None:
            continue
        fn = weighted_norm(inst.problem.w, f, inst.window)
        for el in kernel_K0(inst.problem, inst.window, inst.extra_points):
            pairing = abs(inner_product(inst.problem.w, el.solution, f, inst.window))
            assert pairing <= 1e-8 * (1.0 + fn * el.w_norm)


def test_orthogonal_rhs_is_orthogonal_to_every_homogeneous_solution():
    # The Gram matrix comes from the fundamental matrices and bs.factors; the
    # check pairs f with the reconstructed kernel basis through w_pairing.
    rng = np.random.default_rng(12)
    worst = 0.0
    for inst, bs in _fuzz_systems():
        f = orthogonal_rhs(rng, bs, 1e-10)
        fn = weighted_norm(inst.problem.w, f, inst.window)
        for u in solve_system(bs).kernel_basis:
            pairing = abs(w_pairing(inst.problem.w, u, f, inst.window))
            un = weighted_norm(inst.problem.w, u, inst.window)
            worst = max(worst, pairing / (TOL_PAIRING * (1.0 + fn * un)))
    assert worst <= 1.0


def test_cbbc_bookkeeping_row_fails_when_the_ranks_disagree(monkeypatch, mirror_system):
    import measureode.verify as verify

    def row(rows):
        return next(r for r in rows if "rank bookkeeping" in r.name)

    assert row(verify.suite_cbbc(mirror_system, "mirror", 1e-10)).passed
    dense_rank = verify._dense_rank
    monkeypatch.setattr(verify, "_dense_rank", lambda m, tol: dense_rank(m, tol) + 1)
    broken = row(verify.suite_cbbc(mirror_system, "mirror", 1e-10))
    assert not broken.passed
    assert broken.measured == 1.0


def test_suite_cbbc_asks_for_no_singular_vectors_of_the_adjoint(count_calls,
                                                                mirror_system):
    import measureode.verify as verify
    bs = mirror_system
    bs.factors.kernel(1e-10)  # the sweep, cached; the ledger's other rank
    svd = count_calls(np.linalg, "svd")
    rows = verify.suite_cbbc(bs, "mirror", 1e-10)
    assert all(row.passed for row in rows)
    assert svd.kwargs == [{"compute_uv": False}]


def test_the_cbbc_ledger_passes_on_a_mirrored_chain():
    # B* is 162 x 160, block-bidiagonal, with a 40-dimensional kernel: the
    # ledger's dense rank on a rank-deficient banded matrix.
    inst = random_chain(np.random.default_rng(3), 80, 2, True)
    bs = block_system(inst.problem, inst.window, inst.extra_points)
    assert bs.factors.adjoint_kernel(1e-10).shape[1] == 40
    rows = suite_cbbc(bs, "chain", 1e-10)
    assert [row.passed for row in rows] == [True, True, True]
    assert rows[2].name == "cbbc rank bookkeeping [chain]" and rows[2].measured == 0.0


def test_non_finite_tolerances_become_failing_rows(tmp_path):
    # On (0, 800) the propagators overflow, and some rows' tolerances scale
    # with a NaN.
    parsed = load_problem(_stretched_hyperbolic(tmp_path, 800.0))
    with np.errstate(all="ignore"):
        rows = run_suites(parsed.problem, parsed.window, parsed.f, parsed.forced_points,
                          rng=np.random.default_rng(0), tols=parsed.tolerances)
    assert all(np.isfinite(row.measured) and np.isfinite(row.tolerance) for row in rows)
    failing = [row.name for row in rows if not row.passed]
    assert "non-finite: t0 certificate two-route [input]" in failing


def test_suite_t0_builds_the_homogeneous_basis_once_per_rhs(monkeypatch):
    import measureode.propagation as propagation
    import measureode.verify as verify
    solves, bases, grams, squares = [], [], [], []
    solve, states, pair = verify.solve_system, propagation._homogeneous_states, verify._pairings
    basis_squares = verify._basis_squares
    monkeypatch.setattr(verify, "solve_system",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    monkeypatch.setattr(propagation, "_homogeneous_states",
                        lambda *a: bases.append(1) or states(*a))
    # The suite pairs f with the basis from f's table; the basis's w-norms
    # are the diagonal of its Gram pairing, read from the build's table
    # without a pairing.
    monkeypatch.setattr(verify, "_pairings",
                        lambda w, u, v, edges: grams.append(u is v) or pair(w, u, v, edges))
    monkeypatch.setattr(verify, "_basis_squares",
                        lambda *a: squares.append(1) or basis_squares(*a))
    rng = np.random.default_rng(5)
    inst = random_instance(rng)
    rows = run_suites(inst.problem, inst.window, inst.f, inst.extra_points,
                      checks=("t0",), rng=rng)
    assert sum("range orthogonal" in r.name for r in rows) == 2
    # one set of coefficient rows shared by both result checks, no node
    # states of the basis, no reconstructed solutions, no Gram pairing, and
    # one read of the norms for both results
    assert solves == []
    assert bases == []
    assert sum(grams) == 0 and len(squares) == 1


def test_run_suites_computes_each_rhs_s_moment_vectors_once(monkeypatch):
    import measureode.relations as relations
    import measureode.verify as verify
    calls = []
    for module in (verify, relations):
        moments = module.moment_vectors
        monkeypatch.setattr(module, "moment_vectors",
                            lambda *a, _m=moments, **k: calls.append(1) or _m(*a, **k))
    rng = np.random.default_rng(5)
    inst = random_instance(rng)
    rows = run_suites(inst.problem, inst.window, inst.f, inst.extra_points, rng=rng)
    assert rows and all(r.passed for r in rows)
    # f (shared by functional, lagrange and t0), lagrange's g and t0's
    # orthogonal rhs
    assert len(calls) == 3


def test_suite_t0_computes_moment_vectors_once_per_rhs(monkeypatch):
    import measureode.relations as relations
    import measureode.verify as verify
    calls = []
    for module in (verify, relations):
        moments = module.moment_vectors
        monkeypatch.setattr(module, "moment_vectors",
                            lambda *a, _m=moments, **k: calls.append(1) or _m(*a, **k))
    rng = np.random.default_rng(5)
    inst = random_instance(rng)
    rows = run_suites(inst.problem, inst.window, inst.f, inst.extra_points,
                      checks=("t0",), rng=rng)
    assert sum("solvable means orthogonal" in r.name for r in rows) == 2
    # f and the orthogonal rhs: one set of moment vectors each
    assert len(calls) == 2


def test_suite_lift_lifts_its_basis_in_one_call_unprojected(monkeypatch, mirror_system):
    import measureode.solutions as solutions
    import measureode.verify as verify
    lifted, projected = [], []
    lift, project = solutions._lift_projected, solutions._project_onto_adjoint_kernel
    monkeypatch.setattr(verify, "_lift_projected",
                        lambda bs, uhat, tol: lifted.append(uhat.shape[1]) or lift(bs, uhat, tol))
    monkeypatch.setattr(solutions, "_project_onto_adjoint_kernel",
                        lambda *a: projected.append(1) or project(*a))
    columns = mirror_system.reduced_factors.adjoint_kernel(1e-10).shape[1]
    rows = verify.suite_lift(mirror_system, "mirror", 1e-9, 1e-10)
    assert columns >= 1 and len(rows) == 3 and all(r.passed for r in rows)
    # the basis and its sum column in one batch, none of them projected
    assert lifted == [columns + 1]
    assert projected == []


def test_suites_pass_on_a_padded_hyperbolic_window_of_length_400():
    # instance_hyperbolic_padded widened to (0, 400): N = 199 regular points,
    # where recursion along the tall B_m overflows to inf.
    path = os.path.join(os.path.dirname(__file__), "data", "instance_hyperbolic_padded.json")
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["interval"] = [0.0, 400.0]
    for pieces in (raw["q"]["density"], raw["w"]["density"], raw["f"]["pieces"]):
        pieces[0]["to"] = 400.0
    raw["forced_partition_points"] = np.arange(2.0, 400.0, 2.0).tolist()
    parsed = parse_problem(raw)
    rows = run_suites(parsed.problem, parsed.window, parsed.f, parsed.forced_points,
                      rng=np.random.default_rng(0))
    assert len(parsed.forced_points) == 199
    assert rows and [row.name for row in rows if not row.passed] == []


def test_the_call_shapes_the_benchmark_harness_uses():
    # The verify-fuzz workload calls the jump test, the assembly and the six
    # suites with positional float tolerances (its traced run), and run_suites
    # with positional arguments (its untraced run). Both must keep working,
    # and on the same random stream they make the same rows.
    from measureode import assemble, classify_jumps, make_partition
    from measureode import fuzz, verify
    from measureode.blocksystem import DEFAULT_TOL_RANK, DEFAULT_TOL_SING
    from measureode.solutions import DEFAULT_TOL_SOLVE
    inst = fuzz.random_chain(np.random.default_rng(3), 4, 2, True)
    problem, window, extra = inst.problem, inst.window, inst.extra_points
    tol_sing, tol_rank, tol_solve = DEFAULT_TOL_SING, DEFAULT_TOL_RANK, DEFAULT_TOL_SOLVE
    tag = "input"
    rng = np.random.default_rng([0, 1])
    reports = classify_jumps(problem, window, tol_sing)
    singular = [r.position for r in reports if r.status == "singular"]
    bs = assemble(problem, make_partition(window, singular, extra), tol_sing)
    assert bs.factors.adjoint_kernel().shape[1] == 2  # the compact-support rows run
    f = inst.f.refined_against(problem.w)
    rows = verify.suite_cbbc(bs, tag, tol_rank)
    rows += verify.suite_wronskian(bs, 64, tag)
    rows += verify.suite_lift(bs, tag, tol_solve, tol_rank)
    rows += verify.suite_functional(bs, f, rng, tag, tol_solve, tol_rank)
    g = fuzz.random_f(rng, problem, window).refined_against(problem.w)
    rows += verify.suite_lagrange(bs, f, g, rng, tag, tol_solve, tol_rank)
    rows += verify.suite_t0(bs, f, extra, rng, tag, tol_sing, tol_rank, tol_solve)
    untraced = run_suites(problem, window, inst.f, extra, verify.SUITE_NAMES,
                          np.random.default_rng([0, 1]), 64)
    assert len(rows) >= len(SUITE_NAMES) and all(row.passed for row in rows)
    assert untraced == rows


def test_the_call_shapes_the_partition_and_sampling_benchmarks_use():
    # The large-partition and dense-sampling workloads, and the exit code
    # that the cli-small workload expects of ``solve``, call the library in
    # these shapes, on mirrored chains (dim ker B* = N / 2) and on random ones
    # (trivial ker B*, so a particular solution exists to sample).
    from measureode import (OrthogonalityCertificate, PiecewiseSolution, assemble,
                            classify_jumps, compact_support_solutions, find_singular_points,
                            fundamental_matrix, lift_kernel_vector, make_partition,
                            moment_vectors, nullspace, t0_solve)
    from measureode import fuzz
    from measureode.blocksystem import DEFAULT_TOL_SING
    for mirrored in (True, False):
        inst = fuzz.random_chain(np.random.default_rng(3), 4, 2, mirrored)
        problem, window, f = inst.problem, inst.window, inst.f
        adjoint_dim = 2 if mirrored else 0
        reports = classify_jumps(problem, window)
        partition = make_partition(window, [r.position for r in reports
                                            if r.status == "singular"])
        bs = assemble(problem, partition)
        solved = solve_system(bs, moment_vectors(bs, f))
        adjoint = nullspace(bs.B.conj().T)
        assert adjoint.shape[1] == adjoint_dim
        assert solved.kernel_dimension == 2 + adjoint_dim
        assert len(compact_support_solutions(bs)) == adjoint_dim
        if adjoint_dim:
            lifted = lift_kernel_vector(bs, adjoint[:, 0])
            assert np.linalg.norm(bs.B @ lifted) <= 1e-7
        assert isinstance(t0_solve(problem, window, f),
                          (PiecewiseSolution, OrthogonalityCertificate))
        norms = [weighted_norm(problem.w, u, window) for u in solved.kernel_basis]
        assert np.isfinite(norms).all() and min(norms) >= 0.0

        elements = kernel_K0(problem, window)
        assert len(elements) == solved.kernel_dimension
        sampled = [(e.solution, e.w_norm) for e in elements]
        assert solved.consistent == (not mirrored)
        if solved.consistent:
            particular = solved.particular
            sampled.append((particular, weighted_norm(problem.w, particular, window)))
        lo, hi = window
        grid = lo + (np.arange(40) + 0.5) * (hi - lo) / 40
        for solution, norm in sampled:
            samples = np.array([solution.evaluate(float(x)) for x in grid])
            assert np.isfinite(samples).all()
            pairing = w_pairing(problem.w, solution, solution, window)
            assert abs(pairing) == pytest.approx(norm ** 2, rel=1e-9, abs=1e-12)
        pts = partition.points
        for j in range(pts.size - 1):
            U = fundamental_matrix(problem, (float(pts[j]), float(pts[j + 1])))
            assert np.isfinite(U.evaluate(0.5 * (U.lo + U.hi))).all()

        singular = find_singular_points(problem, window)
        bs = assemble(problem, make_partition(window, singular, inst.extra_points),
                      DEFAULT_TOL_SING)
        g = f.refined_against(problem.w)
        assert solve_system(bs, moment_vectors(bs, g)).consistent == (not mirrored)


def _borderline_family(eps: float, count: int = 40):
    """random_instance draws with two singular q-atoms, every q-atom moved by
    eps H / |H|_2 (H a fresh random Hermitian matrix per atom), so a singular
    jump becomes a borderline regular one that the transfer steps through."""
    from measureode import MeasureMatrix, Problem
    from measureode.fuzz import hermitize, random_matrix
    rng = np.random.default_rng(7)
    for _ in range(count):
        inst = random_instance(rng, singular_count=2)
        problem, n = inst.problem, inst.problem.n
        q = problem.q
        atoms = []
        for x, matrix in zip(q.atom_positions.tolist(), q.atom_matrices):
            H = hermitize(random_matrix(rng, n))
            atoms.append((x, matrix + eps * H / np.linalg.norm(H, 2)))
        q = MeasureMatrix(q.interval, n=n, breakpoints=q.breakpoints,
                          densities=list(q.densities), atoms=atoms)
        yield inst, Problem(problem.J, q, problem.w)


def test_the_propagator_row_fails_exactly_where_a_suite_row_fails():
    # On the borderline family the "propagator conditioned" row of kernel,
    # solve and compact is the only signal those modes have; it fires on
    # every instance whose suites fail, and on no other.
    from measureode.blocksystem import TOL_IDENTITY, build_system
    fired = []
    for index, (inst, problem) in enumerate(_borderline_family(1e-6)):
        with np.errstate(all="ignore"):
            bs = build_system(problem, inst.window, inst.extra_points)
            rows = run_suites(problem, inst.window, inst.f, inst.extra_points,
                              rng=np.random.default_rng(index))
        failing = not all(row.passed for row in rows)
        assert failing == (not bs.propagator_defect <= TOL_IDENTITY), index
        fired.append(failing)
    assert sum(fired) == 22


def test_pairings_with_a_tabled_rhs_take_no_exponential_and_no_grid(count_calls):
    # Once moment_vectors(bs, f) has built f's pairing table, the functional
    # identity, a t0 certificate and the rows of a t0 result (certificate or
    # solution) pair f from it.  A solution's own states are stepped and the
    # kernel's w-norms are made before counting: neither pairs with f.
    from measureode import propagation
    from measureode.blocksystem import moment_vectors
    from measureode.fuzz import random_f
    from measureode.relations import OrthogonalityCertificate, t0_solve_system
    from measureode.solutions import functional_identity_defect
    from measureode.verify import _t0_result_rows
    from test_block_factors import _mirrored_family
    rng = np.random.default_rng(62)
    expm = count_calls(propagation, "expm")
    grid = count_calls(propagation, "_pairing_grid")
    kinds = []
    for inst, bs in _mirrored_family()[:12]:
        kernel = bs.factors.kernel().reshape(bs.N + 1, bs.n, -1)
        norms = np.ones(kernel.shape[-1])
        adjoint = bs.reduced_factors.adjoint_kernel()
        for f in (random_f(rng, inst.problem, bs.partition.window),
                  orthogonal_rhs(rng, bs, 1e-10)):
            moments = moment_vectors(bs, f)
            result = t0_solve_system(bs, moments)
            if not isinstance(result, OrthogonalityCertificate):
                result._node_states()
            expm.calls = grid.calls = 0
            defect = functional_identity_defect(bs, moments, adjoint @ rng.standard_normal(
                adjoint.shape[1]))
            again = t0_solve_system(bs, moments)
            rows = _t0_result_rows(bs, moments, result, kernel, lambda: norms, "t0", "x", 1e-10)
            assert (expm.calls, grid.calls) == (0, 0)
            assert defect <= 1e-9 and all(row.passed for row in rows)
            assert type(again) is type(result)
            kinds.append(type(result).__name__)
    assert {"OrthogonalityCertificate", "PiecewiseSolution"} <= set(kinds)
