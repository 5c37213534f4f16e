"""Jump classification, partitions, and the coupling matrices."""

import os

import numpy as np
import pytest

from measureode import (
    EmptyWindow,
    MeasureMatrix,
    OutOfInterval,
    Problem,
    SingularAtom,
    assemble,
    atom_transfer,
    build_system,
    classify_jumps,
    find_singular_points,
    kernel_K0,
    lagrange_check,
    make_partition,
    moment_vectors,
    nullspace,
    run_suites,
    solve_system,
    t0_solve,
)
from measureode.coefficients import DEFAULT_TOL_SING
from measureode.blocksystem import Partition, _dense_rank, _full_column_rank
from measureode.functions import L2Function
from measureode.propagation import w_pairing
from measureode.fuzz import random_chain, random_instance

from conftest import J2, SWAP2, INTERVAL, block_system, fresh_python, two_atom_problem

TOL_IDENTITY = 1e-10


# -- jump classification ------------------------------------------------------

def test_classify_jumps_statuses():
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [
        (-0.5, SWAP2),                       # J + dq/2 singular
        (0.2, np.diag([1e-7, 1e-7])),        # nearly J: regular but borderline? no
        (0.6, np.diag([1.0, 1.0])),          # comfortably regular
    ])
    problem = Problem(J2, q, MeasureMatrix.zero(INTERVAL, 2))
    reports = {r.position: r for r in classify_jumps(problem, INTERVAL)}
    assert reports[-0.5].status == "singular"
    assert reports[0.6].status == "regular"
    assert find_singular_points(problem, INTERVAL) == [-0.5]


def test_classify_jumps_borderline():
    # perturb the singular atom so sigma_min sits between tol_sing and 1e-6
    dq = (1.0 + 1e-7) * SWAP2
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [(0.0, dq)])
    problem = Problem(J2, q, MeasureMatrix.zero(INTERVAL, 2))
    (report,) = classify_jumps(problem, INTERVAL)
    assert report.status == "borderline"
    assert report.sigma_min < 1e-6
    assert find_singular_points(problem, INTERVAL) == []


def test_classify_jumps_respects_window():
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [(-0.5, SWAP2), (0.5, SWAP2)])
    problem = Problem(J2, q, MeasureMatrix.zero(INTERVAL, 2))
    inside = classify_jumps(problem, (0.0, 1.0))
    assert [r.position for r in inside] == [0.5]
    with pytest.raises(OutOfInterval):
        classify_jumps(problem, (-2.0, 1.0))


@pytest.mark.parametrize("sigma_max", [0.5, 3.0])
@pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
def test_singular_jump_test_is_one_rule_at_its_threshold(sigma_max, factor):
    # J + dq/2 with sigma_min just below or above tol_sing * max(1, sigma_max):
    # classification, the transfer and assembly across the jump must agree.
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    threshold = DEFAULT_TOL_SING * max(1.0, sigma_max)
    b_plus = u @ np.diag([sigma_max, factor * threshold]) @ v.conj().T
    dq = 2.0 * (b_plus - J2)
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [(0.25, dq)])
    problem = Problem(J2, q, MeasureMatrix.zero(INTERVAL, 2))

    (report,) = classify_jumps(problem, INTERVAL)
    assert report.sigma_min / threshold == pytest.approx(factor, abs=1e-6)
    singular = report.status == "singular"
    assert singular == (factor < 1.0)
    missing = make_partition(INTERVAL, [])  # thirds: 0.25 lies inside a subinterval
    if singular:
        with pytest.raises(SingularAtom):
            atom_transfer(J2, q.jump(0.25))
        with pytest.raises(SingularAtom):
            assemble(problem, missing)
    else:
        atom_transfer(J2, q.jump(0.25))
        assemble(problem, missing)


# -- partitions ---------------------------------------------------------------

@pytest.mark.parametrize("window", [(0.25, 0.25), (0.5, -0.5)])
def test_empty_and_reversed_windows_raise_empty_window(mirror_problem, window):
    f = L2Function.constant(INTERVAL, [1.0, 0.0])
    with pytest.raises(EmptyWindow):
        make_partition(window, [])
    with pytest.raises(EmptyWindow):
        build_system(mirror_problem, window)
    with pytest.raises(EmptyWindow):
        kernel_K0(mirror_problem, window)
    with pytest.raises(EmptyWindow):
        t0_solve(mirror_problem, window, f)
    with pytest.raises(EmptyWindow):
        run_suites(mirror_problem, window, f)
    with pytest.raises(EmptyWindow):
        L2Function(window, window, [[1.0, 0.0]])
    with pytest.raises(EmptyWindow):
        w_pairing(mirror_problem.w, f, f, window)
    # With both rhs None no pairing reads the window: the check refuses it itself.
    u = solve_system(build_system(mirror_problem, INTERVAL)).kernel_basis[0]
    with pytest.raises(EmptyWindow):
        lagrange_check(mirror_problem, window, (u, None), (u, None))


def test_partition_pads_empty_to_thirds():
    part = make_partition((0.0, 3.0), [])
    np.testing.assert_allclose(part.interior, [1.0, 2.0])
    assert not part.singular.any()
    np.testing.assert_allclose(part.points, [0.0, 1.0, 2.0, 3.0])


def test_partition_pads_single_point_into_longer_gap():
    part = make_partition((0.0, 1.0), [0.75])
    np.testing.assert_allclose(part.interior, [0.375, 0.75])
    assert list(part.singular) == [False, True]

    part = make_partition((0.0, 1.0), [0.25])
    np.testing.assert_allclose(part.interior, [0.25, 0.625])
    assert list(part.singular) == [True, False]


def test_partition_tie_breaks_to_the_right_gap():
    part = make_partition((0.0, 1.0), [0.5])
    np.testing.assert_allclose(part.interior, [0.5, 0.75])
    assert list(part.singular) == [True, False]


def test_partition_merges_forced_points_as_padded():
    part = make_partition((0.0, 1.0), [0.5], extra=[0.2])
    np.testing.assert_allclose(part.interior, [0.2, 0.5])
    assert list(part.singular) == [False, True]


def test_partition_rejects_points_outside_the_open_window():
    with pytest.raises(OutOfInterval):
        make_partition((0.0, 1.0), [1.0])
    with pytest.raises(OutOfInterval):
        make_partition((0.0, 1.0), [0.5], extra=[-0.1])


def test_partition_construction_invariants():
    with pytest.raises(ValueError):
        Partition((0.0, 1.0), np.array([0.5]), np.array([True]))
    with pytest.raises(ValueError):
        Partition((0.0, 1.0), np.array([0.6, 0.4]), np.array([True, True]))
    part = Partition((0.0, 1.0), np.array([0.3, 0.7]), np.array([True, False]))
    assert part.count == 2


# -- nullspace ----------------------------------------------------------------

def test_nullspace_known_kernel():
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
    basis = nullspace(m)
    assert basis.shape == (3, 1)
    np.testing.assert_allclose(m @ basis, 0.0, atol=1e-14)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(1), atol=1e-14)


def test_nullspace_rank_cut_is_relative():
    m = np.diag([1.0, 1e-12]).astype(complex)
    assert nullspace(m, tol_rank=1e-10).shape[1] == 1
    assert nullspace(m, tol_rank=1e-14).shape[1] == 0


def test_nullspace_of_zero_matrix_is_identity(count_calls):
    svd = count_calls(np.linalg, "svd")
    for shape in [(2, 3), (3, 2), (0, 3)]:
        np.testing.assert_array_equal(nullspace(np.zeros(shape)), np.eye(shape[1]))
    assert svd.calls == 0


def _oracle_dimension(matrix, tol_rank=1e-10):
    """Kernel dimension from one full SVD, the cut nullspace made before."""
    s = np.linalg.svd(matrix)[1]
    return matrix.shape[1] - int(np.sum(s > tol_rank * s[0]))


def _chain_adjoint(seed, N, mirrored):
    """B^* of a random chain: 2(N + 1) x 2N, with kernel dimension N/2 if mirrored."""
    inst = random_chain(np.random.default_rng(seed), N, 2, mirrored)
    return block_system(inst.problem, inst.window, inst.extra_points).B.conj().T


def test_nullspace_of_a_full_column_rank_matrix_takes_no_singular_vectors(count_calls):
    # A random chain's B^* (tall, 2(N+1) x 2N) has a trivial kernel.
    for seed, N in [(0, 20), (1, 40)]:
        adjoint = _chain_adjoint(seed, N, False)
        assert _oracle_dimension(adjoint) == 0
        svd = count_calls(np.linalg, "svd")
        cholesky = count_calls(np.linalg, "cholesky")
        basis = nullspace(adjoint, 1e-10)
        assert basis.shape == (adjoint.shape[1], 0)
        assert (svd.calls, cholesky.calls) == (0, 1)


def test_nullspace_of_a_rank_deficient_tall_matrix_matches_the_full_svd(count_calls,
                                                                        mirror_system):
    # The basis is the unshuffled full SVD's, bit for bit, and that SVD is
    # the only one: the failed certificate costs no values-only SVD.
    chains = [_chain_adjoint(3, N, True) for N in (20, 80)]
    for adjoint in (*chains, mirror_system.B.conj().T):
        _, s, vh = np.linalg.svd(adjoint)
        rank = int(np.sum(s > 1e-10 * s[0]))
        expected = adjoint.shape[1] - rank
        assert expected >= 1
        svd = count_calls(np.linalg, "svd")
        basis = nullspace(adjoint, 1e-10)
        assert svd.kwargs == [{}]
        np.testing.assert_array_equal(basis, vh[rank:].conj().T)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(expected), atol=1e-12)
        assert np.linalg.norm(adjoint @ basis) <= 1e-12 * np.linalg.norm(adjoint)


def _synthetic_tall(rng, rows, cols, ratio, scale):
    """scale U diag(s) V^*, s from 1 down to ratio, random unitary U and V."""
    def unitary(size):
        return np.linalg.qr(rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size)))[0]
    inner = np.exp(rng.uniform(np.log(ratio), 0.0, max(cols - 2, 0)))
    s = np.concatenate([[1.0], np.sort(inner)[::-1], [ratio]])[:cols]
    return scale * (unitary(rows)[:, :cols] * s) @ unitary(cols).conj().T


def test_the_rank_certificate_is_true_only_where_the_svd_counts_full_rank():
    # 1600 tall matrices, sigma_min / sigma_max from 1e-14 to 1, scales from
    # 1e-100 to 1e100, a quarter of them near the cut: a True must agree
    # with the values-only SVD, shuffled (_dense_rank) and plain, and every
    # matrix well clear of the cut must certify.
    rng = np.random.default_rng(33)
    certified = 0
    for tol_rank in (1e-10, 1e-6, 1e-3, 0.5):
        for case in range(400):
            cols = int(rng.integers(1, 9))
            rows = cols + int(rng.integers(0, 5))
            ratio = (tol_rank * 10.0 ** rng.uniform(-0.3, 0.7) if case % 4 == 0
                     else 10.0 ** rng.uniform(-14.0, 0.0))
            matrix = _synthetic_tall(rng, rows, cols, min(ratio, 1.0),
                                     10.0 ** rng.uniform(-100.0, 100.0))
            s = np.linalg.svd(matrix, compute_uv=False)
            full_rank = (_dense_rank(matrix, tol_rank) == cols
                         and int(np.sum(s > tol_rank * s[0])) == cols)
            certificate = _full_column_rank(matrix, tol_rank)
            assert full_rank or not certificate, (tol_rank, case)
            if s[-1] >= max(2.0 * np.sqrt(cols) * tol_rank, 1e-5) * s[0]:
                assert certificate, (tol_rank, case)
            certified += certificate
    assert certified >= 400


def test_nullspace_dimensions_match_the_oracle_on_every_coupling_family():
    # B^* of the acceptance fuzz set, random and mirrored chains, the
    # borderline family and both hyperbolic files.
    from measureode.fileio import load_problem
    from test_acceptance import _fuzz_systems
    from test_cli import DATA
    from test_verify import _borderline_family
    adjoints = [bs.B.conj().T for _, bs in _fuzz_systems()]
    adjoints += [_chain_adjoint(3, N, mirrored)
                 for N in (20, 80, 160) for mirrored in (False, True)]
    with np.errstate(all="ignore"):
        adjoints += [build_system(problem, inst.window, inst.extra_points).B.conj().T
                     for inst, problem in _borderline_family(1e-6)]
    for name in ("instance_hyperbolic.json", "instance_hyperbolic_padded.json"):
        parsed = load_problem(os.path.join(DATA, name))
        adjoints.append(build_system(parsed.problem, parsed.window,
                                     parsed.forced_points).B.conj().T)
    dimensions = [nullspace(adjoint).shape[1] for adjoint in adjoints]
    assert dimensions == [_oracle_dimension(adjoint) for adjoint in adjoints]
    assert 0 < sum(dimensions)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_nullspace_of_an_overflowing_or_underflowing_gram_takes_the_svd(count_calls,
                                                                        scale):
    # Squares of 1e160 overflow and of 1e-170 underflow to zero: no
    # certificate, and the full SVD, which scales its input, decides.
    rng = np.random.default_rng(5)
    matrix = scale * (rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8)))
    assert not _full_column_rank(matrix, 1e-10)
    svd = count_calls(np.linalg, "svd")
    assert nullspace(matrix, 1e-10).shape == (8, 0)
    assert svd.kwargs == [{}]


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_non_finite_matrix_raises_before_any_svd_or_cholesky(monkeypatch, value):
    # The stand-ins raise at once, so a regression fails instead of hanging.
    def forbidden(*args, **kwargs):
        raise AssertionError("factorised a non-finite matrix")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    for shape in [(4, 3), (3, 3), (3, 4)]:
        matrix = np.ones(shape, dtype=complex)
        matrix[1, 2] = value
        with pytest.raises(np.linalg.LinAlgError):
            nullspace(matrix)


def test_nullspace_of_a_wide_matrix_takes_one_svd(count_calls):
    rng = np.random.default_rng(4)
    factor = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    gram = factor.conj().T @ factor   # 8 x 8 of rank 3, then its first rows
    wide = gram[:5]
    svd = count_calls(np.linalg, "svd")
    basis = nullspace(wide, 1e-10)
    assert svd.calls == 1
    assert basis.shape == (8, _oracle_dimension(wide)) == (8, 5)
    np.testing.assert_allclose(wide @ basis, 0.0, atol=1e-12 * np.linalg.norm(wide))


@pytest.mark.parametrize("N, mirrored, dim_adj", [(160, False, 0), (80, True, 40)])
def test_the_shuffled_rank_is_the_plain_svds(N, mirrored, dim_adj):
    # The banded B* the row shuffle is for: same rank as the SVD of the rows
    # in their own order, at the default cut and a coarse one.
    adjoint = _chain_adjoint(3, N, mirrored)
    s = np.linalg.svd(adjoint, compute_uv=False)
    for tol_rank in (1e-10, 1e-3):
        assert _dense_rank(adjoint, tol_rank) == int(np.sum(s > tol_rank * s[0]))
    assert adjoint.shape[1] - _dense_rank(adjoint, 1e-10) == dim_adj


def test_the_rank_svd_sees_every_row_once(monkeypatch):
    seen = []
    svd = np.linalg.svd

    def recorded(matrix, **kwargs):
        seen.append(matrix)
        return svd(matrix, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for m in range(1, 40):
        rows = np.arange(m, dtype=float)[:, None] + [1.0, 0.5]
        _dense_rank(rows, 1e-10)
        np.testing.assert_array_equal(np.sort(seen.pop()[:, 0]), rows[:, 0])


@pytest.mark.parametrize("matrix, rank", [
    ([[3.0, 4.0]], 1), ([[0.0, 2.0]], 1), ([[2.0]], 1),
    ([[1.0], [2.0]], 1), ([[1.0, 2.0], [2.0, 4.0]], 1), ([[1.0, 0.0], [0.0, 2.0]], 2)])
def test_dense_rank_and_nullspace_of_one_and_two_rows(matrix, rank):
    matrix = np.array(matrix, dtype=complex)
    assert _dense_rank(matrix, 1e-10) == rank
    basis = nullspace(matrix, 1e-10)
    assert basis.shape == (matrix.shape[1], matrix.shape[1] - rank)
    np.testing.assert_allclose(matrix @ basis, 0.0, atol=1e-14)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("shape", [(4, 3), (3, 4)])
def test_non_finite_matrices_raise_before_any_svd(count_calls, value, shape):
    matrix = np.ones(shape, dtype=complex)
    matrix[1, 2] = value
    svd = count_calls(np.linalg, "svd")
    with pytest.raises(np.linalg.LinAlgError):
        _dense_rank(matrix, 1e-10)
    if np.isnan(value):  # nullspace's inf case runs apart, in a fresh interpreter
        with pytest.raises(np.linalg.LinAlgError):
            nullspace(matrix)
    assert svd.calls == 0


def test_nullspace_of_a_matrix_with_an_inf_raises_instead_of_hanging():
    # The SVD with vectors of such a matrix can spin without returning, so
    # a regression has to end in the timeout, not hang the suite.
    proc = fresh_python("-c", """if True:
        import numpy as np
        from measureode import nullspace
        for dtype in (float, complex):
            for shape in ((4, 3), (3, 4)):
                matrix = np.ones(shape, dtype=dtype)
                matrix[1, 2] = np.inf
                try:
                    nullspace(matrix)
                except np.linalg.LinAlgError:
                    continue
                raise SystemExit(f"no LinAlgError for {dtype.__name__} {shape}")
        """, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- the coupling matrices ----------------------------------------------------

def test_mirror_system_matrices_match_hand_elimination(mirror_system):
    bs = mirror_system
    assert (bs.n, bs.N) == (2, 2)
    B_expected = np.array([
        [0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -2.0],
        [0.0, 0.0, -2.0, 0.0, 0.0, 0.0],
    ])
    C_expected = 0.5 * np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
    ])
    np.testing.assert_allclose(bs.B, B_expected, atol=1e-14)
    np.testing.assert_allclose(bs.C, C_expected, atol=1e-14)
    np.testing.assert_allclose(bs.B_m, B_expected[:, 2:-2], atol=1e-14)


def test_commutation_identities_on_random_instances():
    rng = np.random.default_rng(35)
    for _ in range(25):
        inst = random_instance(rng, with_f=False)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        n, N = bs.n, bs.N
        expected = np.zeros((n * (N + 1), n * (N + 1)), dtype=complex)
        expected[:n, :n] = -inst.problem.J
        expected[-n:, -n:] = inst.problem.J
        full = bs.C.conj().T @ bs.B - bs.B.conj().T @ bs.C
        assert np.linalg.norm(full - expected) <= TOL_IDENTITY
        reduced = bs.C_m.conj().T @ bs.B - bs.B_m.conj().T @ bs.C
        assert np.linalg.norm(reduced) <= TOL_IDENTITY


def test_kernel_dimension_bookkeeping_on_random_instances():
    rng = np.random.default_rng(36)
    for _ in range(25):
        inst = random_instance(rng, with_f=False)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        dim_ker = nullspace(bs.B).shape[1]
        dim_adj = nullspace(bs.B.conj().T).shape[1]
        assert dim_ker >= bs.n
        assert dim_ker == bs.n + dim_adj


def test_assemble_raises_when_partition_misses_a_singular_point():
    problem = two_atom_problem(SWAP2, -SWAP2)
    padded_only = make_partition(INTERVAL, [])  # thirds: misses both atoms
    with pytest.raises(SingularAtom):
        assemble(problem, padded_only)


def test_moment_vectors_for_the_mirror_instance(mirror_system, ones_rhs):
    mv = moment_vectors(mirror_system, ones_rhs)
    np.testing.assert_allclose(mv.jump_moments, 0.0, atol=1e-14)
    np.testing.assert_allclose(mv.rhs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(mv.functional, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_moment_vectors_see_weight_atoms_at_partition_points():
    # put the weight atom exactly at the singular point -0.5
    problem = two_atom_problem(SWAP2, -SWAP2, w_atoms=((-0.5, np.eye(2)),))
    bs = block_system(problem)
    f = L2Function.constant(INTERVAL, [1.0, 2.0], w=problem.w)
    mv = moment_vectors(bs, f)
    np.testing.assert_allclose(mv.jump_moments[:2], [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(mv.jump_moments[2:], 0.0, atol=1e-14)
