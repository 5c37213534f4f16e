"""BlockSystem's cached factorisations against the dense oracles.

The kernels and min-norm solves a BlockSystem answers from the orthogonal
sweeps over B and over W = B_m^* must agree with ``nullspace`` and the
tests' ``minimum_norm_solve`` applied to the dense B and B_m.  Compactly supported
solutions lift every ker B^* vector in one batch and never factorise B_m;
the batch must agree with the dense B and with one-column lifts.
"""

import functools

import numpy as np
import pytest

from measureode import MeasureMatrix, Problem, blocksystem, fuzz
from measureode.blocksystem import moment_vectors, nullspace
from measureode.cli import main
from measureode.relations import OrthogonalityCertificate, t0_solve_system
from measureode.solutions import compact_support_solutions, lift_kernel_vector, solve_system
from measureode.verify import run_suites

from conftest import block_system, minimum_norm_solve
from test_cli import data
from test_acceptance import _fuzz_systems

SPAN_TOL = 1e-8
SOLVE_TOL = 1e-10
LIFT_RESIDUAL_TOL = 1e-9
LIFT_MATCH_TOL = 1e-12


def mirrored_chain(seed=5, pairs=2):
    """n = 2, atoms at 1..2*pairs with atom 2k+1 = -atom 2k, q-density pi I.

    J + dq/2 annihilates an isotropic vector at atom 2k and J - dq/2 the
    same vector at atom 2k+1.  Across the unit gap between them the density
    rotates the state by pi (U(1) = -I), so each pair still supports one
    compactly supported solution, which turns between its atoms:
    dim ker B^* = pairs.
    """
    rng = np.random.default_rng(seed)
    J = fuzz.canonical_j(2)
    atoms = []
    for k in range(2 * pairs):
        dq = -atoms[-1][1] if k % 2 else fuzz.singular_jump(J, rng)
        atoms.append((float(k + 1), dq))
    interval = (0.0, float(2 * pairs + 1))
    q = MeasureMatrix(interval, densities=[np.pi * np.eye(2)], atoms=atoms)
    w = MeasureMatrix.lebesgue(interval, np.eye(2, dtype=complex))
    return Problem(J, q, w), interval


def _projector(basis):
    return basis @ basis.conj().T


def _assert_same_span(got, oracle):
    assert got.shape == oracle.shape
    if got.shape[1]:
        gap = np.linalg.norm(_projector(got) - _projector(oracle), 2)
        assert gap <= SPAN_TOL


def _oracle_systems():
    problem, interval = mirrored_chain()
    return [bs for _, bs in _fuzz_systems()] + [block_system(problem, interval)]


def test_kernels_match_the_dense_oracle():
    for bs in _oracle_systems():
        _assert_same_span(bs.factors.kernel(), nullspace(bs.B))
        _assert_same_span(bs.factors.adjoint_kernel(), nullspace(bs.B.conj().T))
        _assert_same_span(bs.reduced_factors.adjoint_kernel(),
                          nullspace(bs.B_m.conj().T))


def test_min_norm_solves_match_the_dense_oracle():
    rng = np.random.default_rng(11)
    for bs in _oracle_systems():
        rows = bs.B.shape[0]
        rhs = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        for got, matrix in ((bs.factors.solve(rhs), bs.B),
                            (bs.reduced_factors.solve(rhs), bs.B_m)):
            oracle = minimum_norm_solve(matrix, rhs)
            scale = max(1.0, float(np.linalg.norm(oracle)))
            assert np.linalg.norm(got - oracle) <= SOLVE_TOL * scale


def test_run_suites_builds_one_block_system(monkeypatch):
    built = []
    original = blocksystem.BlockSystem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(blocksystem.BlockSystem, "__init__", counting_init)
    inst = fuzz.random_instance(np.random.default_rng(3))
    rows = run_suites(inst.problem, inst.window, inst.f, inst.extra_points,
                      rng=np.random.default_rng(4))
    assert rows and all(row.passed for row in rows)
    assert len(built) == 1


def test_compact_solutions_never_factorise_b_m(monkeypatch):
    problem, interval = mirrored_chain()
    bs = block_system(problem, interval)
    reduced_shapes = {bs.B_m.shape, bs.B_m.T.shape}
    calls = []
    original = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if np.shape(a) in reduced_shapes:
            calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    solutions = compact_support_solutions(bs)
    assert bs.N == 4 and len(solutions) == 2
    assert calls == []
    assert "reduced_factors" not in vars(bs)


def test_cli_compact_never_factorises_b_m(monkeypatch, capsys):
    def forbidden(self):
        raise AssertionError("compact factorised B_m")

    monkeypatch.setattr(blocksystem.BlockSystem, "reduced_factors", property(forbidden))
    assert main(["compact", "--input", data("instance_a.json")]) == 0


def test_batched_compact_lifts_match_the_dense_oracle():
    systems = [bs for _, bs in _fuzz_systems()]
    systems += [block_system(*mirrored_chain(pairs=pairs)) for pairs in (10, 20)]
    counts = []
    for bs in systems:
        n = bs.n
        basis = bs.factors.adjoint_kernel()
        solutions = compact_support_solutions(bs)
        assert len(solutions) == nullspace(bs.B.conj().T).shape[1]
        counts.append(len(solutions))
        for k, solution in enumerate(solutions):
            uhat = basis[:, k] / basis[np.argmax(np.abs(basis[:, k])), k]
            c = solution.coefficients.reshape(-1)
            scale = max(1.0, float(np.linalg.norm(uhat)))
            assert np.linalg.norm(bs.B @ c) <= LIFT_RESIDUAL_TOL * scale
            assert not c[:n].any() and not c[-n:].any()
            one_column = lift_kernel_vector(bs, uhat)[n:-n]
            assert np.linalg.norm(c[n:-n] - one_column) \
                <= LIFT_MATCH_TOL * max(1.0, float(np.linalg.norm(one_column)))
    assert counts[-2:] == [10, 20]


def _random_blocks(rng, count, n):
    return rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))


@pytest.mark.parametrize("K, n", [(1, 2), (6, 2), (12, 3)])
def test_adjoint_solve_of_a_full_row_rank_sweep_matches_the_dense_oracle(K, n):
    # Every row a pivot and a last column block of full width: (M^+)^* rhs.
    rng = np.random.default_rng(K + 10 * n)
    lower, upper = _random_blocks(rng, K, n), _random_blocks(rng, K, n)
    factors = blocksystem.Factorisation(lower, upper)
    sweep = factors._sweep(blocksystem.DEFAULT_TOL_RANK)
    assert sweep.rank == K * n
    rhs = rng.standard_normal(n * (K + 1)) + 1j * rng.standard_normal(n * (K + 1))
    oracle = np.linalg.pinv(blocksystem._bidiagonal(lower, upper)).conj().T @ rhs
    scale = max(1.0, float(np.linalg.norm(oracle)))
    for got in (np.concatenate(sweep._adjoint_solve(rhs)), factors.adjoint_solve(rhs)):
        assert np.linalg.norm(got - oracle) <= SOLVE_TOL * scale


def test_b_m_questions_take_one_sweep_over_its_adjoint(monkeypatch):
    # ker B_m^* is the kernel of the sweep over W = B_m^*: a lift and a t0
    # certificate need that one sweep and no pivot sweep over L^*.
    inst = fuzz.random_chain(np.random.default_rng(3), 80, 2, True)
    bs = block_system(inst.problem, inst.window, inst.extra_points)
    moments = moment_vectors(bs, inst.f)
    sweeps = []
    original = blocksystem._Sweep.__init__

    def recording_init(self, *args, **kwargs):
        sweeps.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(blocksystem._Sweep, "__init__", recording_init)
    adjoint = bs.reduced_factors.adjoint_kernel()
    assert adjoint.shape[1] > bs.n
    lift_kernel_vector(bs, adjoint[:, 0])
    assert isinstance(t0_solve_system(bs, moments), OrthogonalityCertificate)
    assert len(sweeps) == 1 and len(sweeps[0].lower) == bs.N - 1
    assert "pivot_sweep" not in vars(sweeps[0])


def test_b_m_solves_with_a_kernel_go_through_the_pivot_sweep_of_its_adjoint():
    # Mirrored chains have ker B_m != 0 (one vector per compactly supported
    # solution), so W = B_m^* falls short of full row rank.
    rng = np.random.default_rng(23)
    for _, bs in _mirrored_family():
        factors = bs.reduced_factors
        assert factors.kernel().shape[1] == bs.N // 2 > 0
        rhs = rng.standard_normal(bs.n * bs.N) + 1j * rng.standard_normal(bs.n * bs.N)
        oracle = minimum_norm_solve(bs.B_m, rhs)
        scale = max(1.0, float(np.linalg.norm(oracle)))
        assert np.linalg.norm(factors.solve(rhs) - oracle) <= SOLVE_TOL * scale
        assert "pivot_sweep" in vars(factors.factors._sweep(blocksystem.DEFAULT_TOL_RANK))


@pytest.mark.parametrize("tol_rank", [1e-10, 1e-3])
def test_rank_cut_applies_per_call(tol_rank):
    problem, interval = mirrored_chain()
    bs = block_system(problem, interval)
    bs.factors.kernel()  # fill the cache at the default cut first
    _assert_same_span(bs.factors.kernel(tol_rank), nullspace(bs.B, tol_rank))
    _assert_same_span(bs.factors.adjoint_kernel(tol_rank),
                      nullspace(bs.B.conj().T, tol_rank))


# -- the sweeps against the dense SVD on larger and rank-deficient systems ------


@functools.lru_cache(maxsize=1)
def _mirrored_family():
    """Mirrored chains of 2 to 8 atoms at n = 2 to 4, so ker B^* != 0."""
    rng = np.random.default_rng(4242)
    instances = [fuzz.random_chain(rng, 2 * int(rng.integers(1, 5)), int(rng.integers(2, 5)))
                 for _ in range(40)]
    return [(inst, block_system(inst.problem, inst.window)) for inst in instances]


@functools.lru_cache(maxsize=1)
def _chains():
    """Random and mirrored chains up to N = 160 at n = 2 and N = 60 at n <= 6.

    The dense oracle is capped at nN <= 400 rows.
    """
    rng = np.random.default_rng(31)
    instances = [fuzz.random_chain(rng, N, n, mirrored)
                 for n, N in ((2, 160), (3, 40), (4, 60), (6, 60))
                 for mirrored in (False, True)]
    return [(inst, block_system(inst.problem, inst.window)) for inst in instances]


def _matches_dense(factors, matrix, rhs) -> list[bool]:
    """Compare one factorisation with a dense SVD at both cuts; False where not sharp.

    One full SVD gives the oracle kernels and min-norm solve at every cut,
    with the relative rule of ``nullspace`` and ``minimum_norm_solve``.
    Dimensions must always agree.  Spans and solves are compared where the
    spectrum drops by 1 / SPAN_TOL across the cut; elsewhere a singular
    value sits near the cut, the truncated kernel is fixed only up to it,
    and each kernel is checked against the residual every sweep guarantees,
    at most the cut per block row (bounded here per row).
    """
    u, s, vh = np.linalg.svd(matrix)
    sharp = []
    for tol_rank in (1e-10, 1e-3):
        rank = int(np.sum(s > tol_rank * s[0]))
        kernel, adjoint = factors.kernel(tol_rank), factors.adjoint_kernel(tol_rank)
        assert kernel.shape[1] == matrix.shape[1] - rank
        assert adjoint.shape[1] == matrix.shape[0] - rank
        sharp.append(rank == s.size or s[rank] <= SPAN_TOL * s[rank - 1])
        if not sharp[-1]:
            bound = np.sqrt(matrix.shape[0]) * tol_rank * factors.scale
            assert np.linalg.norm(matrix @ kernel, 2) <= bound
            assert np.linalg.norm(matrix.conj().T @ adjoint, 2) <= bound
            continue
        _assert_same_span(kernel, vh[rank:].conj().T)
        _assert_same_span(adjoint, u[:, rank:])
        oracle = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ rhs) / s[:rank])
        scale = max(1.0, float(np.linalg.norm(oracle)))
        assert np.linalg.norm(factors.solve(rhs, tol_rank) - oracle) <= SOLVE_TOL * scale
    return sharp


def test_sweeps_match_the_dense_oracle():
    rng = np.random.default_rng(17)
    sharp = []
    for _, bs in _fuzz_systems() + _mirrored_family() + _chains():
        for factors, matrix in ((bs.factors, bs.B), (bs.reduced_factors, bs.B_m)):
            rows = matrix.shape[0]
            rhs = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
            sharp.append(_matches_dense(factors, matrix, rhs))
    assert all(at_default for at_default, _ in sharp)


@functools.lru_cache(maxsize=1)
def _hyperbolic_family():
    """Padded windows of dichotomic densities: q = diag(+-a_i) dx, w = I dx.

    Forced points every 2 units give N = 9 to 199 regular partition points
    at n = 2, 3, 4.  Each 2 x 2 rotation block of J meets opposite signs, so
    every subinterval has a growing and a decaying solution: the tall B_m is
    well conditioned, while recursion along it grows like e^(2 a N).
    """
    rng = np.random.default_rng(1995)
    systems = []
    for n in (2, 3, 4):
        for N in (9, 49, 99, 199):
            interval = (0.0, 2.0 * (N + 1))
            a = rng.uniform(0.5, 1.0, n) * (-1.0) ** np.arange(n)
            q = MeasureMatrix(interval, densities=[np.diag(a).astype(complex)])
            w = MeasureMatrix.lebesgue(interval, np.eye(n, dtype=complex))
            bs = block_system(Problem(fuzz.canonical_j(n), q, w), interval,
                              np.arange(2.0, interval[1], 2.0))
            assert bs.N == N
            systems.append(bs)
    return systems


def test_hyperbolic_solves_and_kernels_match_the_dense_oracle():
    # One full SVD per matrix gives what minimum_norm_solve and nullspace
    # would, at their default cut.
    rng = np.random.default_rng(92)
    for bs in _hyperbolic_family():
        for factors, matrix in ((bs.factors, bs.B), (bs.reduced_factors, bs.B_m)):
            rows = matrix.shape[0]
            rhs = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
            u, s, vh = np.linalg.svd(matrix)
            rank = int(np.sum(s > blocksystem.DEFAULT_TOL_RANK * s[0]))
            oracle = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ rhs) / s[:rank])
            assert np.linalg.norm(factors.solve(rhs) - oracle) \
                <= 1e-12 * np.linalg.norm(oracle)
            _assert_same_span(factors.kernel(), vh[rank:].conj().T)
            _assert_same_span(factors.adjoint_kernel(), u[:, rank:])


def _random_chain_system(seed, N):
    inst = fuzz.random_chain(np.random.default_rng(seed), N, 2, mirrored=False)
    return block_system(inst.problem, inst.window)


def test_a_singular_value_near_the_cut_fixes_dimensions_not_spans():
    # B and B_m have a singular value of 5e-4 sigma_max, next to the 1e-3 cut.
    bs = _random_chain_system(27, 20)
    for factors, matrix in ((bs.factors, bs.B), (bs.reduced_factors, bs.B_m)):
        assert _matches_dense(factors, matrix, np.ones(matrix.shape[0], dtype=complex)) \
            == [True, False]


@pytest.mark.parametrize("seed, N", [(42, 20), (28, 40), (7, 100), (28, 100)])
def test_one_rank_decision_answers_near_a_coarse_cut(seed, N):
    # Singular values within about 10x of the 1e-3 cut: the adjoint kernel
    # still comes out, with the dimension the sweep over M fixes.
    bs = _random_chain_system(seed, N)
    for factors, matrix in ((bs.factors, bs.B), (bs.reduced_factors, bs.B_m)):
        rows, cols = factors.shape
        adjoint = factors.adjoint_kernel(1e-3)
        assert factors.kernel(1e-3).shape[1] - adjoint.shape[1] == cols - rows
        assert adjoint.shape[1] == rows - factors.rank(1e-3)
        np.testing.assert_allclose(adjoint.conj().T @ adjoint, np.eye(adjoint.shape[1]),
                                   atol=1e-12)
        bound = np.sqrt(rows) * 1e-3 * factors.scale
        assert np.linalg.norm(matrix.conj().T @ adjoint, 2) <= bound


def test_mirrored_chains_reach_a_nontrivial_adjoint_kernel():
    chains = _chains()
    cases = [(bs, bs.N // 2) for _, bs in _mirrored_family() + chains[1::2]]
    cases += [(bs, 0) for _, bs in chains[::2]]
    for bs, expected in cases:
        assert bs.factors.adjoint_kernel().shape[1] == expected
        assert bs.factors.kernel().shape[1] == bs.n + expected
        assert len(compact_support_solutions(bs)) == expected


def test_structured_paths_build_no_dense_matrix_and_take_no_large_svd(monkeypatch):
    inst = fuzz.random_chain(np.random.default_rng(8), 40, 2)
    bs = block_system(inst.problem, inst.window)
    moments = moment_vectors(bs, inst.f.refined_against(inst.problem.w))
    shapes = []
    original = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    solve_system(bs, moments)
    assert len(compact_support_solutions(bs)) == 20
    t0_solve_system(bs, moments)
    # Only pivot matrices (n x at most 2n) and the free bases are decomposed.
    assert shapes and max(max(shape) for shape in shapes) <= 2 * bs.n
    assert not {"B", "C", "B_m", "C_m"} & set(vars(bs))
