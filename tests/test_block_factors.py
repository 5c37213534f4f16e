"""BlockSystem's cached factorisations against the dense oracles.

The kernels and min-norm solves a BlockSystem answers from its two cached
SVDs (of B and of B_m) must agree with ``nullspace`` and
``minimum_norm_solve`` applied to the dense matrices.  Compactly supported
solutions lift every ker B^* vector in one batch and never factorise B_m;
the batch must agree with the dense B and with one-column lifts.
"""

import numpy as np
import pytest

from measureode import MeasureMatrix, Problem, blocksystem, fuzz
from measureode.blocksystem import nullspace
from measureode.cli import main
from measureode.solutions import (compact_support_solutions, lift_kernel_vector,
                                  minimum_norm_solve)
from measureode.verify import run_suites

from conftest import block_system
from test_cli import data
from test_acceptance import _fuzz_systems

SPAN_TOL = 1e-8
SOLVE_TOL = 1e-10
LIFT_RESIDUAL_TOL = 1e-9
LIFT_MATCH_TOL = 1e-12


def mirrored_chain(seed=5, pairs=2):
    """n = 2, atoms at 1..2*pairs with atom 2k+1 = -atom 2k, zero q-density.

    J + dq/2 annihilates an isotropic vector at atom 2k and J - dq/2 the
    same vector at atom 2k+1, so each pair supports one compactly
    supported solution: dim ker B^* = pairs.
    """
    rng = np.random.default_rng(seed)
    J = fuzz.canonical_j(2)
    atoms = []
    for k in range(2 * pairs):
        dq = -atoms[-1][1] if k % 2 else fuzz.singular_jump(J, rng)
        atoms.append((float(k + 1), dq))
    interval = (0.0, float(2 * pairs + 1))
    q = MeasureMatrix.from_atoms(interval, 2, atoms)
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
            c = solution.coefficient_vector()
            scale = max(1.0, float(np.linalg.norm(uhat)))
            assert np.linalg.norm(bs.B @ c) <= LIFT_RESIDUAL_TOL * scale
            assert not c[:n].any() and not c[-n:].any()
            one_column = lift_kernel_vector(bs, uhat)[n:-n]
            assert np.linalg.norm(c[n:-n] - one_column) \
                <= LIFT_MATCH_TOL * max(1.0, float(np.linalg.norm(one_column)))
    assert counts[-2:] == [10, 20]


@pytest.mark.parametrize("tol_rank", [1e-10, 1e-3])
def test_rank_cut_applies_per_call(tol_rank):
    problem, interval = mirrored_chain()
    bs = block_system(problem, interval)
    bs.factors.kernel()  # fill the cache at the default cut first
    _assert_same_span(bs.factors.kernel(tol_rank), nullspace(bs.B, tol_rank))
    _assert_same_span(bs.factors.adjoint_kernel(tol_rank),
                      nullspace(bs.B.conj().T, tol_rank))
