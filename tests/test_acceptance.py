"""Acceptance battery: one criterion per test, one printed verdict line each.

Each test prints ``[PASS]``/``[FAIL] criterion NN: ...`` on the real stdout so
the battery reads as a checklist even under captured pytest output.
"""

import functools
import json
import time

import numpy as np
import pytest
from scipy.integrate import quad_vec

from measureode.blocksystem import (assemble, classify_jumps,
                                    find_singular_points, make_partition,
                                    moment_vectors, nullspace)
from measureode.cli import main
from measureode.coefficients import MeasureMatrix, Problem, Tolerances
from measureode.fuzz import random_f, random_instance
from measureode.propagation import (atom_transfer, product_integral,
                                    segment_exponential, segment_integral)
from measureode.relations import (OrthogonalityCertificate, inner_product,
                                  kernel_K0, lagrange_check, t0_solve,
                                  weighted_norm)
from measureode.solutions import (compact_support_solutions,
                                  functional_identity_defect, solve_system)
from measureode.verify import _solution_with_rhs, orthogonal_rhs

from conftest import INTERVAL, J2, SWAP2, block_system
from test_propagation import series_expm

TOL_RANK = 1e-10
FUZZ_COUNT = 200
PAIR_COUNT = 100


@pytest.fixture
def report(capsys):
    """Print one [PASS]/[FAIL] line per criterion on the real stdout."""

    def _report(num: int, description: str, passed: bool,
                detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {num:02d}: {description}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert passed, line

    return _report


@functools.lru_cache(maxsize=1)
def _fuzz_systems():
    rng = np.random.default_rng(20260819)
    systems = []
    while len(systems) < FUZZ_COUNT:
        inst = random_instance(rng, with_f=False)
        systems.append((inst, block_system(inst.problem, inst.window,
                                           inst.extra_points)))
    return systems


def _sup_norm(f) -> float:
    norms = [float(np.linalg.norm(v)) for v in f.piece_values]
    norms += [float(np.linalg.norm(v)) for v in f.atom_value_map().values()]
    return max(norms, default=0.0)


def _instance_a(second_atom):
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [(-0.5, SWAP2), (0.5, second_atom)])
    w = MeasureMatrix.lebesgue(INTERVAL, np.eye(2, dtype=complex))
    return Problem(J2, q, w)


def test_criterion_01_coupling_commutation(report):
    started = time.perf_counter()
    worst_full = worst_reduced = 0.0
    for inst, bs in _fuzz_systems():
        n, N = bs.n, bs.N
        expected = np.zeros((n * (N + 1), n * (N + 1)), dtype=complex)
        expected[:n, :n] = -inst.problem.J
        expected[-n:, -n:] = inst.problem.J
        worst_full = max(worst_full, np.linalg.norm(
            bs.C.conj().T @ bs.B - bs.B.conj().T @ bs.C - expected))
        worst_reduced = max(worst_reduced, np.linalg.norm(
            bs.C_m.conj().T @ bs.B - bs.B_m.conj().T @ bs.C))
    elapsed = time.perf_counter() - started
    ok = worst_full <= 1e-10 and worst_reduced <= 1e-10 and elapsed < 10.0
    report(1, f"coupling commutation identities on {FUZZ_COUNT} instances",
            ok, f"full {worst_full:.2e}, reduced {worst_reduced:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_02_kernel_bookkeeping(report):
    floor_ok = ledger_ok = True
    for _, bs in _fuzz_systems():
        dim_ker = nullspace(bs.B, TOL_RANK).shape[1]
        dim_adj = nullspace(bs.B.conj().T, TOL_RANK).shape[1]
        floor_ok = floor_ok and dim_ker >= bs.n
        ledger_ok = ledger_ok and dim_ker == bs.n + dim_adj
    report(2, "kernel dimension bookkeeping on the same fuzz set",
            floor_ok and ledger_ok,
            f"floor {'ok' if floor_ok else 'violated'}, "
            f"ledger {'ok' if ledger_ok else 'violated'}")


def test_criterion_03_wronskian_conservation(report):
    worst_fund = worst_transfer = 0.0
    transfers_seen = 0
    for inst, bs in _fuzz_systems():
        J = inst.problem.J
        for U in bs.fundamentals:
            for x in np.linspace(U.lo, U.hi, 64):
                val = U.evaluate(float(x), "left")
                worst_fund = max(worst_fund,
                                 np.linalg.norm(val.conj().T @ J @ val - J))
        for jump in classify_jumps(inst.problem, inst.window):
            if jump.status != "regular":
                continue
            T = atom_transfer(J, inst.problem.q.jump(jump.position))
            transfers_seen += 1
            worst_transfer = max(worst_transfer,
                                 np.linalg.norm(T.conj().T @ J @ T - J))
    ok = worst_fund <= 1e-10 and worst_transfer <= 1e-10 and transfers_seen > 0
    report(3, "indefinite form conserved along fundamentals and transfers",
            ok, f"fundamental {worst_fund:.2e}, transfer {worst_transfer:.2e} "
                f"over {transfers_seen} atoms")


def test_criterion_04_shear_transfer_oracle(report):
    worst = 0.0
    for beta in (-2.0, -0.5, 0.5, 3.0):
        dq = np.diag([0.0, -beta]).astype(complex)
        got = atom_transfer(J2, dq)
        worst = max(worst, np.linalg.norm(
            got - np.array([[1.0, beta], [0.0, 1.0]])))
    report(4, "rank-one atom produces the shear transfer [[1,b],[0,1]]",
            worst <= 1e-12, f"worst defect {worst:.2e}")


def test_criterion_05_obstructed_instance_end_to_end(report):
    problem = _instance_a(-SWAP2)
    singular = find_singular_points(problem, INTERVAL)
    bs = block_system(problem)
    dim_ker = nullspace(bs.B, TOL_RANK).shape[1]
    dim_adj = nullspace(bs.B.conj().T, TOL_RANK).shape[1]
    solutions = compact_support_solutions(bs)

    ok = list(singular) == [-0.5, 0.5] and dim_ker == 3 and dim_adj == 1 \
        and len(solutions) == 1
    detail = (f"singular {list(singular)}, dim ker {dim_ker}, "
              f"adjoint {dim_adj}, {len(solutions)} compact solution(s)")
    if ok:
        sol = solutions[0]
        inner = max(np.linalg.norm(sol.evaluate(x) - [0.0, 2.0])
                    for x in (-0.3, 0.0, 0.4))
        outer = max(np.linalg.norm(sol.evaluate(x)) for x in (-0.8, 0.9))
        edges = max(np.linalg.norm(sol.evaluate(x) - [0.0, 1.0])
                    for x in (-0.5, 0.5))
        jump = max(np.linalg.norm(
            problem.b_plus(x) @ sol.evaluate(x, "right")
            - problem.b_minus(x) @ sol.evaluate(x, "left"))
            for x in (-0.5, 0.5))
        ok = inner <= 1e-12 and outer == 0.0 and edges <= 1e-12 \
            and jump <= 1e-10
        detail += (f"; values {inner:.1e}, outside {outer:.1e}, "
                   f"edges {edges:.1e}, jump defect {jump:.1e}")
    report(5, "two mirrored singular atoms carry one compact solution",
            ok, detail)


def test_criterion_06_unobstructed_twin(report):
    bs = block_system(_instance_a(SWAP2))
    dim_ker = nullspace(bs.B, TOL_RANK).shape[1]
    solutions = compact_support_solutions(bs)
    report(6, "repeated-atom twin has no compact solution",
            dim_ker == 2 and solutions == [],
            f"dim ker {dim_ker}, {len(solutions)} compact solution(s)")


def test_criterion_07_functional_identity(report):
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    checked = 0
    while checked < PAIR_COUNT:
        inst = random_instance(rng)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        basis = nullspace(bs.B_m.conj().T, TOL_RANK)
        if basis.shape[1] == 0:
            continue
        f = inst.f.refined_against(inst.problem.w)
        uhat = basis @ (rng.standard_normal(basis.shape[1])
                        + 1j * rng.standard_normal(basis.shape[1]))
        defect = functional_identity_defect(bs, moment_vectors(bs, f), uhat)
        bound = 1e-9 * (1.0 + _sup_norm(f)) * (1.0 + np.linalg.norm(uhat))
        worst_ratio = max(worst_ratio, defect / bound)
        checked += 1
    report(7, f"moment functional matches the weighted integral on "
               f"{checked} instances", worst_ratio <= 1.0,
            f"worst defect at {worst_ratio:.3f} of the allowance")


def test_criterion_08_endpoint_solve_and_certificates(report):
    rng = np.random.default_rng(8)
    solved = certified = 0
    worst_endpoint = worst_orth = 0.0
    attempts = 0
    while solved < PAIR_COUNT and attempts < 4 * PAIR_COUNT:
        attempts += 1
        inst = random_instance(rng, with_f=False)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        f = orthogonal_rhs(rng, bs, TOL_RANK)
        if _sup_norm(f) <= 1e-12:
            continue
        result = t0_solve(inst.problem, inst.window, f, inst.extra_points)
        if isinstance(result, OrthogonalityCertificate):
            worst_endpoint = np.inf
            break
        lo, hi = inst.window
        worst_endpoint = max(worst_endpoint,
                             np.linalg.norm(result.evaluate(lo, "right"))
                             + np.linalg.norm(result.evaluate(hi, "left")))
        fn = weighted_norm(inst.problem.w, f, inst.window)
        for el in kernel_K0(inst.problem, inst.window, inst.extra_points):
            pairing = abs(inner_product(inst.problem.w, el.solution, f,
                                        inst.window))
            worst_orth = max(worst_orth,
                             pairing / (1e-8 * (1.0 + fn * el.w_norm)))
        solved += 1

    attempts = 0
    missing_certificate = False
    while certified < PAIR_COUNT and attempts < 4 * PAIR_COUNT:
        attempts += 1
        inst = random_instance(rng)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        f = inst.f.refined_against(inst.problem.w)
        functional = moment_vectors(bs, f).functional
        basis = nullspace(bs.B_m.conj().T, TOL_RANK)
        projection = basis @ (basis.conj().T @ functional)
        if np.linalg.norm(projection) <= 1e-6:
            continue
        result = t0_solve(inst.problem, inst.window, f, inst.extra_points)
        if not isinstance(result, OrthogonalityCertificate) \
                or not abs(result.pairing) > 1e-13:
            missing_certificate = True
            break
        certified += 1

    ok = solved >= PAIR_COUNT and certified >= PAIR_COUNT \
        and worst_endpoint <= 1e-9 and worst_orth <= 1.0 \
        and not missing_certificate
    report(8, "endpoint-vanishing solves and nonzero certificates "
               "in both directions", ok,
            f"{solved} solves (endpoints {worst_endpoint:.2e}, orthogonality "
            f"at {worst_orth:.3f} of allowance), {certified} certificates")


def test_criterion_09_lagrange_identity(report):
    rng = np.random.default_rng(9)
    tols = Tolerances(rank=TOL_RANK, solve=1e-9)
    worst = 0.0
    for _ in range(PAIR_COUNT):
        inst = random_instance(rng)
        bs = block_system(inst.problem, inst.window, inst.extra_points)
        f = inst.f.refined_against(inst.problem.w)
        g = random_f(rng, inst.problem, inst.window).refined_against(
            inst.problem.w)
        u, fu = _solution_with_rhs(bs, f, rng, tols)
        v, gv = _solution_with_rhs(bs, g, rng, tols)
        check = lagrange_check(inst.problem, inst.window, (u, fu), (v, gv))
        worst = max(worst, check.defect)

    mirror = _instance_a(-SWAP2)
    bs = block_system(mirror)
    (compact,) = compact_support_solutions(bs)
    worst_compact = 0.0
    for _ in range(10):
        g = random_f(rng, mirror, INTERVAL).refined_against(mirror.w)
        v, gv = _solution_with_rhs(bs, g, rng, tols)
        check = lagrange_check(mirror, INTERVAL, (compact, None), (v, gv))
        worst_compact = max(worst_compact, check.defect, abs(check.lhs))
    ok = worst <= 1e-8 and worst_compact <= 1e-8
    report(9, f"integration-by-parts identity on {PAIR_COUNT} pairs plus "
               "compactly supported factors", ok,
            f"defect {worst:.2e}, compact {worst_compact:.2e}")


def test_criterion_10_numerical_kernels(report):
    rng = np.random.default_rng(10)
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        J = np.triu(rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)), 1)
        J = J - J.conj().T + 1j * np.diag(rng.uniform(0.5, 1.5, n))
        q0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q0 = (q0 + q0.conj().T) / 2
        M = -np.linalg.solve(J, q0)
        dx = float(rng.uniform(0.2, 5.0)) / max(1.0, np.linalg.norm(M))
        got = segment_exponential(J, q0, dx)
        oracle = series_expm(M * dx)
        worst_rel = max(worst_rel,
                        np.linalg.norm(got - oracle) / np.linalg.norm(oracle))

    worst_quad = 0.0
    for k in range(50):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dx = float(rng.uniform(0.1, 1.5))
        if k % 2 == 0:
            got = segment_integral(A, dx)
            oracle, _ = quad_vec(lambda s: _expm_series(A, s), 0.0, dx,
                                 epsabs=1e-12, epsrel=1e-12)
        else:
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            got = product_integral(A.conj().T, X, B, dx)
            oracle, _ = quad_vec(
                lambda s: _expm_series(A.conj().T, s) @ X @ _expm_series(B, s),
                0.0, dx, epsabs=1e-12, epsrel=1e-12)
        worst_quad = max(worst_quad, np.linalg.norm(got - oracle))
    ok = worst_rel <= 1e-12 and worst_quad <= 1e-8
    report(10, "matrix exponentials and augmented integrals match "
                "independent oracles", ok,
            f"exponential {worst_rel:.2e} relative, integrals "
            f"{worst_quad:.2e}")


def _expm_series(A, s):
    return series_expm(np.asarray(A, dtype=complex) * s)


def test_criterion_11_cli_determinism(report, tmp_path):
    data = __file__.rsplit("/", 1)[0] + "/data"
    blobs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        code = main(["verify", "--input", f"{data}/instance_a.json",
                     "--random", "2", "--seed", "11", "--output", str(target)])
        blobs.append((code, target.read_bytes()))
    identical = blobs[0] == blobs[1] and blobs[0][0] == 0

    codes = (
        main(["validate", "--input", f"{data}/instance_a.json",
              "--output", str(tmp_path / "a.json")]),
        main(["solve", "--input", f"{data}/instance_a.json",
              "--output", str(tmp_path / "b.json")]),
        main(["analyze", "--input", f"{data}/malformed.json"]),
    )
    contract = codes == (0, 1, 2)
    rendered = json.loads((tmp_path / "one.json").read_text())
    ok = identical and contract and rendered["passed"] is True
    report(11, "reports are byte-deterministic and exit codes follow "
                "the contract", ok,
            f"identical={identical}, exit codes {codes}")


def test_the_propagator_row_passes_on_the_fuzz_set():
    # The "propagator conditioned" row of kernel, solve and compact on every
    # acceptance fuzz system: well below its tolerance, through both library
    # routes that expose it.
    from measureode.blocksystem import TOL_IDENTITY
    worst = 0.0
    for inst, bs in _fuzz_systems():
        defect = solve_system(bs).propagator_defect
        assert defect == bs.propagator_defect
        worst = max(worst, defect)
    assert worst <= 1e-14 < TOL_IDENTITY
    inst, bs = _fuzz_systems()[0]
    assert kernel_K0(inst.problem, inst.window, inst.extra_points).propagator_defect \
        == bs.propagator_defect
