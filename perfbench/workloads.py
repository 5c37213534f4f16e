"""The four workloads: inputs, one op, and the check each op's output must pass.

Each workload builds its inputs in ``__init__`` (that is set-up time) and
then serves ops from a fixed cycle.  The worker runs whole cycles, so every
run measures the same mix of op shapes whatever the seed; the seed changes
the problems, not their sizes.  ``run`` is the timed op; ``check`` raises
``CheckFailed`` (or anything else) when the output is wrong, and ``corrupt``
damages an output on purpose for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from measureode import (OrthogonalityCertificate, PiecewiseSolution,
                        assemble, classify_jumps, compact_support_solutions,
                        find_singular_points, fundamental_matrix, kernel_K0,
                        lift_kernel_vector, load_problem, make_partition,
                        moment_vectors, nullspace, run_suites, solve_system,
                        t0_solve, validate, weighted_norm)
from measureode import fuzz, verify
from measureode.blocksystem import DEFAULT_TOL_RANK, DEFAULT_TOL_SING
from measureode.fileio import render_report
from measureode.propagation import w_pairing
from measureode.solutions import DEFAULT_TOL_SOLVE

import calibration
import problems

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

CLI_MODES = ("validate", "analyze", "solve", "kernel", "compact", "verify")
# Defect allowed in v* J u along a subinterval, relative to |u| |v|.
CONSERVATION_TOL = 1e-8
# Residual |B c| allowed for a lifted kernel vector, relative to |uhat|.
LIFT_RESIDUAL_TOL = 1e-7


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _system_counts(tr, problem, partition, bs) -> None:
    """Structure counts of one block system (computed from sizes, not timed)."""
    if not tr.enabled:
        return
    tr.count("blocksystem.subintervals", partition.count + 1)
    # Computed: bytes of the arrays the system owns (views are not counted).
    tr.count("blocksystem.dense_bytes",
             sum(v.nbytes for v in vars(bs).values()
                 if isinstance(v, np.ndarray) and v.base is None))
    tr.count("propagation.gaps", exponentiated_gaps(problem, partition.points))


def exponentiated_gaps(problem, points) -> int:
    """Computed: gaps between q-structure nodes, one matrix exponential each."""
    q = problem.q
    structure = np.concatenate([q.atom_positions, q.breakpoints])
    total = 0
    for lo, hi in zip(points[:-1], points[1:]):
        inside = structure[(structure > lo) & (structure < hi)]
        total += np.unique(inside).size + 1
    return total


class Workload:
    """Inputs built in ``__init__``; ops served from ``self._cycle``."""

    _cycle: list
    # Host-speed calibration bracketing each op, and its reference time.
    calibrate = staticmethod(calibration.compute)
    cal_reference = calibration.COMPUTE_REFERENCE

    def cycle(self, index: int) -> list:
        """The ops of cycle ``index``."""
        return self._cycle

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def run_child(cmd: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess, int]:
    """Run ``cmd`` to completion; return its result and its peak RSS in KiB.

    ``os.wait4`` gives this one child's resource usage, where
    ``RUSAGE_CHILDREN`` would mix in every other child of the process.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (subprocess.CompletedProcess(cmd, proc.returncode, out.read(), err.read()),
                usage.ru_maxrss)


# -- cli-small --------------------------------------------------------------------


class CliSmall(Workload):
    """One fresh ``python -m measureode.cli <mode>`` process per op.

    A cycle runs the six modes on each of the two shipped instances and two
    seeded fuzz instances of fixed shape, so every run measures the same mix
    of ops.  Ops are scaled by a fresh-interpreter calibration, which drifts
    with process start-up as in-process arithmetic does not.
    """

    name = "cli-small"
    # A cycle has 24 ops: p58 leaves 10 of them beyond the tail.
    tail_percentile = 58.0
    calibrate = staticmethod(calibration.spawn)
    cal_reference = calibration.SPAWN_REFERENCE
    # (n, partition size, singular atoms) of the fuzz instances.
    RANDOM_SHAPES = ((2, 3, 1), (3, 4, 2))

    def __init__(self, seed: int, workdir: Path, tr):
        from measureode import cli  # the in-process probe target
        self._cli = cli
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        # Expected exit codes: instance_a is the obstructed instance whose
        # solve is inconsistent; every other shipped mode exits 0.
        self.files = [(DATA / "instance_a.json", {"solve": 1}),
                      (DATA / "instance_b.json", {})]
        for i, (n, size, singular) in enumerate(self.RANDOM_SHAPES):
            instance = draw_instance(rng, tr, n, size, singular, zero_q=False)
            path = workdir / f"random_{i}.json"
            path.write_text(problems.problem_file(instance), encoding="utf-8")
            self.files.insert(2 * i + 1, (path, {"solve": _solve_exit(instance)}))
        self.seen: dict[tuple[str, str], str] = {}
        self.child_rss_kib = 0
        self._cycle = [(mode, path, expected.get(mode, 0))
                       for path, expected in self.files for mode in CLI_MODES]

    def run(self, desc, tr):
        mode, path, _ = desc
        argv = [mode, "--input", str(path)]
        if mode == "verify":
            argv += ["--random", "0"]
        with tr.span("cli.process"):
            proc, rss = run_child([sys.executable, "-m", "measureode.cli", *argv],
                                  self.workdir)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        if tr.enabled:
            self._probes(tr, mode, path, argv, proc.stdout)
        return proc

    def _probes(self, tr, mode, path, argv, stdout: bytes) -> None:
        with tr.span("cli.startup", probe=True):
            subprocess.run([sys.executable, "-c", "import measureode"],
                           cwd=self.workdir, timeout=120, check=True)
        target = self.workdir / f"report_{mode}.json"
        with tr.span(f"cli.main_{mode}", probe=True):
            self._cli.main(argv + ["--output", str(target)])
        with tr.span("fileio.load_problem", probe=True):
            parsed = load_problem(str(path))
        with tr.span("coefficients.validate", probe=True):
            validate(parsed.problem)
        report = json.loads(stdout)
        with tr.span("fileio.render_report", probe=True):
            render_report(report)
        tr.count("fileio.report_bytes", len(stdout))

    def check(self, desc, proc) -> None:
        mode, path, expected = desc
        _require(proc.returncode == expected,
                 f"exit code {proc.returncode}, expected {expected}: "
                 f"{proc.stderr.decode(errors='replace')[-300:]}")
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"report is not valid JSON: {exc}") from exc
        _require(report.get("command") == mode, "report names another command")
        _require(report.get("passed") is (expected == 0),
                 f"report says passed={report.get('passed')}")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        first = self.seen.setdefault((mode, str(path)), digest)
        _require(digest == first, "report differs from the first one for this input")

    def corrupt(self, desc, proc):
        proc.stdout = proc.stdout[:-2]
        return proc

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of the op processes (not the calibrations')."""
        return self.child_rss_kib / 1024.0


def draw_instance(rng, tr, n: int, size: int, singular: int, zero_q: bool):
    """A fuzz instance of system size ``n`` and partition size ``size``.

    The fuzzer picks the partition size itself, so draws of another size are
    set aside.
    """
    while True:
        with tr.span("fuzz.random_instance"):
            inst = fuzz.random_instance(rng, n=n, singular_count=singular,
                                        zero_q_density=zero_q)
        points = set(find_singular_points(inst.problem, inst.window))
        if max(2, len(points | set(inst.extra_points))) == size:
            return inst


def _solve_exit(instance) -> int:
    """Exit code ``solve`` must give: 0 when the coupling system is consistent."""
    singular = find_singular_points(instance.problem, instance.window)
    partition = make_partition(instance.window, singular, instance.extra_points)
    bs = assemble(instance.problem, partition)
    f = instance.f.refined_against(instance.problem.w)
    return 0 if solve_system(bs, moment_vectors(bs, f)).consistent else 1


# -- large-partition --------------------------------------------------------------


class LargePartition(Workload):
    """Full in-process analysis of one chain problem per op.

    The cycle mixes random chains (trivial adjoint kernel) and mirrored
    chains (N/2 compactly supported solutions, one lift each) at n = 2 and
    n = 4, with the large-N members dominating the time.
    """

    name = "large-partition"
    tail_percentile = 65.0
    # (kind, n, N).  An odd number of chains of distinct cost keeps the
    # median and the tail inside one chain's latencies, not between two.
    CYCLE = (("random", 2, 160), ("mirrored", 2, 80), ("random", 2, 100),
             ("random", 4, 60), ("mirrored", 4, 40), ("random", 2, 40),
             ("mirrored", 2, 20))

    def __init__(self, seed: int, workdir: Path, tr):
        rng = np.random.default_rng(seed)
        self.chains = [problems.chain(rng, N, n, kind) for kind, n, N in self.CYCLE]
        self._cycle = list(range(len(self.chains)))

    def run(self, i, tr):
        chain = self.chains[i]
        problem, window, f = chain.problem, chain.window, chain.f
        with tr.span("blocksystem.classify_jumps"):
            reports = classify_jumps(problem, window)
        singular = [r.position for r in reports if r.status == "singular"]
        with tr.span("blocksystem.make_partition"):
            partition = make_partition(window, singular)
        with tr.span("blocksystem.assemble"):
            bs = assemble(problem, partition)
        with tr.span("blocksystem.moment_vectors"):
            mv = moment_vectors(bs, f)
        with tr.span("solutions.solve_system"):
            solved = solve_system(bs, mv)
        with tr.span("blocksystem.nullspace"):
            adjoint = nullspace(bs.B.conj().T)
        with tr.span("solutions.compact_support_solutions"):
            compact = compact_support_solutions(bs)
        lifted = None
        if adjoint.shape[1]:
            with tr.span("solutions.lift_kernel_vector"):
                lifted = lift_kernel_vector(bs, adjoint[:, 0])
        with tr.span("relations.t0_solve"):
            t0 = t0_solve(problem, window, f)
        with tr.span("relations.weighted_norm"):
            norms = [weighted_norm(problem.w, u, window) for u in solved.kernel_basis]
        out = {"bs": bs, "kernel_dim": solved.kernel_dimension,
               "adjoint": adjoint, "compact": len(compact), "lifted": lifted,
               "t0": t0, "norms": norms}
        if tr.enabled:
            _system_counts(tr, problem, partition, bs)
            certificate = isinstance(t0, OrthogonalityCertificate)
            tr.count("solutions.kernel_dim", solved.kernel_dimension)
            tr.count("solutions.adjoint_kernel_dim", adjoint.shape[1])
            # Computed: one lift per compact solution, the harness's own
            # lift, and the certificate's lift inside t0_solve.
            tr.count("solutions.lifts", len(compact) + (lifted is not None)
                     + certificate)
            tr.count("relations.certificates", certificate)
        return out

    def check(self, i, out) -> None:
        chain = self.chains[i]
        n, expected = chain.n, chain.expected_adjoint
        adjoint_dim = out["adjoint"].shape[1]
        _require(adjoint_dim == expected,
                 f"dim ker B* = {adjoint_dim}, construction gives {expected}")
        _require(out["kernel_dim"] == n + expected,
                 f"dim ker B = {out['kernel_dim']}, construction gives {n + expected}")
        _require(out["kernel_dim"] == n + adjoint_dim,
                 "dim ker B != n + dim ker B*")
        _require(out["compact"] == adjoint_dim,
                 f"{out['compact']} compact solutions for a {adjoint_dim}-dim ker B*")
        if out["lifted"] is not None:
            uhat = out["adjoint"][:, 0]
            residual = float(np.linalg.norm(out["bs"].B @ out["lifted"]))
            _require(residual <= LIFT_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(uhat))),
                     f"lifted vector leaves coupling residual {residual:.3e}")
        _require(isinstance(out["t0"], (PiecewiseSolution, OrthogonalityCertificate)),
                 "t0_solve returned neither a solution nor a certificate")
        norms = np.asarray(out["norms"], dtype=float)
        _require(bool(np.all(np.isfinite(norms)) and np.all(norms >= 0.0)),
                 "a kernel w-norm is negative or not finite")

    def corrupt(self, i, out):
        out["kernel_dim"] += 1
        return out


# -- dense-sampling ---------------------------------------------------------------


class DenseSampling(Workload):
    """Sample one balanced solution on a dense grid, plus its w-norm, per op.

    Small partitions with many w- and f-breakpoints, so propagation (the
    per-sample inhomogeneous integrals and exponentials) does the work.
    Each problem contributes its particular solution and two kernel
    elements to the cycle.
    """

    name = "dense-sampling"
    tail_percentile = 70.0
    GRID = 1000
    # (n, N, w pieces, f pieces)
    PROBLEMS = ((2, 4, 24, 16), (3, 6, 32, 48), (2, 10, 48, 128))
    KERNEL_OPS = 2

    def __init__(self, seed: int, workdir: Path, tr):
        rng = np.random.default_rng(seed)
        self.chains = [problems.chain(rng, N, n, "random", q_pieces=3,
                                      w_pieces=wp, f_pieces=fp, w_atom_every=1)
                       for n, N, wp, fp in self.PROBLEMS]
        self.grids = []
        self.gaps = []
        for c in self.chains:
            lo, hi = c.window
            # Cell midpoints of an odd-length window never land on an atom
            # (integers) or a w-atom (half-integers).
            self.grids.append(lo + (np.arange(self.GRID) + 0.5) * (hi - lo) / self.GRID)
            points = np.concatenate([[lo], c.problem.q.atom_positions, [hi]])
            self.gaps.append(exponentiated_gaps(c.problem, points))
        self.homogeneous: dict[int, np.ndarray] = {}
        self._cycle = [(i, kind) for i in range(len(self.chains))
                       for kind in ["particular", *range(self.KERNEL_OPS)]]

    def run(self, desc, tr):
        i, kind = desc
        c = self.chains[i]
        problem, window = c.problem, c.window
        if kind == "particular":
            with tr.span("blocksystem.classify_jumps"):
                reports = classify_jumps(problem, window)
            singular = [r.position for r in reports if r.status == "singular"]
            with tr.span("blocksystem.make_partition"):
                partition = make_partition(window, singular)
            with tr.span("blocksystem.assemble"):
                bs = assemble(problem, partition)
            with tr.span("blocksystem.moment_vectors"):
                mv = moment_vectors(bs, c.f)
            with tr.span("solutions.solve_system"):
                solved = solve_system(bs, mv)
            solution = solved.particular
            if solution is None:
                raise CheckFailed("the coupling system is inconsistent")
            dim = solved.kernel_dimension
            _system_counts(tr, problem, partition, bs)
            if tr.enabled:
                pts = partition.points
                for j in range(pts.size - 1):
                    with tr.span("propagation.fundamental_matrix", probe=True):
                        fundamental_matrix(problem, (float(pts[j]), float(pts[j + 1])))
        else:
            with tr.span("relations.kernel_K0"):
                elements = kernel_K0(problem, window)
            dim = len(elements)
            if kind >= dim:
                raise CheckFailed(f"only {dim} kernel elements")
            solution = elements[kind].solution
            if tr.enabled:
                tr.count("propagation.gaps", self.gaps[i])
        grid = self.grids[i]
        with tr.span("propagation.evaluate"):
            samples = np.array([solution.evaluate(float(x)) for x in grid])
        if kind == "particular":
            with tr.span("relations.weighted_norm"):
                norm = weighted_norm(problem.w, solution, window)
        else:
            norm = elements[kind].w_norm
        if tr.enabled:
            tr.count("propagation.samples", grid.size)
            with tr.span("propagation.w_pairing", probe=True):
                w_pairing(problem.w, solution, solution, window)
        return {"samples": samples, "norm": norm, "dim": dim}

    def check(self, desc, out) -> None:
        i, kind = desc
        c = self.chains[i]
        samples = out["samples"]
        _require(bool(np.all(np.isfinite(samples))), "a sample is not finite")
        _require(bool(np.isfinite(out["norm"]) and out["norm"] >= 0.0),
                 f"w-norm {out['norm']} is negative or not finite")
        _require(out["dim"] == c.n + c.expected_adjoint,
                 f"dim ker B = {out['dim']}, construction gives {c.n}")
        if kind == "particular":
            return
        pairs = [(samples, samples)]
        if kind > 0 and i in self.homogeneous:
            pairs.append((self.homogeneous[i], samples))
        self.homogeneous[i] = samples
        J = c.problem.J
        lo, hi = c.window
        points = np.concatenate([[lo], c.problem.q.atom_positions, [hi]])
        cell = np.searchsorted(points, self.grids[i])
        for v, u in pairs:
            form = np.einsum("gi,ij,gj->g", v.conj(), J, u)
            scale = max(1.0, float(np.max(np.linalg.norm(v, axis=1)
                                          * np.linalg.norm(u, axis=1))))
            for k in np.unique(cell):
                values = form[cell == k]
                drift = float(np.max(np.abs(values - values[0])))
                _require(drift <= CONSERVATION_TOL * scale,
                         f"v* J u drifts by {drift:.3e} across subinterval {k}")

    def corrupt(self, desc, out):
        out["samples"][0, 0] = np.nan
        return out


# -- verify-fuzz ------------------------------------------------------------------


class VerifyFuzz(Workload):
    """``verify.run_suites`` with all six suites on one fuzz instance per op.

    The pool is stratified by shape: the same number of instances for every
    system size n = 1..3 and partition size 2..5, half of them with a zero
    q-density, so every seed draws the same mix of problem shapes.  In the traced run the op
    calls the six suites directly, in ``run_suites`` order, with the same
    random stream, so each suite gets its own span.
    """

    name = "verify-fuzz"
    tail_percentile = 90.0
    PER_SHAPE = 8
    SAMPLES = 64   # run_suites' default grid per fundamental matrix

    def __init__(self, seed: int, workdir: Path, tr):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.pool = []
        for n in (1, 2, 3):
            for size in (2, 3, 4, 5):
                for r in range(self.PER_SHAPE):
                    self.pool.append(draw_instance(rng, tr, n, size, r % min(4, size + 1),
                                                   zero_q=bool(r % 2)))
        self._cycle = list(range(len(self.pool)))

    def run(self, k, tr):
        inst = self.pool[k]
        # A fresh stream per instance: every cycle repeats the same checks.
        rng = np.random.default_rng([self.seed, k])
        if not tr.enabled:
            return run_suites(inst.problem, inst.window, inst.f,
                              inst.extra_points, verify.SUITE_NAMES, rng,
                              self.SAMPLES)
        rows = self._traced_suites(inst, rng, tr)
        tr.count("verify.checks", len(rows))
        return rows

    def _traced_suites(self, inst, rng, tr):
        problem, window, extra = inst.problem, inst.window, inst.extra_points
        tol_sing, tol_rank, tol_solve = DEFAULT_TOL_SING, DEFAULT_TOL_RANK, DEFAULT_TOL_SOLVE
        tag = "input"
        with tr.span("blocksystem.classify_jumps"):
            reports = classify_jumps(problem, window, tol_sing)
        singular = [r.position for r in reports if r.status == "singular"]
        with tr.span("blocksystem.make_partition"):
            partition = make_partition(window, singular, extra)
        with tr.span("blocksystem.assemble"):
            bs = assemble(problem, partition, tol_sing)
        _system_counts(tr, problem, partition, bs)
        f = inst.f.refined_against(problem.w)
        rows = []
        with tr.span("verify.suite_cbbc"):
            rows += verify.suite_cbbc(bs, tag, tol_rank)
        with tr.span("verify.suite_wronskian"):
            rows += verify.suite_wronskian(bs, self.SAMPLES, tag)
        with tr.span("verify.suite_lift"):
            rows += verify.suite_lift(bs, tag, tol_solve, tol_rank)
        with tr.span("verify.suite_functional"):
            rows += verify.suite_functional(bs, f, rng, tag, tol_solve, tol_rank)
        with tr.span("verify.suite_lagrange"):
            g = fuzz.random_f(rng, problem, window).refined_against(problem.w)
            rows += verify.suite_lagrange(bs, f, g, rng, tag, tol_solve, tol_rank)
        with tr.span("verify.suite_t0"):
            rows += verify.suite_t0(bs, f, extra, rng, tag, tol_sing, tol_rank,
                                    tol_solve)
        return rows

    def check(self, k, rows) -> None:
        _require(len(rows) > 0, "no check rows")
        failed = [row.name for row in rows if not row.passed]
        _require(not failed, f"failed rows: {failed}")

    def corrupt(self, k, rows):
        first = rows[0]
        return [type(first)(first.name, first.measured, first.tolerance, False),
                *rows[1:]]


WORKLOADS = {cls.name: cls for cls in (CliSmall, LargePartition, DenseSampling,
                                       VerifyFuzz)}
