"""Batch command line: validate, analyze, solve, kernel, compact, verify.

Reads a JSON problem file, runs the requested analysis, and emits a JSON
report (stdout, or ``--output``).  Reports are byte-deterministic for fixed
input, seed, and version.  Exit codes: 0 all checks pass, 1 a check failed
(among them ``solve``'s consistency and the "propagator conditioned" row of
``solve``, ``kernel`` and ``compact``) or the result is not finite (no report),
2 malformed input or an unwritable ``--output`` (a missing directory is
caught before the input is read).  Each mode's handler imports the modules
it runs, so a process loads no more of the package than its mode needs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import __version__
from .coefficients import DEFAULT_VALIDATE_TOL, SUITE_NAMES, Check, Tolerances, validate
from .errors import MeasureOdeError, MissingRHS, ParseError
from .fileio import (ParsedProblem, check_tolerance, load_problem, render_report,
                     vector_json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measureode",
        description="first-order systems with measure coefficients")
    parser.add_argument("mode", choices=_HANDLERS)
    parser.add_argument("--input", help="problem file (JSON)")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (default 0)")
    parser.add_argument("--samples", type=int, default=101,
                        help="grid points per sampled solution (default 101)")
    parser.add_argument("--tol-sing", type=float, default=None,
                        help="singular-jump threshold override")
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="rank-decision threshold override")
    parser.add_argument("--checks", default=",".join(SUITE_NAMES),
                        help="comma-separated verify suites")
    parser.add_argument("--random", type=int, default=0, metavar="N",
                        help="additionally verify N seeded random instances")
    return parser


def _tolerances(parsed: ParsedProblem | None, args) -> Tolerances:
    """The file's tolerances (or the defaults), with the command-line overrides."""
    tols = parsed.tolerances if parsed is not None else Tolerances()
    return tols._replace(
        sing=tols.sing if args.tol_sing is None else check_tolerance(args.tol_sing, "--tol-sing"),
        rank=tols.rank if args.tol_rank is None else check_tolerance(args.tol_rank, "--tol-rank"))


def _check_rows(checks) -> list[dict]:
    return [{"name": c.name, "defect": float(c.measured),
             "tolerance": float(c.tolerance), "pass": bool(c.passed)}
            for c in checks]


def _sampled(solution, grid) -> list[dict]:
    return [{"x": float(x), "value": vector_json(value)}
            for x, value in zip(grid, solution.evaluate_many(grid))]


def _partition_json(partition) -> dict:
    return {
        "points": [float(x) for x in partition.points],
        "interior": [float(x) for x in partition.interior],
        "singular": [bool(s) for s in partition.singular],
    }


def _conditioned(defect: float) -> Check:
    """The "propagator conditioned" row: ``BlockSystem.propagator_defect`` against
    the identity tolerance.  When it fails the rank decisions are not to be trusted."""
    from .blocksystem import TOL_IDENTITY
    return Check("propagator conditioned", defect, TOL_IDENTITY, defect <= TOL_IDENTITY)


def cmd_validate(parsed: ParsedProblem, args, tols):
    report = validate(parsed.problem, DEFAULT_VALIDATE_TOL)
    results = {"n": parsed.problem.n,
               "interval": [float(v) for v in parsed.problem.interval]}
    return results, list(report.checks), report.passed


def cmd_analyze(parsed: ParsedProblem, args, tols):
    from .blocksystem import _partition_step
    jumps, partition = _partition_step(parsed.problem, parsed.window, parsed.forced_points,
                                       tols.sing)
    results = {
        "jumps": [{"position": float(j.position),
                   "sigma_min": float(j.sigma_min),
                   "sigma_max": float(j.sigma_max),
                   "status": j.status} for j in jumps],
        "singular_points": [float(x) for x in partition.interior[partition.singular]],
        "partition": _partition_json(partition),
        "warnings": [f"jump at {j.position} is near-singular "
                     f"(sigma_min={j.sigma_min:.3e})"
                     for j in jumps if j.status == "borderline"],
    }
    return results, [], True


def cmd_solve(parsed: ParsedProblem, args, tols):
    if parsed.f is None:
        raise MissingRHS("solve needs an f block in the problem file")
    from .blocksystem import build_system, moment_vectors
    from .solutions import solve_system
    bs = build_system(parsed.problem, parsed.window, parsed.forced_points, tols.sing)
    mv = moment_vectors(bs, parsed.f)
    outcome = solve_system(bs, mv, tols)
    grid = np.linspace(*parsed.window, args.samples)
    results = {
        "partition": _partition_json(bs.partition),
        "consistent": outcome.consistent,
        "residual": float(outcome.residual),
        "kernel_dimension": outcome.kernel_dimension,
        "particular": _sampled(outcome.particular, grid)
        if outcome.consistent else None,
        "kernel_samples": [_sampled(sol, grid) for sol in outcome.kernel_basis],
    }
    rows = [Check("solve consistent", float(outcome.residual), outcome.bound,
                  outcome.consistent), _conditioned(outcome.propagator_defect)]
    return results, rows, all(row.passed for row in rows)


def cmd_kernel(parsed: ParsedProblem, args, tols):
    from .relations import kernel_K0
    elements = kernel_K0(parsed.problem, parsed.window, parsed.forced_points, tols)
    grid = np.linspace(*parsed.window, args.samples)
    results = {
        "dimension": len(elements),
        "elements": [{"w_norm": float(el.w_norm),
                      "degenerate": bool(el.degenerate),
                      "samples": _sampled(el.solution, grid)}
                     for el in elements],
    }
    row = _conditioned(elements.propagator_defect)
    return results, [row], row.passed


def cmd_compact(parsed: ParsedProblem, args, tols):
    from .blocksystem import build_system
    from .solutions import _compact_lifts
    bs = build_system(parsed.problem, parsed.window, parsed.forced_points, tols.sing)
    lifts = _compact_lifts(bs, tols)
    grid = np.linspace(*parsed.window, args.samples)
    results = {
        "partition": _partition_json(bs.partition),
        "adjoint_kernel_dimension": len(lifts),
        "solutions": [{"endpoint_defect": defect,
                       "samples": _sampled(sol, grid)}
                      for sol, defect in lifts],
    }
    row = _conditioned(bs.propagator_defect)
    return results, [row], row.passed


def _missing_directory(path: str) -> str | None:
    """Why ``path`` cannot be written if its directory is missing, else None."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(parent):
        return None
    return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)


def _cannot_write(path: str, reason: str) -> int:
    print(f"error: cannot write {path}: {reason}", file=sys.stderr)
    return 2


def _parse_checks(text: str) -> tuple[str, ...]:
    """The suites a --checks value selects, once each, in SUITE_NAMES order."""
    requested = {name for name in text.split(",") if name}
    unknown = sorted(requested - set(SUITE_NAMES))
    if unknown:
        raise ParseError(f"unknown check suite '{unknown[0]}'", "--checks")
    selected = tuple(name for name in SUITE_NAMES if name in requested)
    if not selected:
        raise ParseError("no check suite selected", "--checks")
    return selected


def cmd_verify(parsed: ParsedProblem | None, args, tols):
    from .verify import run_random_suites, run_suites
    selected = args.checks  # parsed by main
    rng = np.random.default_rng(args.seed)
    rows = []
    if parsed is not None:
        rows.extend(run_suites(parsed.problem, parsed.window, parsed.f,
                               parsed.forced_points, selected, rng,
                               args.samples, tols, tag="input"))
    rows.extend(run_random_suites(rng, args.random, selected, args.samples, tols))
    results = {"suites": list(selected), "random_instances": args.random}
    return results, rows, all(row.passed for row in rows)


_HANDLERS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "solve": cmd_solve,
    "kernel": cmd_kernel,
    "compact": cmd_compact,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.samples < 2:
            raise ParseError("--samples must be at least 2", "--samples")
        if args.random < 0:
            raise ParseError("--random must not be negative", "--random")
        if args.seed < 0:
            raise ParseError("--seed must not be negative", "--seed")
        args.checks = _parse_checks(args.checks)
        reason = args.output and _missing_directory(args.output)
        if reason:
            return _cannot_write(args.output, reason)
        parsed = None
        if args.input is not None:
            parsed = load_problem(args.input)
        elif args.mode != "verify" or args.random <= 0:
            raise ParseError("--input is required", args.mode)

        tols = _tolerances(parsed, args)
        checks: list = []
        prevalidated = True
        if parsed is not None and args.mode != "validate":
            report = validate(parsed.problem, DEFAULT_VALIDATE_TOL)
            checks.extend(report.checks)
            prevalidated = report.passed

        if prevalidated:
            # An overflow is not printed as a numpy warning: a NaN or inf it
            # leaves in the results is caught when the report is rendered.
            with np.errstate(all="ignore"):
                results, rows, passed = _HANDLERS[args.mode](parsed, args, tols)
            checks.extend(rows)
        else:
            results, passed = {"skipped": "validation failed"}, False
    except (ParseError, MissingRHS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeasureOdeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "command": args.mode,
        "version": __version__,
        "seed": int(args.seed),
        "input": parsed.raw if parsed is not None else None,
        "results": results,
        "checks": _check_rows(checks),
        "passed": bool(passed),
    }
    try:
        text = render_report(report)
    except ValueError:  # a NaN or inf, which JSON cannot carry
        print("error: the result holds a non-finite number", file=sys.stderr)
        return 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _cannot_write(args.output, exc.strerror)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
