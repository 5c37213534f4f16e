"""Batch command line: validate, analyze, solve, kernel, compact, verify.

Reads a JSON problem file, runs the requested analysis, and emits a JSON
report (stdout, or ``--output``).  Reports are byte-deterministic for fixed
input, seed, and version.  Exit codes: 0 all checks pass, 1 a check failed
or the linear system is inconsistent, 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .blocksystem import (DEFAULT_TOL_RANK, DEFAULT_TOL_SING, build_system,
                          classify_jumps, make_partition, moment_vectors)
from .coefficients import DEFAULT_VALIDATE_TOL, Check, validate
from .errors import MeasureOdeError, MissingRHS, ParseError
from .fileio import (ParsedProblem, check_tolerance, load_problem, render_report,
                     vector_json)
from .relations import kernel_K0
from .solutions import DEFAULT_TOL_SOLVE, _compact_lifts, solve_system
from .verify import SUITE_NAMES, run_random_suites, run_suites

_MODES = ("validate", "analyze", "solve", "kernel", "compact", "verify")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measureode",
        description="first-order systems with measure coefficients")
    parser.add_argument("mode", choices=_MODES)
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


def _tolerances(parsed: ParsedProblem | None, args) -> dict[str, float]:
    tols = {"tol_sing": DEFAULT_TOL_SING, "tol_rank": DEFAULT_TOL_RANK,
            "tol_solve": DEFAULT_TOL_SOLVE, **(parsed.tolerances if parsed else {})}
    for key in ("tol_sing", "tol_rank"):
        value = getattr(args, key)
        if value is not None:
            tols[key] = check_tolerance(value, "--" + key.replace("_", "-"))
    return tols


def _check_rows(checks) -> list[dict]:
    return [{"name": c.name, "defect": float(c.measured),
             "tolerance": float(c.tolerance), "pass": bool(c.passed)}
            for c in checks]


def _sampled(solution, grid) -> list[dict]:
    return [{"x": float(x),
             "value": vector_json(solution.evaluate(float(x), "balanced"))}
            for x in grid]


def _partition_json(partition) -> dict:
    return {
        "points": [float(x) for x in partition.points],
        "interior": [float(x) for x in partition.interior],
        "singular": [bool(s) for s in partition.singular],
    }


def cmd_validate(parsed: ParsedProblem, args, tols):
    report = validate(parsed.problem, DEFAULT_VALIDATE_TOL)
    results = {"n": parsed.problem.n,
               "interval": [float(v) for v in parsed.problem.interval]}
    return results, list(report.checks), report.passed


def cmd_analyze(parsed: ParsedProblem, args, tols):
    jumps = classify_jumps(parsed.problem, parsed.window, tols["tol_sing"])
    singular = [j.position for j in jumps if j.status == "singular"]
    partition = make_partition(parsed.window, singular, parsed.forced_points)
    results = {
        "jumps": [{"position": float(j.position),
                   "sigma_min": float(j.sigma_min),
                   "sigma_max": float(j.sigma_max),
                   "status": j.status} for j in jumps],
        "singular_points": [float(x) for x in singular],
        "partition": _partition_json(partition),
        "warnings": [f"jump at {j.position} is near-singular "
                     f"(sigma_min={j.sigma_min:.3e})"
                     for j in jumps if j.status == "borderline"],
    }
    return results, [], True


def cmd_solve(parsed: ParsedProblem, args, tols):
    if parsed.f is None:
        raise MissingRHS("solve needs an f block in the problem file")
    bs = build_system(parsed.problem, parsed.window, parsed.forced_points,
                      tols["tol_sing"])
    f = parsed.f.refined_against(parsed.problem.w)
    mv = moment_vectors(bs, f)
    outcome = solve_system(bs, mv, tols["tol_solve"], tols["tol_rank"])
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
    row = Check("solve consistent", float(outcome.residual), outcome.bound,
                outcome.consistent)
    return results, [row], outcome.consistent


def cmd_kernel(parsed: ParsedProblem, args, tols):
    elements = kernel_K0(parsed.problem, parsed.window, parsed.forced_points,
                         tols["tol_sing"], tols["tol_rank"])
    grid = np.linspace(*parsed.window, args.samples)
    results = {
        "dimension": len(elements),
        "elements": [{"w_norm": float(el.w_norm),
                      "degenerate": bool(el.degenerate),
                      "samples": _sampled(el.solution, grid)}
                     for el in elements],
    }
    return results, [], True


def cmd_compact(parsed: ParsedProblem, args, tols):
    bs = build_system(parsed.problem, parsed.window, parsed.forced_points,
                      tols["tol_sing"])
    lifts = _compact_lifts(bs, tols["tol_solve"], tols["tol_rank"])
    grid = np.linspace(*parsed.window, args.samples)
    results = {
        "partition": _partition_json(bs.partition),
        "adjoint_kernel_dimension": len(lifts),
        "solutions": [{"endpoint_defect": defect,
                       "samples": _sampled(sol, grid)}
                      for sol, defect in lifts],
    }
    return results, [], True


def cmd_verify(parsed: ParsedProblem | None, args, tols):
    selected = tuple(name for name in args.checks.split(",") if name)
    unknown = sorted(set(selected) - set(SUITE_NAMES))
    if unknown:
        raise ParseError(f"unknown check suite '{unknown[0]}'", "--checks")
    rng = np.random.default_rng(args.seed)
    rows = []
    if parsed is not None:
        rows.extend(run_suites(parsed.problem, parsed.window, parsed.f,
                               parsed.forced_points, selected, rng,
                               args.samples, tols["tol_sing"],
                               tols["tol_rank"], tols["tol_solve"],
                               tag="input"))
    rows.extend(run_random_suites(rng, args.random, selected, args.samples,
                                  tols["tol_sing"], tols["tol_rank"], tols["tol_solve"]))
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
            results, rows, passed = _HANDLERS[args.mode](parsed, args, tols)
            checks.extend(rows)
        else:
            results, passed = {"skipped": "validation failed"}, False
    except (ParseError, MissingRHS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MeasureOdeError as exc:
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
    text = render_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
