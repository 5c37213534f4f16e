#!/usr/bin/env python3
"""measureode benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload large-partition --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload in turn
    python3 perfbench/run.py --smoke                       # self-test, about a minute

Run from anywhere inside a checkout; the package is imported from its
``src`` directory.  Each line before the last is human-readable; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of an untraced
run; ``--trace 1`` reports per-layer self times and counts from a traced run
and the tracing overhead.  See perfbench/README.md for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-small", "large-partition", "dense-sampling", "verify-fuzz")
# BLAS/OpenMP threads for every process the benchmark starts.  One thread is
# the steadiest setting on a shared two-core host, and matches the library's
# single-client use.
BLAS_THREADS = 1
# Set-up is measured in this many extra fresh processes plus the workload
# process itself; the median is reported.
SETUP_PROBES = 4
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its JSON result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at",
           repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=pinned_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI children
        proc.communicate()
        raise BenchmarkError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: "
                             f"{err.decode(errors='replace')[-2000:]}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def declared_metrics(kind: str) -> dict:
    """Metric names and units that BENCHMARK.json declares for ``kind``."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def expected_metrics(trace: int) -> dict:
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return dict(END_TO_END)


def check_names(trace: int, values: dict) -> None:
    kind = "per_layer" if trace else "end_to_end"
    declared = declared_metrics(kind)
    ours = expected_metrics(trace)
    if declared != ours:
        missing = sorted(set(declared) ^ set(ours))
        raise BenchmarkError(f"BENCHMARK.json {kind} disagrees with metrics.py "
                             f"(names or units): {missing or 'units differ'}")
    if set(values) != set(ours):
        raise BenchmarkError(f"worker printed {sorted(set(values) ^ set(ours))} "
                             f"against the declared {kind} metrics")


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 ops: int | None = None, corrupt: bool = False,
                 probes: int = SETUP_PROBES) -> dict:
    if not (ROOT / "src" / "measureode" / "__init__.py").is_file():
        raise BenchmarkError(f"no measureode sources under {ROOT / 'src'}")
    started = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(probes):
            left = DEADLINE_S - (time.monotonic() - started)
            setups.append(spawn_worker(base + ["--setup-only"], left)["setup_s"])
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    if ops is not None:
        extra += ["--ops", str(ops)]
    if corrupt:
        extra.append("--corrupt")
    result = spawn_worker(base + extra, DEADLINE_S - (time.monotonic() - started))
    metrics = result["metrics"]
    if not trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    check_names(trace, metrics)
    result["setup_samples"] = setups
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    units = expected_metrics(trace)
    host = result["host"]
    print(f"# {workload} seed={seed} trace={trace}  host: nproc={host['nproc']} "
          f"blas={host['blas']} blas_threads={host['blas_threads']} "
          f"python={host['python']} numpy={host['numpy']} scipy={host['scipy']}")
    attempted, failed = result["attempted"], len(result["failures"])
    if trace:
        print(f"#   {result['metrics']['trace.ops']:.0f} traced ops; "
              f"spans in {result['trace_file']}")
    else:
        ops = result["ops"]
        beyond = ops * (1.0 - result["tail_percentile"] / 100.0)
        wall = result["wall_clock"]
        print(f"#   {ops} ops; op_tail_s is p{result['tail_percentile']:g} with "
              f"{beyond:.1f} ops beyond it; setup_s is the median of "
              f"{len(result['setup_samples'])} fresh processes")
        print(f"#   times scaled to the reference host speed; calibration took "
              f"{wall['calibration_s'] * 1e3:.2f} ms (reference "
              f"{result['calibration_reference_s'] * 1e3:.2f} ms)")
        print(f"#   wall clock: ops_per_s {wall['ops_per_s']:.6g}, op_p50_s "
              f"{wall['op_p50_s']:.6g}, op_tail_s {wall['op_tail_s']:.6g}, "
              f"setup_s (this process) {wall['setup_s']:.6g}")
    for name, unit in units.items():
        print(f"  {name:42s} {result['metrics'][name]:.6g} {unit}")
    for line in result["failures"][:5]:
        print(f"#   FAILED {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def smoke() -> int:
    """One op of each workload: metric names match, a wrong output is caught."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 0, 0.0, trace, ops=1, probes=0)
            good = len(result["failures"]) == 0
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}: "
                  f"{len(result['metrics'])} metric names match BENCHMARK.json"
                  + ("" if good else f"; failures {result['failures']}"))
        result = run_workload(workload, 0, 0.0, 0, ops=1, corrupt=True, probes=0)
        caught = (len(result["failures"]) == 1
                  and result["metrics"]["ok_frac"] == 0.0)
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {workload}: a damaged output "
              f"counts as failed ({result['failures'][:1]})")
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: one op per workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        final = {}
        for workload in names:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            final[workload] = report(workload, args.seed, args.trace, result)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final[names[0]] if len(names) == 1 else final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
