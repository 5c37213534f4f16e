"""The workload process: build one workload's inputs, then run its ops.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path.
One client, one process, closed loop: the next op starts when the previous
one has returned and been checked.  Prints one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy
import scipy

from metrics import PER_LAYER
from tracing import NullTracer, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

def quantile(values, percent: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * percent / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Phase:
    """Closed-loop run of whole op cycles until ``seconds`` have passed.

    With ``calibrated`` every op is bracketed by the workload's calibration;
    the time spent calibrating is kept out of the wall-clock ops/s.
    """

    def __init__(self, workload, tracer, seconds: float | None,
                 max_ops: int | None, corrupt: bool, first_op: int = 0,
                 calibrated: bool = True):
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.failures: list[str] = []
        probe_before = tracer.probe_seconds()
        op = first_op
        cycle = 0
        start = time.perf_counter()
        before = workload.calibrate() if calibrated else 0.0
        calibrating = before
        done = False
        while not done:
            for desc in workload.cycle(cycle):
                tracer.op = op
                latency = None
                t = time.perf_counter()
                try:
                    with tracer.span("op"):
                        out = workload.run(desc, tracer)
                    latency = time.perf_counter() - t
                    if corrupt:
                        out = workload.corrupt(desc, out)
                    workload.check(desc, out)
                except Exception as exc:  # a failed op is counted, never dropped
                    if latency is None:
                        latency = time.perf_counter() - t
                    self.failures.append(f"op {op}: {type(exc).__name__}: {exc}")
                self.latencies.append(latency)
                if calibrated:
                    after = workload.calibrate()
                    calibrating += after
                    self.calibrations.append(0.5 * (before + after))
                    before = after
                op += 1
                if max_ops is not None and op - first_op >= max_ops:
                    done = True
                    break
            cycle += 1
            if max_ops is None and time.perf_counter() - start >= seconds:
                done = True
        self.wall = time.perf_counter() - start
        self.ops = op - first_op
        self.probe = tracer.probe_seconds() - probe_before
        self.calibrating = calibrating

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.wall - self.probe - self.calibrating)


def scaled_latencies(phase: Phase, reference: float) -> list[float]:
    """Op latencies scaled to the reference host speed.

    The host's speed drifts by up to ~1.9x, for seconds or whole runs.
    Each op is bracketed by two calibrations, and its latency is multiplied
    by the calibration's reference time over their mean.
    """
    return [latency * reference / cal
            for latency, cal in zip(phase.latencies, phase.calibrations)]


def end_to_end(phase: Phase, workload, setup_s: float, rss_mb: float) -> dict:
    lat = scaled_latencies(phase, workload.cal_reference)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": quantile(lat, 50.0),
        "op_tail_s": quantile(lat, workload.tail_percentile),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - len(phase.failures) / phase.ops,
    }


def wall_clock(phase: Phase, workload, setup_s: float) -> dict:
    """The same figures unscaled, from the wall clock, for reading."""
    lat = phase.latencies
    return {"setup_s": setup_s, "ops_per_s": phase.ops_per_s,
            "op_p50_s": quantile(lat, 50.0),
            "op_tail_s": quantile(lat, workload.tail_percentile),
            "calibration_s": quantile(phase.calibrations, 50.0)}


def per_layer(base: Phase, traced: Phase, tracer: Tracer) -> dict:
    self_times = tracer.self_times()
    calls = tracer.calls()
    ops = traced.ops
    trace = {
        "ops": ops,
        "untraced_ops_per_s": base.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "overhead_ops_per_s": traced.ops_per_s - base.ops_per_s,
        "spans_per_op": sum(1 for s in tracer.spans if s[4] >= 0) / ops,
    }
    out = {}
    for name, _, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            value = self_times.get(source[1], 0.0) / ops
        elif kind == "per_call":
            value = self_times.get(source[1], 0.0) / max(1, calls.get(source[1], 0))
        elif kind == "count":
            value = tracer.counts.get(source[1], 0.0) / ops
        elif kind == "per_sample":
            samples = tracer.counts.get(source[2], 0.0)
            value = self_times.get(source[1], 0.0) / samples if samples else 0.0
        else:
            value = trace[source[1]]
        out[name] = value
    return out


def host_record() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before the spawn")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of --seconds")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before its check (self-test)")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{time.monotonic_ns()}"
    workdir.mkdir()
    try:
        tracer = Tracer() if args.trace else NullTracer()
        workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        workload.calibrate()  # the first call also pays for lazy imports inside scipy
        scaled_setup_s = setup_s * workload.cal_reference / workload.calibrate()
        if args.setup_only:
            print(json.dumps({"setup_s": scaled_setup_s}))
            return 0

        result = {"setup_s": scaled_setup_s, "host": host_record(),
                  "calibration_reference_s": workload.cal_reference,
                  "tail_percentile": workload.tail_percentile}
        if args.trace:
            half = args.seconds / 2.0
            base = Phase(workload, NullTracer(), half, args.ops, args.corrupt,
                         calibrated=False)
            traced = Phase(workload, tracer, half, args.ops, args.corrupt,
                           first_op=base.ops, calibrated=False)
            phases = [base, traced]
            result["metrics"] = per_layer(base, traced, tracer)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_file)
            result["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            phase = Phase(workload, NullTracer(), args.seconds, args.ops, args.corrupt)
            phases = [phase]
            result["metrics"] = end_to_end(phase, workload, scaled_setup_s,
                                           workload.peak_rss_mb())
            result["wall_clock"] = wall_clock(phase, workload, setup_s)
            result["ops"] = phase.ops
        result["attempted"] = sum(p.ops for p in phases)
        result["failures"] = [f for p in phases for f in p.failures]
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
