"""Host-speed calibrations: fixed work that runs no measureode code.

The host is shared and its speed drifts, for seconds or for whole runs.
Each op is bracketed by two calibrations, and its latency is multiplied by
the calibration's reference time over their mean (``worker.scaled_latencies``).
No measureode code runs in a calibration, so a change to the program cannot
move it; it tracks only how fast the host runs that kind of work at that
moment.  Each workload picks the calibration that does the same kind of work
as its ops (``Workload.calibrate``).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy
import scipy.linalg

_CAL_RNG = numpy.random.default_rng(12345)
_CAL_SMALL = [(_CAL_RNG.standard_normal((4, 4)) + 1j * _CAL_RNG.standard_normal((4, 4))) * 0.3
              for _ in range(8)]
_CAL_LARGE = _CAL_RNG.standard_normal((60, 60)) + 1j * _CAL_RNG.standard_normal((60, 60))

# Each calibration's time on the host the bounds were set on, in its fast
# state.  They only fix the scale of the reported times.
COMPUTE_REFERENCE = 0.006
SPAWN_REFERENCE = 0.33


def compute() -> float:
    """Time a fixed mix of small-matrix numpy/scipy work and Python loops."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(120):
        m = scipy.linalg.expm(_CAL_SMALL[k % 8])
        acc += float(numpy.linalg.solve(m, _CAL_SMALL[(k + 1) % 8])[0, 0].real)
        acc += sum(i * 0.5 for i in range(200))
    numpy.linalg.svd(_CAL_LARGE)
    return time.perf_counter() - start


def spawn() -> float:
    """Time a fresh interpreter that imports numpy and scipy.linalg.

    Process start-up and imports drift apart from in-process arithmetic on
    a shared host (page faults, file reads, dynamic loading), so ops that
    start a process are scaled by this instead of ``compute``.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   check=True, timeout=120)
    return time.perf_counter() - start
