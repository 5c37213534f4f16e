"""In-memory spans and counters around the harness's calls into measureode.

A span records its name, start, end, parent span and op id.  Spans stay in a
list until the run ends; ``layer_summary`` then derives each name's self time
(its duration minus the time its child spans cover) and the counters.
Calls are sequential, so child spans never overlap and "covered" is a sum.

A span marked ``probe`` times a call the harness makes only in the traced
run, to reach a layer the op itself uses only indirectly.  Probe time is
kept out of the traced ops/s, so the traced-minus-untraced difference is the
cost of tracing itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing switched off: spans and counters cost one call and do nothing."""

    enabled = False
    op = -1

    def span(self, name: str, probe: bool = False):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass

    def probe_seconds(self) -> float:
        return 0.0


class Tracer:
    enabled = True

    def __init__(self):
        # (name, start, end, parent index or -1, op id, probe)
        self.spans: list[tuple[str, float, float, int, int, bool]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1          # -1 marks set-up work outside any op
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op, probe))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, probe)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def probe_seconds(self) -> float:
        """Time inside top-level probe spans of ops (not of set-up)."""
        return sum(end - start for name, start, end, parent, op, probe
                   in self.spans if probe and op >= 0
                   and (parent < 0 or not self.spans[parent][5]))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, probe in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op, probe) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def dump(self, path) -> None:
        """Write every span and counter as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "op": op, "probe": probe}
                for name, start, end, parent, op, probe in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "counts": dict(self.counts)}, handle)
