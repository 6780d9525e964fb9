"""In-memory span recording for the benchmark.

Spans are recorded from the benchmark's own code, around calls into the
package's public functions.  A span holds its name, start and end
(``time.perf_counter`` seconds), the id of the span that was open when it
started, and an optional point count.  Spans stay in memory until the pass
ends and are then written out in one file.

``NullTracer`` has the same interface and records nothing; the untraced runs
use it, so the code they execute differs from the traced runs only in the
bookkeeping and, untraced, the speed probe's samples.
"""
from __future__ import annotations

import json
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

import numpy as np

_clock = time.perf_counter


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer._open(self.name, 0)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


class Tracer:
    """Records spans ``[name, start, end, parent, points]`` and named counters."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def _open(self, name: str, points: int) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, points])
        self._stack.append(sid)
        self.spans[sid][1] = _clock()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = _clock()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span per call; the span's point count is the number
        of (..., 3) points in the call's argument."""
        open_, close = self._open, self._close

        def traced(arr):
            sid = open_(name, np.size(arr) // 3)
            try:
                return fn(arr)
            finally:
                close(sid)

        return traced

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {"columns": ["name", "start", "end", "parent", "points"],
                   "spans": self.spans, "counters": self.counters}
        payload.update(extra or {})
        with open(path, "w") as fh:
            json.dump(payload, fh)


class NullTracer:
    """Tracer interface that records nothing.  With a speed probe (see
    probe.py), each span entry and wrapped call lets the probe sample."""

    _null = nullcontext()

    def __init__(self, probe=None):
        self.probe = probe

    def span(self, name: str):
        if self.probe is not None:
            self.probe.tick()
        return self._null

    def count(self, name: str, value: float) -> None:
        pass

    def wrap(self, name: str, fn: Callable) -> Callable:
        if self.probe is None:
            return fn
        tick = self.probe.tick

        def probed(arr):
            tick()
            return fn(arr)

        return probed


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and points.

    A span's self time is its duration minus the durations of its direct
    children; spans are recorded from one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _pts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for sid, (name, start, end, _parent, pts) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "points": 0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[sid]
        s["points"] += pts
    return out
