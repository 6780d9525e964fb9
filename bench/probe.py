"""Machine-speed probe.

The benchmark runs on shared machines whose CPU speed drifts by tens of
percent over seconds to minutes for identical work (contention from other
tenants, frequency changes).  Process CPU time drifts with it, so neither
wall nor CPU time of a pass is steady from one run to the next.

The probe times fixed calibration kernels (a few milliseconds each) at most
every ``interval`` seconds, from the benchmark's own hooks between the
package calls of a pass.  Interpreter-bound and memory-bound code slow down
differently, so there is one kernel of each kind, weighted by the
workload's character.  ``reference_seconds`` turns an interval of a pass
into seconds at the reference speed: every stretch of work between two
probes is scaled by the local speed factor, sum(weight * ref / kernel time)
(the median over the nearest four probes), and the probes' own time is left
out.
"""
from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

_clock = time.perf_counter
_SMALL = np.arange(3.0)
_ROWS = np.linspace(0.0, 1.0, 150000).reshape(50000, 3)


def interp_kernel() -> None:
    """Interpreter-bound: NumPy calls on tiny arrays between scalar math,
    as in the energy, kernel and sum layers."""
    acc = 0.0
    for i in range(600):
        acc += float(np.linalg.norm(_SMALL * i))
        for j in range(10):
            acc += math.sqrt(j + acc % 3.0)


def array_kernel() -> None:
    """Array-bound: row norms of a 1.2 MB point array, as in the quadrature
    and mesh scans."""
    float(np.linalg.norm(_ROWS - 0.5, axis=-1).sum())


KERNELS = {"interp": interp_kernel, "array": array_kernel}


class SpeedProbe:
    """Samples the kernels' times during a pass.

    ``ref`` maps each kernel to its reference time; ``mix`` gives each
    kernel's weight in the workload's speed factor (the workload's character:
    interpreter-bound, array-bound or both)."""

    def __init__(self, ref: Dict[str, float], mix: Dict[str, float],
                 interval: float = 0.05):
        self.ref = ref
        self.mix = mix
        self.interval = interval
        self.samples: List[Tuple[float, float, float]] = []   # (start, end, factor)
        self.kernel_times: Dict[str, List[float]] = {}
        self._next = -math.inf

    def tick(self) -> None:
        if _clock() >= self._next:
            self.sample()

    def sample(self) -> None:
        t0 = _clock()
        factor = 0.0
        for name, weight in self.mix.items():
            k0 = _clock()
            KERNELS[name]()
            dt = _clock() - k0
            self.kernel_times.setdefault(name, []).append(dt)
            factor += weight * self.ref[name] / dt
        t1 = _clock()
        self.samples.append((t0, t1, factor))
        self._next = t1 + self.interval

    def anchor(self, n: int = 3) -> None:
        """Probes just outside a pass, so that its first and last stretches
        of work have probes on both sides."""
        for _ in range(n):
            self.sample()

    def median_kernel_seconds(self) -> Dict[str, float]:
        return {k: statistics.median(v) for k, v in self.kernel_times.items()}

    def probe_seconds(self, a: float, b: float) -> float:
        """Time spent in probes inside [a, b]."""
        return sum(e - s for s, e, _f in self.samples if a <= s and e <= b)

    def reference_seconds(self, a: float, b: float) -> float:
        """The work time in [a, b], less probe time, at the reference speed."""
        factors = [f for _s, _e, f in self.samples]
        bounds = [(-math.inf, -math.inf)] + [(s, e) for s, e, _f in self.samples]
        bounds.append((math.inf, math.inf))
        total = 0.0
        for k in range(len(bounds) - 1):
            g0, g1 = max(bounds[k][1], a), min(bounds[k + 1][0], b)
            if g1 > g0:   # work between probes k-1 and k
                total += (g1 - g0) * statistics.median(factors[max(0, k - 2):k + 2])
        return total
