"""One pass of one workload, in a fresh process (started by run.py).

Protocol on standard output: the line ``READY <before> <after> <probe_s>``
once the package is imported and the seeded inputs are built (the times of
a calibration kernel run just before and after that, and the time spent in
both), then, unless ``--setup-only``, one JSON line with the pass's time,
peak RSS, output fingerprint, check results and, when traced, the per-span
summary.  Spans are written to ``--trace-out``.

An untraced pass is timed in seconds at the reference machine speed (see
probe.py); a traced pass, and with ``--wall-only`` its untraced partner, in
wall seconds.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback


def interpreter_kernel() -> float:
    """Median wall time of five runs of a pure-Python calibration kernel.
    It needs no import, so the worker can time it before importing the
    package: set-up is scaled to the reference speed with it."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(15000):
            acc += math.sqrt(i + acc % 3.0) * (i % 5)
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--wall-only", action="store_true",
                    help="untraced pass timed in wall seconds, without the speed probe")
    args = ap.parse_args()
    t0 = time.perf_counter()
    before = interpreter_kernel()
    probe_s = time.perf_counter() - t0

    import checks
    import probe
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed, args.out_dir)
    t0 = time.perf_counter()
    after = interpreter_kernel()
    probe_s += time.perf_counter() - t0
    print(f"READY {before!r} {after!r} {probe_s!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace_out:
        tr, speed = spans.Tracer(), None
    elif args.wall_only:
        tr, speed = spans.NullTracer(), None
    else:
        speed = probe.SpeedProbe(checks.load_reference()["probe_kernel_s"], wl.probe_mix)
        tr = spans.NullTracer(speed)

    def seconds(a: float, b: float) -> float:
        """Seconds at the reference speed, or wall seconds without the probe."""
        return speed.reference_seconds(a, b) if speed else b - a

    result = {}
    try:
        if speed:
            speed.anchor()
        start = time.perf_counter()
        raw = wl.run(inputs, tr)
        end = time.perf_counter()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["pass_s"] = seconds(start, end)
        result["wall_s"] = end - start
        if speed:
            speed.anchor()
            result["wall_s"] -= speed.probe_seconds(start, end)
            result["probe_kernel_s"] = speed.median_kernel_seconds()
        # optional sub-intervals of the pass: name -> [(start, end, calls)]
        result["parts"] = {name: {"s": sum(seconds(a, b) for a, b, _n in runs),
                                  "calls": sum(n for _a, _b, n in runs)}
                           for name, runs in raw.get("timed", {}).items()}
        result["fingerprint"] = checks.fingerprint(wl.outputs(raw))
        if args.check:
            ref = checks.load_reference()
            result["checks"] = [list(c) for c in wl.check(inputs, raw, ref)]
    except Exception:  # the pass failed; the runner counts it as a failed check
        result["error"] = traceback.format_exc()
        sys.stderr.write(result["error"])
    if args.trace_out:
        tr.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
        result["spans"] = spans.summarize(tr.spans)
        result["counters"] = tr.counters
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
