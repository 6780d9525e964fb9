"""Layered benchmark of the necklace package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

    # every workload, end-to-end metrics
    for w in model reduced nodal identities; do
        python3 bench/run.py --workload $w --seed 1 --seconds 10 --trace 0
    done

    # self-tests of the checks
    PYTHONPATH=src python3 -m pytest -q bench/tests

Run from the repository root; the package is imported from ``src/``.  Every
pass of a workload runs in a fresh single-threaded worker process, so the
package's ``lru_cache``s start cold as they do for a command-line user.
Passes repeat, one at a time (closed loop, one client), until ``--seconds``
have elapsed; a workload whose pass takes longer runs one pass.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median, over
several starts, of the time from starting a worker to its inputs being
ready), ``pass_s`` (median time of the workload's timed pass) and
``peak_rss_mb`` (median peak resident memory of a pass).  The two times are
in seconds at a fixed reference machine speed: shared machines drift in speed
by tens of percent within a minute, so each stretch of work is scaled by
calibration kernels timed in the same process just before, after and
between its package calls (probe.py).  Wall times are kept in the run record.

``--trace 1`` alternates untraced and traced passes, both timed in wall
seconds without the probe, and reports the per-layer metrics from the traced
passes' spans (0 for a layer the workload does not call), plus
``trace_overhead``, the ratio of the median traced to the median untraced
pass time.

The first pass of a run checks its outputs against ``reference.json`` and
the acceptance-criterion bounds; every later pass must compute bit-identical
outputs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (checks) and ``metrics``.  Spans and a
record of the run are written under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
INTERPRETER_REF = load_reference()["interpreter_kernel_s"]

# one line each: what a pass does
WORKLOADS = {
    "model": "m=16 model constants: build_crown, u_star_profile, "
             "radial_nodal_root, fd_gradient, c_star(scale=1)",
    "reduced": "minimize_psi(leading) and seeded psi_full/psi_leading batches "
               "at K=64,128,256 from recorded constants",
    "nodal": "nodal_mesh + gradient_min_on_nodal at res 96 and 192, then "
             "necklace nodal at its defaults",
    "identities": "gamma_bb/h0e_bb, kernel_grad/kernel_hess, t_a, sum_direct "
                  "(float and multiprecision), s1_contour, necklace "
                  "sums/ansatz/kernels",
}

THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "NECKLACE_THREADS": "1",
}

SETUP_STARTS = 3        # set-up-only worker starts per untraced run
MAX_PASSES = 50
RUN_BUDGET_S = 170.0    # the whole run ends within this

# per-layer metric -> (unit, span or counter name, statistic over spans)
LAYERS: Dict[str, Tuple[str, str, str]] = {
    "energy.c_star_s": ("s", "energy.c_star", "total_s"),
    "energy.c_star_self_s": ("s", "energy.c_star", "self_s"),
    "crown.u_star_s": ("s", "crown.u_star", "total_s"),
    "crown.u_star_calls": ("count", "crown.u_star", "calls"),
    "crown.u_star_points": ("count", "crown.u_star", "points"),
    "nodal.radial_nodal_root_s": ("s", "nodal.radial_nodal_root", "total_s"),
    "nodal.nodal_mesh_s.res96": ("s", "nodal.nodal_mesh.res96", "total_s"),
    "nodal.nodal_mesh_s.res192": ("s", "nodal.nodal_mesh.res192", "total_s"),
    "nodal.points.res96": ("count", "nodal.points.res96", "counter"),
    "nodal.points.res192": ("count", "nodal.points.res192", "counter"),
    "nodal.gradient_min_s": ("s", "nodal.gradient_min_on_nodal", "total_s"),
    "energy.minimize_psi_s.K64": ("s", "energy.minimize_psi.K64", "total_s"),
    "energy.minimize_psi_s.K128": ("s", "energy.minimize_psi.K128", "total_s"),
    "energy.minimize_psi_s.K256": ("s", "energy.minimize_psi.K256", "total_s"),
    "energy.psi_leading_us": ("us", "energy.psi_leading", "mean_us"),
    "energy.psi_full_us.K64": ("us", "energy.psi_full.K64", "mean_us"),
    "energy.psi_full_us.K128": ("us", "energy.psi_full.K128", "mean_us"),
    "energy.psi_full_us.K256": ("us", "energy.psi_full.K256", "mean_us"),
    "kernels.gamma_bb_us": ("us", "kernels.gamma_bb", "mean_us"),
    "kernels.h0e_bb_us": ("us", "kernels.h0e_bb", "mean_us"),
    "kernels.kernel_grad_us": ("us", "kernels.kernel_grad", "mean_us"),
    "kernels.kernel_hess_us": ("us", "kernels.kernel_hess", "mean_us"),
    "kernels.t_a_us": ("us", "kernels.t_a", "mean_us"),
    "trigsums.sum_direct_float_us": ("us", "trigsums.sum_direct.float", "mean_us"),
    "trigsums.sum_direct_mp_us": ("us", "trigsums.sum_direct.mp", "mean_us"),
    "trigsums.s1_contour_us": ("us", "trigsums.s1_contour", "mean_us"),
    "cli.nodal_s": ("s", "cli.nodal", "total_s"),
}


class RunError(Exception):
    pass


def machine() -> Dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "thread_pins": THREAD_PINS}


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_worker(args: argparse.Namespace, deadline: float, *, check=False,
                 wall_only=False, trace_out: Optional[Path] = None) -> dict:
    """Run one pass in a fresh worker and return its result."""
    cmd = worker_cmd(args) + (["--check"] if check else [])
    if wall_only:
        cmd.append("--wall-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = spawn(cmd, deadline)
    out = communicate(proc, deadline)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) != 2 or not lines[0].startswith("READY"):
        raise RunError(f"worker for {args.workload} failed (exit {proc.returncode})")
    return json.loads(lines[1])


def setup_seconds(args: argparse.Namespace, deadline: float) -> float:
    """Time from starting a worker to its inputs being ready, in seconds at
    the reference speed, by the calibration kernel the worker times before
    and after its imports."""
    t0 = time.perf_counter()
    proc = spawn(worker_cmd(args) + ["--setup-only"], deadline)
    ready = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    communicate(proc, deadline)
    if proc.returncode != 0 or len(ready) != 4 or ready[0] != "READY":
        raise RunError(f"worker for {args.workload} failed during set-up")
    before, after, probe_s = map(float, ready[1:])
    return (wall - probe_s) * INTERPRETER_REF / (0.5 * (before + after))


def worker_cmd(args: argparse.Namespace) -> List[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out-dir", str(OUT)]


def spawn(cmd: List[str], deadline: float) -> subprocess.Popen:
    if time.perf_counter() >= deadline:
        raise RunError("out of time before starting a worker")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)


def communicate(proc: subprocess.Popen, deadline: float) -> str:
    """The rest of the worker's output; the worker is killed at the deadline."""
    try:
        return proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker killed at the run's deadline") from None


def layer_values(result: dict) -> Dict[str, float]:
    spans, counters = result["spans"], result["counters"]
    out = {}
    for name, (_unit, key, stat) in LAYERS.items():
        if stat == "counter":
            out[name] = float(counters.get(key, 0))
            continue
        s = spans.get(key)
        if s is None:
            out[name] = 0.0          # the workload does not call this layer
        elif stat == "mean_us":
            out[name] = 1e6 * s["total_s"] / s["calls"]
        else:
            out[name] = float(s[stat])
    return out


def check_passes(plain: List[dict], traced: List[dict]) -> List[list]:
    """The first pass's checks, plus: no pass raised, and every later pass,
    traced or not, computed outputs bit-identical to the first pass's."""
    checks = list(plain[0].get("checks", []))
    runs = [(f"pass[{i}]", r) for i, r in enumerate(plain)]
    runs += [(f"traced[{i}]", r) for i, r in enumerate(traced)]
    for label, r in runs:
        if "error" in r:
            checks.append([f"{label}.completed", False, r["error"].strip().splitlines()[-1]])
        elif r is not plain[0]:
            same = r["fingerprint"] == plain[0].get("fingerprint")
            checks.append([f"{label}.same_outputs", same,
                           "outputs bit-identical to pass[0]" if same else
                           "outputs differ from pass[0]"])
    return checks


def measure(args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else [setup_seconds(args, deadline)
                                   for _ in range(SETUP_STARTS)]
    plain: List[dict] = []
    traced: List[dict] = []
    t_measure = time.perf_counter()
    longest = 0.0
    for i in range(MAX_PASSES):
        t_pass = time.perf_counter()
        plain.append(start_worker(args, deadline, check=(i == 0), wall_only=args.trace))
        if args.trace:
            trace_out = OUT / f"trace-{args.workload}-{i}.json"
            traced.append(start_worker(args, deadline, trace_out=trace_out))
        now = time.perf_counter()
        longest = max(longest, now - t_pass)
        if now - t_measure >= args.seconds or now + 1.5 * longest > deadline:
            break
    checklist = check_passes(plain, traced)
    if any("pass_s" not in r for r in plain + traced):
        return {"checks": checklist, "setup": setup, "plain": plain, "traced": traced}
    med = statistics.median
    if args.trace:
        values = [layer_values(r) for r in traced]
        metrics = {name: {"value": med(v[name] for v in values), "unit": unit}
                   for name, (unit, _k, _s) in LAYERS.items()}
        metrics["trace_overhead"] = {
            "value": med(r["wall_s"] for r in traced) / med(r["wall_s"] for r in plain),
            "unit": "ratio"}
    else:
        metrics = {"setup_s": {"value": med(setup), "unit": "s"},
                   "pass_s": {"value": med(r["pass_s"] for r in plain), "unit": "s"},
                   "peak_rss_mb": {"value": med(r["rss_mb"] for r in plain), "unit": "MB"}}
    parts = {f"{k}_s": med(r["parts"][k]["s"] for r in plain) for k in plain[0]["parts"]}
    parts.update({f"{k}_per_s": med(r["parts"][k]["calls"] / r["parts"][k]["s"] for r in plain)
                  for k in plain[0]["parts"]})
    return {"checks": checklist, "metrics": metrics, "parts": parts, "setup": setup,
            "plain": plain, "traced": traced}


# the summary: the named end-to-end times of each workload (model_s, minimize_s,
# psi_full_per_s, nodal_s, identities_s), fail_frac, then the JSON metrics
def summary_lines(workload: str, rec: dict) -> List[str]:
    m, parts = rec["metrics"], rec["parts"]
    named = {"model": "model_s", "nodal": "nodal_s", "identities": "identities_s"}
    rows = []
    if "pass_s" in m:
        if workload in named:
            rows.append((named[workload], m["pass_s"]["value"], "s", "lower"))
        if workload == "reduced":
            rows.append(("minimize_s", parts["minimize_psi_s"], "s", "lower"))
            rows.append(("psi_full_per_s", parts["psi_full_per_s"], "eval/s", "higher"))
    checks = rec["checks"]
    failed = sum(1 for c in checks if not c[1])
    rows.append(("fail_frac", failed / len(checks), "failed/attempted", "lower"))
    out = [f"{name:<32} {value:>14.6g} {unit:<16} ({better} is better)"
           for name, value, unit, better in rows]
    out += [f"{name:<32} {v['value']:>14.6g} {v['unit']}" for name, v in m.items()]
    out += [f"FAILED {c[0]}: {c[2]}" for c in checks if not c[1]]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "necklace" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'necklace'}; "
                         "run from a checkout of the repository\n")
        return 2
    try:
        rec = measure(args)
    except RunError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if "metrics" not in rec:
        for c in rec["checks"]:
            if not c[1]:
                sys.stderr.write(f"FAILED {c[0]}: {c[2]}\n")
        sys.stderr.write("error: a pass did not complete; no metrics\n")
        return 1
    info = machine()
    with open(OUT / f"run-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": info, **rec}, fh, indent=1)
    print(f"# workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"# seed {args.seed}, {len(rec['plain'])} untraced and "
          f"{len(rec['traced'])} traced passes, {len(rec['setup'])} set-up-only starts")
    print("# machine " + json.dumps(info))
    for line in summary_lines(args.workload, rec):
        print(line)
    checks = rec["checks"]
    failed = sum(1 for c in checks if not c[1])
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
