"""The benchmark's workloads.

Each workload has these parts:

- ``prepare(seed, out_dir)`` builds the inputs (set-up, counted in setup_s);
- ``run(inputs, tracer)`` is the timed pass: calls into the package's public
  functions, with a span around each layer call.  It may return, under
  ``"timed"``, sub-intervals of the pass as ``name -> [(start, end, calls)]``;
- ``check(inputs, raw, ref)`` checks the pass's outputs against the recorded
  references and the acceptance-criterion bounds, outside the timed region;
- ``outputs(raw)`` selects what ``checks.fingerprint`` covers, so that every
  pass of a run can be required to compute the same thing, traced or not;
- ``probe_mix`` weights the speed probe's kernels by the pass's character.
"""
from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple

import mpmath as mp
import numpy as np

from necklace import cli
from necklace.crown import build_crown, fd_gradient, u_star_profile
from necklace.energy import (
    ReducedConfig,
    ReducedPoint,
    c_star,
    eps_star,
    minimize_psi,
    psi_full,
    psi_leading,
)
from necklace.geometry import Point3, SectorConfig
from necklace.kernels import (
    PlacedBubble,
    gamma_bb,
    gamma_direct,
    h0e,
    h0e_bb,
    kernel_grad,
    kernel_hess,
    place_bubble,
    t_a,
)
from necklace.nodal import gradient_min_on_nodal, nodal_mesh, radial_nodal_root
from necklace.trigsums import SumSpec, s1_contour, sum_direct

import checks as C
from checks import Check

_clock = time.perf_counter

M = 16            # ring size of the default model
DELTA = 0.1       # box parameter of the reduced energy
LAM = 1.0
KS = (64, 128, 256)


def _profile(params, tr):
    """The u_star profile with its field routed through the tracer.  Tag,
    params and features are kept, so c_star takes the same code path."""
    profile = u_star_profile(params)
    return replace(profile, fn=tr.wrap("crown.u_star", profile.fn))


def _anchor(params, profile, tr) -> Point3:
    """The in-plane zero on the outward ray from the first core."""
    with tr.span("nodal.radial_nodal_root"):
        t = radial_nodal_root(params, profile, 0, (-1.0, 0.0, 0.0))
    return Point3.from_array(params.xi[0].as_array() - t * np.array([1.0, 0.0, 0.0]))


def _cli(argv: List[str], out_dir: str, tr, name: str) -> bytes:
    """``necklace <argv> --out <file>``; returns the bytes written."""
    tmp = tempfile.mkdtemp(dir=out_dir)
    try:
        path = os.path.join(tmp, "out.csv")
        with tr.span(name):
            rc = cli.run(argv + ["--out", path])
        if rc != 0:
            raise RuntimeError(f"necklace {' '.join(argv)} exited with {rc}")
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        shutil.rmtree(tmp)


# ---------------------------------------------------------------------------
# model: the m=16 default-model constants


def model_prepare(seed: int, out_dir: str):
    return None  # deterministic; the seed is accepted and ignored


def model_run(_inputs, tr) -> Dict[str, object]:
    params = build_crown(M)
    profile = _profile(params, tr)
    xi = _anchor(params, profile, tr)
    gnorm = float(np.linalg.norm(fd_gradient(profile.fn, xi.as_array())))
    with tr.span("energy.c_star"):
        cstar = c_star(profile, xi)
    return {"xi": [xi.z1, xi.z2, xi.z3], "gnorm": gnorm, "cstar": cstar}


def model_check(_inputs, raw, ref) -> List[Check]:
    return C.model_checks(raw, ref["model"])


# ---------------------------------------------------------------------------
# reduced: the leading-mode minimiser and the two energy evaluators


def admissible_box(K: int, delta: float = DELTA) -> Dict[str, tuple]:
    """The admissible parameter box; ``a`` is given relative to its
    eps-dependent half-width eps log K / delta."""
    logK = math.log(K)
    return {
        "eps": (delta / K**3, 1.0 / (delta * K**3)),
        "a": (-1.0, 1.0),
        "d": ((logK - math.log(logK)) / K, logK / K),
        "alpha_b": (-logK / (math.sqrt(delta) * K * K), logK / (math.sqrt(delta) * K * K)),
        "alpha_w": (-logK / (math.sqrt(delta) * K), logK / (math.sqrt(delta) * K)),
    }


class ReducedCase(NamedTuple):
    cfg: ReducedConfig
    box: Dict[str, tuple]
    points: List[ReducedPoint]


REDUCED_BATCH = 8


def reduced_prepare(seed: int, out_dir: str) -> List[ReducedCase]:
    model = C.load_reference()["model"]
    rng = np.random.default_rng(seed)
    cases = []
    for K in KS:
        cfg = ReducedConfig(K=K, lam=LAM, gnorm=model["gnorm"],
                            cstar=model["cstar"], delta=DELTA)
        box = admissible_box(K)
        pts = []
        for _ in range(REDUCED_BATCH):
            eps = math.exp(rng.uniform(*np.log(box["eps"])))
            pts.append(ReducedPoint(
                eps=eps, a=rng.uniform(-1.0, 1.0) * eps * math.log(K) / DELTA,
                d=rng.uniform(*box["d"]), alpha_b=rng.uniform(*box["alpha_b"]),
                alpha_w=rng.uniform(*box["alpha_w"]),
            ))
        cases.append(ReducedCase(cfg, box, pts))
    return cases


def reduced_run(cases: List[ReducedCase], tr) -> Dict[str, object]:
    out: Dict[str, object] = {}
    timed = {"minimize_psi": [], "psi_full": []}
    for cfg, _box, pts in cases:
        K = cfg.K
        t0 = _clock()
        with tr.span(f"energy.minimize_psi.K{K}"):
            argmin, diag = minimize_psi(cfg, mode="leading")
        t1 = _clock()
        full = []
        for A in pts:
            with tr.span(f"energy.psi_full.K{K}"):
                full.append(psi_full(A, cfg))
        t2 = _clock()
        lead = []
        for A in pts:
            with tr.span("energy.psi_leading"):
                lead.append(psi_leading(A, cfg))
        timed["minimize_psi"].append((t0, t1, 1))
        timed["psi_full"].append((t1, t2, len(pts)))
        out[K] = {"argmin": argmin, "diag": diag, "psi_full": full,
                  "psi_leading": lead}
    out["timed"] = timed
    return out


def _scaling(cfg: ReducedConfig, box, argmin: ReducedPoint, diag) -> Dict[str, object]:
    """The criterion-9 statements: eps is the box projection of the analytic
    optimum, d carries the log K - (1/2) log log K scaling, the remaining
    axes are interior, and the accessible box faces lose to the minimum."""
    K = cfg.K

    def proj_eps(d):
        return min(max(eps_star(cfg, d), box["eps"][0]), box["eps"][1])

    es = proj_eps(argmin.d)

    def psi_at(eps=es, a=0.0, d=argmin.d):
        return psi_leading(ReducedPoint(eps=eps, a=a, d=d, alpha_b=0.0, alpha_w=0.0), cfg)

    base = diag["value"]
    d_lo = box["d"][0]
    return {
        "eps_ratio_projected": argmin.eps / es,
        "d_scaling": diag["d_scaling"],
        "max_interior_rel": max(abs(diag["a_rel"]), abs(diag["alpha_b_rel"]),
                                abs(diag["alpha_w_rel"])),
        "faces_lose": bool(psi_at(eps=box["eps"][0]) > base
                           and psi_at(d=d_lo, eps=proj_eps(d_lo)) > base
                           and psi_at(a=es * math.log(K) / cfg.delta) > base),
    }


def minimiser(argmin: ReducedPoint, diag) -> Dict[str, float]:
    """The minimiser in the search coordinates of minimize_psi, and its value."""
    return {"log_eps": math.log(argmin.eps), "a_rel": diag["a_rel"], "d": argmin.d,
            "alpha_b": argmin.alpha_b, "alpha_w": argmin.alpha_w,
            "value": diag["value"]}


def _coordinate_widths(box) -> Dict[str, float]:
    widths = {k: hi - lo for k, (lo, hi) in box.items() if k != "eps"}
    widths["log_eps"] = math.log(box["eps"][1] / box["eps"][0])
    widths["a_rel"] = widths.pop("a")
    return widths


def psi_parts(A: ReducedPoint, cfg: ReducedConfig) -> Dict[str, float]:
    """The kernel-layer pieces of psi_full at A: diagonal value, directional
    gradient sum and mixed Hessian, closed forms and direct sums."""
    sector = SectorConfig(cfg.K)
    P = PlacedBubble(eps=A.eps, a=A.a, q_hat=A.a * cfg.gnorm, w_abs=cfg.gnorm,
                     alpha_w=A.alpha_w, b_abs=A.b_abs, alpha_b=A.alpha_b,
                     beta_hat=A.alpha_w)
    b = P.b_point
    grads = [kernel_grad(kind, slot, P, sector)
             for kind in ("gamma", "h0e") for slot in ("z", "p")]
    hess = [kernel_hess(kind, P, sector) for kind in ("gamma", "h0e")]
    return {
        "h_closed": gamma_bb(b, sector).closed_form + h0e_bb(b, sector).closed_form,
        "h_direct": gamma_direct(b, b, sector) + h0e(b, b, sector),
        "g_closed": grads[0].closed_form + grads[1].closed_form
                    + grads[2].closed_form + grads[3].closed_form,
        "g_direct": math.fsum(r.direct for r in grads),
        "w_closed": hess[0].closed_form + hess[1].closed_form,
        "w_direct": math.fsum(r.direct for r in hess),
    }


def reduced_check(cases: List[ReducedCase], raw, ref) -> List[Check]:
    checks: List[Check] = []
    for cfg, box, pts in cases:
        K = cfg.K
        res = raw[K]
        argmin, diag = res["argmin"], res["diag"]
        checks += C.scaling_checks(K, _scaling(cfg, box, argmin, diag))
        checks += C.argmin_checks(K, minimiser(argmin, diag),
                                  ref["reduced"]["argmin"][str(K)],
                                  _coordinate_widths(box), ref["reduced"])
        A = pts[0]
        checks += C.psi_checks(f"reduced.K{K}.psi_full[0]", res["psi_full"][0],
                               psi_parts(A, cfg), A.eps, A.a * cfg.gnorm,
                               cfg.lam, cfg.cstar)
    return checks


# ---------------------------------------------------------------------------
# nodal: the zero set of the ring profile


NODAL_RES = (96, 192)
NODAL_BBOX = 2.5


def nodal_prepare(seed: int, out_dir: str) -> str:
    return out_dir  # deterministic; the seed is accepted and ignored


def nodal_run(out_dir: str, tr) -> Dict[str, object]:
    params = build_crown(M)
    profile = _profile(params, tr)
    meshes = {}
    for res in NODAL_RES:
        with tr.span(f"nodal.nodal_mesh.res{res}"):
            mesh = nodal_mesh(params, profile, NODAL_BBOX, res)
        with tr.span("nodal.gradient_min_on_nodal"):
            gmin = gradient_min_on_nodal(mesh, profile)
        tr.count(f"nodal.points.res{res}", len(mesh))
        meshes[str(res)] = (mesh, gmin)
    csv = _cli(["nodal"], out_dir, tr, "cli.nodal")
    return {"meshes": meshes, "cli_csv": csv}


def _nodal_outputs(raw) -> Dict[str, object]:
    return {
        "meshes": {res: {"points": len(mesh),
                         "max_residual": float(np.max(np.abs(mesh.values))),
                         "grad_min": gmin}
                   for res, (mesh, gmin) in raw["meshes"].items()},
        "cli_csv": raw["cli_csv"],
    }


def nodal_check(_inputs, raw, ref) -> List[Check]:
    return C.nodal_checks(_nodal_outputs(raw), ref["nodal"])


# ---------------------------------------------------------------------------
# identities: the verification path of the kernel and sum layers


class IdentityInputs(NamedTuple):
    out_dir: str
    b_points: List[Point3]          # K=64 diagonal points
    bubbles: List[tuple]            # (K, PlacedBubble) for the derivative checks
    t_points: List[Point3]          # sector points for t_a
    float_sums: List[SumSpec]       # sums that stay in double precision
    mp_sums: List[SumSpec]          # sums that escalate to multiprecision
    contour: List[tuple]            # (n, x) for s1_contour


IDENT_K = 64
FLOAT_SUM_KINDS = (("odd", 3), ("even_hat", 3), ("odd", 5), ("alt_hat", 1))


def _sample_bubble(K: int, rng) -> PlacedBubble:
    """A placed bubble at the criterion-7 placement with seeded scalars."""
    logK = math.log(K)
    dval = (logK - 0.5 * math.log(logK)) / K
    babs = math.sqrt(1.0 + dval * dval) - dval
    aw = rng.uniform(-0.5, 0.5) * logK / (math.sqrt(DELTA) * K)
    ab = rng.uniform(-0.5, 0.5) * logK / (math.sqrt(DELTA) * K * K)
    W = rng.uniform(-1.0, 1.0, size=(3, 3))
    return PlacedBubble(
        eps=K**-3.0, a=0.0, q_hat=rng.uniform(-0.1, 0.1),
        w_abs=rng.uniform(0.5, 2.0), alpha_w=aw, b_abs=babs, alpha_b=ab,
        beta_hat=aw, W=0.5 * (W + W.T),
    )


def identities_prepare(seed: int, out_dir: str) -> IdentityInputs:
    rng = np.random.default_rng(seed)
    t0 = math.pi / IDENT_K
    b_points = []
    for _ in range(40):
        babs = rng.uniform(0.55, 0.99)
        ab = rng.uniform(-0.49, 0.49) * t0
        b_points.append(Point3(babs * math.cos(ab), babs * math.sin(ab), 0.0))
    bubbles = [(K, _sample_bubble(K, rng)) for K in (32, 64) for _ in range(6)]
    t_points = []
    while len(t_points) < 150:
        r = rng.uniform(0.05, 0.999)
        ang = rng.uniform(-t0, t0)
        z = Point3(r * math.cos(ang), r * math.sin(ang), rng.uniform(-0.5, 0.5))
        if z.norm() < 1.0:
            t_points.append(z)
    float_sums = []
    for i in range(12):
        variant, k = FLOAT_SUM_KINDS[i % 4]
        float_sums.append(SumSpec(variant, k, 2 * int(rng.integers(128, 1025))))
    # n x in [25, 40]: the alternating sum is below 1e-8 of its terms
    mp_sums = [SumSpec("alt", (1, 3, 5)[i % 3], 200, rng.uniform(25.0, 40.0) / 200)
               for i in range(12)]
    contour = [((10, 50, 200)[i % 3], float(rng.uniform(0.05, 1.0))) for i in range(12)]
    return IdentityInputs(out_dir, b_points, bubbles, t_points, float_sums,
                          mp_sums, contour)


def identities_run(inp: IdentityInputs, tr) -> Dict[str, object]:
    sector = SectorConfig(IDENT_K)
    diag = []
    for b in inp.b_points:
        with tr.span("kernels.gamma_bb"):
            g = gamma_bb(b, sector)
        with tr.span("kernels.h0e_bb"):
            h = h0e_bb(b, sector)
        diag.append((g, h))
    derivs = []
    for K, A in inp.bubbles:
        cfg = SectorConfig(K)
        for kind in ("gamma", "h0e"):
            for slot in ("z", "p"):
                with tr.span("kernels.kernel_grad"):
                    derivs.append(("grad", kernel_grad(kind, slot, A, cfg)))
            with tr.span("kernels.kernel_hess"):
                derivs.append(("hess", kernel_hess(kind, A, cfg)))

    params = build_crown(M)
    profile = _profile(params, tr)
    xi = _anchor(params, profile, tr)
    logK = math.log(IDENT_K)
    dval = (logK - 0.5 * math.log(logK)) / IDENT_K
    babs = math.sqrt(1.0 + dval * dval) - dval
    placed = place_bubble(IDENT_K**-3.0, 0.0, babs, 0.0, 0.0, profile, xi)
    images = []
    for z in inp.t_points:
        with tr.span("kernels.t_a"):
            images.append(t_a(z, placed, sector))

    sums_float = []
    for spec in inp.float_sums:
        with tr.span("trigsums.sum_direct.float"):
            sums_float.append(sum_direct(spec))
    sums_mp = []
    for spec in inp.mp_sums:
        with tr.span("trigsums.sum_direct.mp"):
            sums_mp.append(sum_direct(spec))
    contour = []
    for n, x in inp.contour:
        with tr.span("trigsums.s1_contour"):
            contour.append(s1_contour(n, x))

    cli_out = {cmd: _cli([cmd], inp.out_dir, tr, f"cli.{cmd}")
               for cmd in ("sums", "ansatz", "kernels")}
    return {"diag": diag, "derivs": derivs, "xi": [xi.z1, xi.z2, xi.z3],
            "images": images, "sums_float": sums_float, "sums_mp": sums_mp,
            "contour": contour, "cli": cli_out}


def _mp_sum(spec: SumSpec) -> float:
    """Independent oracle: the sum at 120 digits (to 1e-30 relative at the
    inputs used here, n x <= 40)."""
    with mp.workdps(120):
        x2 = mp.mpf(spec.x) ** 2
        total = mp.mpf(0)
        for j in range(spec.n):
            if spec.variant == "odd":
                use, sign = j % 2 == 1, 1
            elif spec.variant == "even_hat":
                use, sign = j % 2 == 0 and j > 0, 1
            elif spec.variant == "alt":
                use, sign = True, (-1) ** j
            else:  # alt_hat
                use, sign = j > 0, (-1) ** (j + 1)
            if use:
                total += sign * (x2 + mp.sin(j * mp.pi / spec.n) ** 2) ** (-mp.mpf(spec.k) / 2)
        return float(total)


def _remainder_exponents() -> List[float]:
    """Criterion 6: closed form minus alpha_b = 0 asymptotic scales as
    alpha_b^2 (fixed sweep, |b| = 0.9)."""
    cfg = SectorConfig(IDENT_K)
    alphas = np.geomspace(0.05, 0.4, 6) * cfg.theta0
    slopes = []
    for fn in (gamma_bb, h0e_bb):
        rem = []
        for a in alphas:
            r = fn(Point3(0.9 * math.cos(a), 0.9 * math.sin(a), 0.0), cfg)
            rem.append(abs(r.closed_form - r.asymptotic))
        slopes.append(float(np.polyfit(np.log(alphas), np.log(rem), 1)[0]))
    return slopes


def identities_check(inp: IdentityInputs, raw, ref) -> List[Check]:
    K = IDENT_K
    eps = K**-3.0
    worst_dc = max(max(g.abs_err_dc, h.abs_err_dc) for g, h in raw["diag"])
    worst = {kind: max((r.abs_err_dc for k, r in raw["derivs"] if k == kind), default=0.0)
             for kind in ("grad", "hess")}
    sup_t = max(abs(r.direct) for r in raw["images"])
    sup_err = max(r.abs_err_dc for r in raw["images"])
    checks = [
        C.at_most("identities.resummation.max_abs_err", worst_dc, 1e-11),
        *(C.in_range(f"identities.resummation.remainder_exponent[{i}]", s, 1.9, 2.1)
          for i, s in enumerate(_remainder_exponents())),
        C.at_most("identities.kernel_grad.max_abs_err", worst["grad"], 1e-4),
        C.at_most("identities.kernel_hess.max_abs_err", worst["hess"], 1e-3),
        C.rel_close("identities.anchor_xi", raw["xi"][0], ref["model"]["xi"][0],
                    ref["model"]["rel_tol"]),
        C.at_most("identities.t_a.sup_ratio", sup_t / (eps**1.5 * K**2), 50.0),
        C.at_most("identities.t_a.sup_err_ratio", sup_err / (eps**3.5 * K**4), 1e4),
        C.at_most("identities.sum_direct.float.max_rel_err",
                  C.max_rel(zip(raw["sums_float"], map(_mp_sum, inp.float_sums))), 1e-12),
        C.at_most("identities.sum_direct.mp.max_rel_err",
                  C.max_rel(zip(raw["sums_mp"], map(_mp_sum, inp.mp_sums))), 1e-12),
        C.at_most("identities.s1_contour.max_rel_err",
                  C.max_rel(zip(raw["contour"],
                                (sum_direct(SumSpec("alt", 1, n, x)) for n, x in inp.contour))),
                  1e-7),
    ]
    return checks + C.cli_checks(raw["cli"], ref["identities"]["cli"])


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    prepare: Callable
    run: Callable
    check: Callable
    outputs: Callable           # raw outputs -> what the fingerprint covers
    probe_mix: Dict[str, float]  # the pass's character, for probe.SpeedProbe


# model and the mesh scans spend their time in NumPy on large point arrays;
# the energy, kernel and sum layers make many calls on tiny ones
WORKLOADS: Dict[str, Workload] = {
    "model": Workload(model_prepare, model_run, model_check, lambda raw: raw,
                      {"array": 1.0}),
    "reduced": Workload(reduced_prepare, reduced_run, reduced_check,
                        lambda raw: {k: v for k, v in raw.items() if k != "timed"},
                        {"interp": 1.0}),
    "nodal": Workload(nodal_prepare, nodal_run, nodal_check,
                      lambda raw: {"points": {r: m.points for r, (m, _g) in raw["meshes"].items()},
                                   "summary": _nodal_outputs(raw)},
                      {"array": 0.5, "interp": 0.5}),
    "identities": Workload(identities_prepare, identities_run, identities_check,
                           lambda raw: raw, {"interp": 1.0}),
}
