"""End-to-end verification suite: ten independent criteria covering the series
constants, the contour and exponential asymptotics, the explicit correction,
inversion invariance, kernel resummation exactness, derivative cross-checks,
the image-bubble bounds, the reduced-energy scaling laws, and the nodal mesh.

Each criterion is a function ``(quick) -> list[Check]``: every bound it tests
is one named Check of a measured quantity against that bound, stated once.
CRITERIA is the table of (name, body, budget) rows.  Criteria 8 and 9 read
the model constants from energy's table; without ``quick``, run_all also
computes them once, before the first criterion's timer starts, and criterion
9 checks that the two agree.  run_all runs the rows in order.  A criterion
passes when it raised nothing and all its checks pass, its time budget,
``elapsed_s < budget``, among them.
"""
from __future__ import annotations

import math
import operator
import time
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .crown import build_crown, psi_d11, u_bubble, u_star, u_star_profile
from .energy import (
    ReducedConfig,
    ReducedPoint,
    _computed_model,
    default_model,
    eps_star,
    minimize_psi,
    psi_leading,
    _a_half_width,
    _b_abs,
    _box,
)
from .geometry import Point3, SectorConfig
from .kernels import (
    PlacedBubble,
    gamma_bb,
    h0e_bb,
    kernel_grad,
    kernel_hess,
    place_bubble,
    t_a,
)
from .nodal import gradient_min_on_nodal, nodal_mesh
from .trigsums import ZETA3, ZETA5, SumSpec, s1_contour, s_asym, sum_direct

_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


class Check(NamedTuple):
    """One bound of a criterion: ``measured op bound``, op one of <=, <, >=
    and >."""

    quantity: str
    measured: float
    op: str
    bound: float

    @property
    def passed(self) -> bool:
        """Whether the bound holds; a nan never passes."""
        return _OPS[self.op](self.measured, self.bound)

    @property
    def margin(self) -> float:
        """The distance from the measured value to the bound, positive
        inside it, 0 on it and negative outside; nan for a nan."""
        if self.op[0] == "<":
            return self.bound - self.measured
        return self.measured - self.bound


def _between(quantity: str, measured: float, lo: float, hi: float) -> List[Check]:
    """lo <= measured <= hi as two checks."""
    return [Check(quantity, measured, ">=", lo), Check(quantity, measured, "<=", hi)]


class Result(NamedTuple):
    name: str
    passed: bool
    elapsed: float
    checks: Tuple[Check, ...] = ()
    #: the exception a criterion raised, as "Type: message"
    error: Optional[str] = None


def series_constants(quick: bool) -> List[Check]:
    n = 2048
    pi = math.pi
    ratios = {
        "odd3": sum_direct(SumSpec("odd", 3, n)) * 4 * pi**3 / (7 * ZETA3 * n**3),
        "even_hat3": sum_direct(SumSpec("even_hat", 3, n)) * 4 * pi**3 / (ZETA3 * n**3),
        "odd5": sum_direct(SumSpec("odd", 5, n)) * 48 * pi**5 / (93 * ZETA5 * n**5),
    }
    gap = max(abs(sum_direct(SumSpec("alt_hat", 1, nn)) - nn / pi * math.log(4.0))
              for nn in (256, 512, 1024, 2048, 4096))
    return [*(c for name, r in ratios.items() for c in _between(name, r, 0.999, 1.001)),
            Check("max_log4_gap", gap, "<=", 2.0)]


def contour_identity(quick: bool) -> List[Check]:
    worst = 0.0
    for n in (10, 50, 200):
        for x in (0.05, 0.2, 1.0):
            direct = sum_direct(SumSpec("alt", 1, n, x))
            worst = max(worst, abs(s1_contour(n, x) - direct) / abs(direct))
    return [Check("worst_rel", worst, "<=", 1e-7)]


def exponential_asymptotics(quick: bool) -> List[Check]:
    n = 4000
    checks = []
    for k in (1, 3, 5):
        errs = []
        for nx in (15, 25, 40):
            x = nx / n
            rel = abs(s_asym(k, n, x) / sum_direct(SumSpec("alt", k, n, x)) - 1.0)
            errs.append(rel)
            checks.append(Check(f"rel k={k} nx={nx}", rel, "<=", 3.0 / nx))
        slope = float(np.polyfit(np.log([15, 25, 40]), np.log(errs), 1)[0])
        checks += _between(f"slope k={k}", slope, -1.3, -0.7)
    return checks


def explicit_correction(quick: bool) -> List[Check]:
    rng = np.random.default_rng(4)
    h = 1e-3
    pts = []
    while len(pts) < 200:
        z = rng.uniform(-2.0, 2.0, size=3)
        if (np.linalg.norm(z - [1, 0, 0]) > 0.3
                and np.linalg.norm(z + [1, 0, 0]) > 0.3):
            pts.append(z)
    worst = 0.0
    eye = np.eye(3)
    for z in pts:
        # fourth-order stencil: its truncation error stays far below the
        # 100 h^2 budget even near the exclusion radius
        lap = -90.0 * psi_d11(z)
        for ax in range(3):
            lap += (16.0 * (psi_d11(z + h * eye[ax]) + psi_d11(z - h * eye[ax]))
                    - psi_d11(z + 2 * h * eye[ax]) - psi_d11(z - 2 * h * eye[ax]))
        lap /= 12.0 * h * h
        worst = max(worst, abs(lap + 5.0 * u_bubble(z) ** 4 * psi_d11(z)))
    dist = 1e-3
    coeff = psi_d11(np.array([1.0 + dist, 0.0, 0.0])) * dist
    return [Check("worst_residual", worst, "<=", 100.0 * h * h),
            *_between("pole_coeff", coeff, -1.01, -0.99)]


def inversion_invariance(quick: bool) -> List[Check]:
    rng = np.random.default_rng(5)
    n_pts = 100 if quick else 1000
    params = build_crown(16)
    pts = rng.uniform(-2.0, 2.0, size=(4 * n_pts, 3))
    pts = pts[np.linalg.norm(pts, axis=-1) > 0.05][:n_pts]
    inv = pts / np.sum(pts * pts, axis=-1, keepdims=True)
    w = 1.0 / np.linalg.norm(pts, axis=-1)
    err_u = np.max(np.abs(u_bubble(pts) - w * u_bubble(inv)))
    err_star = np.max(np.abs(u_star(pts, params) - w * u_star(inv, params)))
    return [Check("err_u", float(err_u), "<=", 1e-12),
            Check("err_star", float(err_star), "<=", 1e-12)]


def kernel_resummation(quick: bool) -> List[Check]:
    cfg = SectorConfig(64)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20 if quick else 100):
        babs = rng.uniform(0.55, 0.99)
        ab = rng.uniform(-0.49, 0.49) * cfg.theta0
        b = Point3(babs * math.cos(ab), babs * math.sin(ab), 0.0)
        worst = max(worst, gamma_bb(b, cfg).abs_err_dc, h0e_bb(b, cfg).abs_err_dc)
    checks = [Check("worst_abs_err_dc", worst, "<=", 1e-11)]
    alphas = np.geomspace(0.05, 0.4, 6) * cfg.theta0
    for fn in (gamma_bb, h0e_bb):
        rem = []
        for ab in alphas:
            rep = fn(Point3(0.9 * math.cos(ab), 0.9 * math.sin(ab), 0.0), cfg)
            rem.append(abs(rep.closed_form - rep.asymptotic))
        slope = float(np.polyfit(np.log(alphas), np.log(rem), 1)[0])
        checks += _between(f"remainder_exponent {fn.__name__}", slope, 1.9, 2.1)
    return checks


def _placement_b_abs(K: int) -> float:
    """|b| at d = (log K - (1/2) log log K) / K, criteria 7 and 8's placement."""
    logK = math.log(K)
    return _b_abs((logK - 0.5 * math.log(logK)) / K)


def _sample_bubble(K: int, rng) -> PlacedBubble:
    logK = math.log(K)
    babs = _placement_b_abs(K)
    aw = rng.uniform(-0.5, 0.5) * logK / (math.sqrt(0.1) * K)
    ab = rng.uniform(-0.5, 0.5) * logK / (math.sqrt(0.1) * K * K)
    W = rng.uniform(-1.0, 1.0, size=(3, 3))
    return PlacedBubble(
        eps=K**-3.0, a=0.0, q_hat=rng.uniform(-0.1, 0.1),
        w_abs=rng.uniform(0.5, 2.0), alpha_w=aw, b_abs=babs, alpha_b=ab,
        beta_hat=aw, W=0.5 * (W + W.T),
    )


def derivative_cross_checks(quick: bool) -> List[Check]:
    rng = np.random.default_rng(7)
    worst_g, worst_h = 0.0, 0.0
    for K in (32, 64):
        cfg = SectorConfig(K)
        for _ in range(3 if quick else 10):
            A = _sample_bubble(K, rng)
            for kind in ("gamma", "h0e"):
                for slot in ("z", "p"):
                    worst_g = max(worst_g, kernel_grad(kind, slot, A, cfg).abs_err_dc)
                worst_h = max(worst_h, kernel_hess(kind, A, cfg).abs_err_dc)
    return [Check("worst_grad", worst_g, "<=", 1e-4),
            Check("worst_hess", worst_h, "<=", 1e-3)]


def image_bubble_bounds(quick: bool) -> List[Check]:
    K = 64
    eps = K**-3.0
    cfg = SectorConfig(K)
    profile, xi, _gnorm, _cstar = default_model()
    A = place_bubble(eps, 0.0, _placement_b_abs(K), 0.0, 0.0, profile, xi)
    rng = np.random.default_rng(8)
    n_pts = 100 if quick else 1000
    sup_t, sup_err = 0.0, 0.0
    count = 0
    t0 = cfg.theta0
    while count < n_pts:
        r = rng.uniform(0.05, 0.999)
        ang = rng.uniform(-t0, t0)
        z3 = rng.uniform(-0.5, 0.5)
        z = Point3(r * math.cos(ang), r * math.sin(ang), z3)
        if z.norm() >= 1.0:
            continue
        rep = t_a(z, A, cfg)
        sup_t = max(sup_t, abs(rep.direct))
        sup_err = max(sup_err, rep.abs_err_dc)
        count += 1
    return [Check("sup_t_ratio", sup_t / (eps**1.5 * K**2), "<=", 50.0),
            Check("sup_err_ratio", sup_err / (eps**3.5 * K**4), "<=", 1e4)]


def _model_constants() -> List[Check]:
    """One check per constant of default_model's table (xi, gnorm, cstar):
    its distance from the value the quadrature computes is 0."""
    names = ("xi.z1", "xi.z2", "xi.z3", "gnorm", "cstar")
    recorded, computed = ((xi.z1, xi.z2, xi.z3, gnorm, cstar)
                          for _profile, xi, gnorm, cstar in (default_model(), _computed_model()))
    return [Check(f"|computed - recorded| {name}", abs(c - r), "<=", 0.0)
            for name, r, c in zip(names, recorded, computed)]


def reduced_energy_scaling(quick: bool) -> List[Check]:
    _profile, _xi, gnorm, cstar = default_model()
    checks = [] if quick else _model_constants()
    for K in ((64,) if quick else (64, 128, 256)):
        cfg = ReducedConfig(K=K, lam=1.0, gnorm=gnorm, cstar=cstar, delta=0.1)
        argmin, diag = minimize_psi(cfg, mode="leading")
        box = _box(cfg)

        def proj_eps(dd):
            return min(max(eps_star(cfg, dd), box["eps"][0]), box["eps"][1])

        # with the computed proxy constants the scaled optimum
        # eps*K^3 = 16|b|^3 lam cstar K^3 / (3 gnorm^2 C2) lies above
        # delta^{-1}, and C2/|b|^3 is monotone in d across the box, so the
        # minimizer sits on the upper eps/d faces.  The verifiable scaling
        # statements are: eps equals the box projection of the analytic
        # optimum, d carries the log K - (1/2) log log K scaling, the
        # remaining axes are interior, and the accessible box faces lose
        # strictly against the minimizer.
        dstar, d_lo = argmin.d, box["d"][0]
        es = proj_eps(dstar)
        faces = {  # (eps, a, d) on the lower eps face, the lower d face and the a edge
            "eps": (box["eps"][0], 0.0, dstar),
            "d": (proj_eps(d_lo), 0.0, d_lo),
            "a": (es, _a_half_width(cfg, es), dstar),
        }
        tag = f"K={K} "
        checks += [
            *_between(tag + "eps_ratio_projected", argmin.eps / es, 0.99, 1.01),
            Check(tag + "|d_scaling|", abs(diag["d_scaling"]), "<=", 3.0),
            Check(tag + "max |a_rel|, |alpha_b_rel|, |alpha_w_rel|",
                  max(abs(diag["a_rel"]), abs(diag["alpha_b_rel"]),
                      abs(diag["alpha_w_rel"])), "<=", 1e-2),
        ]
        checks += [
            Check(f"{tag}psi({face} face) - psi_min",
                  psi_leading(ReducedPoint(eps=e, a=a, d=dd, alpha_b=0.0, alpha_w=0.0),
                              cfg) - diag["value"], ">", 0.0)
            for face, (e, a, dd) in faces.items()
        ]
    return checks


def nodal_mesh_stability(quick: bool) -> List[Check]:
    params = build_crown(16)
    profile = u_star_profile(params)
    res0 = 48 if quick else 96
    mesh = nodal_mesh(params, profile, 2.5, res0)
    points = Check("points", len(mesh), ">", 0)
    if not points.passed:
        return [points]
    g0 = gradient_min_on_nodal(mesh, profile)
    g1 = gradient_min_on_nodal(nodal_mesh(params, profile, 2.5, 2 * res0), profile)
    return [points,
            Check("max_residual", float(np.max(np.abs(mesh.values))), "<=", 1e-8),
            Check("grad_min", g0, ">", 0.0),
            # the polished minimum is the same to round-off at twice the resolution
            Check("grad_min_gap", abs(g1 - g0), "<=", 1e-12)]


Criterion = Tuple[str, Callable[[bool], List[Check]], Optional[float]]

#: each criterion's name, body and time budget in seconds (None: no budget)
CRITERIA: Tuple[Criterion, ...] = (
    ("series constants", series_constants, 2.0),
    ("contour identity", contour_identity, 5.0),
    ("exponential asymptotics", exponential_asymptotics, None),
    ("explicit correction", explicit_correction, None),
    ("inversion invariance", inversion_invariance, None),
    ("kernel resummation", kernel_resummation, None),
    ("derivative cross-checks", derivative_cross_checks, None),
    ("image-bubble bounds", image_bubble_bounds, None),
    ("reduced-energy scaling", reduced_energy_scaling, 60.0),
    ("nodal mesh", nodal_mesh_stability, None),
)


def _run(criterion: Criterion, quick: bool) -> Result:
    name, body, budget = criterion
    checks: List[Check] = []
    error = None
    start = time.perf_counter()
    try:
        checks = body(quick)
    except Exception as exc:  # a crashed criterion is a failed criterion
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if budget is not None:
        checks.append(Check("elapsed_s", elapsed, "<", budget))
    passed = error is None and all(c.passed for c in checks)
    return Result(name, passed, elapsed, tuple(checks), error)


def run_all(quick: bool = False) -> List[Result]:
    # criteria 8 and 9 read the model constants from energy's table; the
    # full suite also computes them (a quadrature of seconds, cached) outside
    # every criterion's time, and criterion 9 checks the table against them
    if not quick:
        _computed_model()
    return [_run(c, quick) for c in CRITERIA]
