"""The reduced six-parameter energy: its leading closed-form model built from
the alternating trigonometric sums, the full kernel-sum version, the shifted
quadratic-decay constant, and the deterministic constrained minimization that
reproduces the parameter scaling laws.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, Tuple

import numpy as np

from .crown import (
    _BLOCK,
    ProfileHandle,
    _sq_norm,
    build_crown,
    fd_gradient,
    u_star_profile,
)
from .errors import AccuracyError, DomainError, real, typed
from .geometry import Point3, SectorConfig
from .kernels import _a_gamma_forms, _a_gamma_quad, a_gamma, c0, c2, full_kernels
from .nodal import radial_nodal_root
from .trigsums import gl_panels, leggauss

_log = logging.getLogger(__name__)

__all__ = [
    "ReducedConfig", "ReducedPoint", "c_star", "c0", "c2", "a_gamma",
    "psi_full", "psi_leading", "minimize_psi", "check_full_mode",
    "default_model",
]


@dataclass(frozen=True)
class ReducedConfig:
    K: int
    lam: float
    gnorm: float
    cstar: float
    delta: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "K", SectorConfig(self.K).K)
        for f in ("lam", "gnorm", "cstar", "delta"):
            real(f, getattr(self, f), positive=True, owner=self)
        if not self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        # Psi's coefficients are under K^5 (A_gamma's), and its monomials under
        # 2 eps^3 s^2 + lam cstar eps^2 at the box's far corner eps = 1/(delta K^3)
        K, eps = self.K, 1.0 / (self.delta * self.K**3)
        s = (1.0 + math.log(K) / self.delta) * max(1.0, self.gnorm)
        bound = 8.0 * K**5 * eps * eps * (2.0 * eps * s * s + self.lam * self.cstar)
        if not math.isfinite(bound):
            raise DomainError(f"Psi overflows on the box of delta={self.delta!r} and K={K} with "
                              f"lam={self.lam!r}, cstar={self.cstar!r} and gnorm={self.gnorm!r}")


@dataclass(frozen=True)
class ReducedPoint:
    """The free parameters with the anchor curve frozen out, real numbers
    but bools whose floats are finite, each stored as a float by
    errors.real; the placement modulus is the derived |b| = sqrt(1 + d^2) - d."""

    eps: float
    a: float
    d: float
    alpha_b: float
    alpha_w: float

    def __post_init__(self):
        for f in ("eps", "a", "d", "alpha_b", "alpha_w"):
            real(f, getattr(self, f), owner=self)
        # 1e100 is past every box (eps below ~1e60, |alpha| below ~1e31) and
        # keeps eps**3 and the alpha form from overflowing
        if not (0 < self.eps < 1e100 and abs(self.alpha_b) < 1e100
                and abs(self.alpha_w) < 1e100):
            raise DomainError("eps must lie in (0, 1e100) and |alpha_b|, |alpha_w| below 1e100")
        if not 0.0 < self.b_abs < 1.0:
            raise DomainError(f"d must be positive with |b| in (0, 1), got d={self.d}")

    @property
    def b_abs(self) -> float:
        return _b_abs(self.d)


def _b_abs(d: float) -> float:
    """The placement modulus |b| = sqrt(1 + d^2) - d."""
    return math.sqrt(1.0 + d * d) - d


def _box(cfg: ReducedConfig) -> Dict[str, Tuple[float, float]]:
    """The admissible box, with eps also as log_eps and a as a_rel, a over
    its eps-dependent half-width: minimize_psi searches log_eps, a_rel, d,
    alpha_b and alpha_w."""
    K, delta = cfg.K, cfg.delta
    logK = math.log(K)
    eps = (delta / K**3, 1.0 / (delta * K**3))
    return {
        "eps": eps,
        "log_eps": (math.log(eps[0]), math.log(eps[1])),
        "a_rel": (-1.0, 1.0),
        "d": ((logK - math.log(logK)) / K, logK / K),
        "alpha_b": (-logK / (math.sqrt(delta) * K * K),
                    logK / (math.sqrt(delta) * K * K)),
        "alpha_w": (-logK / (math.sqrt(delta) * K),
                    logK / (math.sqrt(delta) * K)),
    }


def _a_half_width(cfg: ReducedConfig, eps: float) -> float:
    return eps * math.log(cfg.K) / cfg.delta


# ---------------------------------------------------------------------------
# the quadratic-decay constant of the shifted profile


def _smooth_cut(t: np.ndarray) -> np.ndarray:
    """C^2 transition equal to 1 at t <= 0 and 0 at t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def _sphere_rule(panels, n_p: int, upper: bool = False):
    """Product rule on the unit sphere: Gauss on each (lo, hi, order) panel
    of cos(theta), uniform in phi.  With ``upper``, only the nodes with
    cos(theta) > 0, at twice their weights: the rule for a function even in
    z3, when the panels are symmetric about 0.  Returns its factors (ct, st,
    cos phi, sin phi), per polar and per azimuth node, and the weights of its
    directions (st_i cos phi_k, st_i sin phi_k, ct_i) in (i, k) order."""
    ct_parts, wt_parts = [], []
    for lo, hi, order in panels:
        x, w = leggauss(order)
        half = 0.5 * (hi - lo)
        ct_parts.append(0.5 * (lo + hi) + half * x)
        wt_parts.append(half * w)
    ct = np.concatenate(ct_parts)
    wt = np.concatenate(wt_parts)
    if upper:
        ct, wt = ct[ct > 0.0], 2.0 * wt[ct > 0.0]
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    phi = 2.0 * np.pi * np.arange(n_p) / n_p
    return (ct, st, np.cos(phi), np.sin(phi)), np.repeat(wt, n_p) * (2.0 * np.pi / n_p)


def _points(rule, rings, scale):
    """The components x, y, z of scale * direction over the phi-rings
    ``rings`` of the factored ``rule``, flat in (i, k) order, the bits of
    scaling its (N, 3) directions; ``scale`` is a number or one per ring."""
    ct, st, cphi, sphi = rule
    s = st[rings, None]
    return ((s * cphi * scale).ravel(), (s * sphi * scale).ravel(),
            np.repeat(ct[rings, None] * scale, len(cphi)))


#: inner log-radial cutoff of c_star's core balls
_RHO0 = 1e-6
#: points c_star's integrand makes and evaluates at a time, in whole
#: phi-rings (one ring if it holds more): a shell or core ball holds one value
#: per point of its sphere rule, and no point array larger than a batch
_BATCH = 8 * _BLOCK


def _cores(profile: ProfileHandle, xi: Point3):
    """The concentration cores of ``profile`` relative to ``xi``: per bubble
    with c < 1, in order, its center c, radius R = |c| and bump width w."""
    x, conc, _amp = profile.bubbles
    cores = []
    for c in x[conc < 1.0] - xi.as_array():
        R = float(np.linalg.norm(c))
        if R < 1e-9:
            raise DomainError("a concentration core coincides with xi")
        w = min(0.15, 0.6 * R, max(0.03, 0.2 * R))
        cores.append((c, R, w))
    return cores


def _near_cores(rule, lo: float, hi: float, cores):
    """The cores that come within w of the shells lo <= |y| <= hi through
    the directions of the factored ``rule``, each as (c, R, w, rows): ``rows``
    are the directions that can pass within w of c.

    A point within w of c lies within angle asin(w/R) of c's direction, and
    a shell farther than w from R misses the core; both tests are widened by
    a relative 1e-9 on w (and 1e-9 on the cosine, taken from the factors) for
    rounding, so the rows are a superset of those within w.  Each core's
    (n_ct, n_p) cosines are dropped before the next core's are made: two
    alive at once were c_star's memory peak at scale 2.
    """
    ct, st, cphi, sphi = rule
    near = []
    for c, R, w in cores:
        wide = w * (1.0 + 1e-9)
        if lo - wide <= R <= hi + wide:
            cos_min = math.sqrt(1.0 - (wide / R) ** 2) - 1e-9
            cos = np.outer(st, c[0] / R * cphi + c[1] / R * sphi)
            cos += (c[2] / R * ct)[:, None]
            near.append((c, R, w, np.flatnonzero(cos >= cos_min)))
            del cos
    return near


def _reaches(r: float, R: float, w: float) -> bool:
    """Whether the shell |y| = r can come within w of a core at radius R:
    the test is widened by a relative 1e-9 on w and 1e-12 (r + R)^2 for
    its own rounding."""
    return (r - R) ** 2 < (w * (1.0 + 1e-9)) ** 2 + 1e-12 * (r + R) ** 2


def _apply_bumps(vals: np.ndarray, rule, r: float, near, fac: np.ndarray) -> bool:
    """Multiply ``vals`` at the points r * direction of the shell |y| = r,
    in the directions of the factored ``rule`` that ``_near_cores`` took
    ``near`` from, by the product over cores, in order, of
    1 - _smooth_cut(2|y - c|/w - 1).  ``fac`` is a buffer of one 1.0 per
    direction, and is left so.  Returns whether a core reached the shell.

    A core's factor is exactly 1.0 wherever |y - c| >= w: on the rows
    ``_near_cores`` did not pick and on a shell farther than w from R (with
    a margin covering the rounding of the test).  So only the picked rows'
    directions are formed and multiplied, each once by its product: the
    bits of multiplying every value by the product over all cores."""
    reach = [(c, w, picked) for c, R, w, picked in near if _reaches(r, R, w)]
    if not reach:
        return False
    ct, st, cphi, sphi = rule
    for c, w, picked in reach:
        i, k = np.divmod(picked, len(cphi))
        dirs = np.column_stack((st[i] * cphi[k], st[i] * sphi[k], ct[i]))
        # np.linalg.norm's bits, without its per-call overhead
        rho = np.sqrt(_sq_norm(r * dirs - c))
        fac[picked] *= 1.0 - _smooth_cut(2.0 * rho / w - 1.0)
    # a row picked twice is gathered and set twice, to the same product
    rows = np.concatenate([picked for *_, picked in reach])
    vals[rows] *= fac[rows]
    fac[rows] = 1.0
    return True


def c_star(profile: ProfileHandle, xi: Point3, scale: float = 1.0) -> float:
    """The constant int q(z + xi)^2 / (4 pi |z|^4) dz for a profile vanishing
    at xi.

    The profile's bubbles with c < 1 are its sharp concentration cores,
    excised by smooth radial bumps and integrated in local log-radial
    spherical coordinates; the remainder (all of it for a profile with no
    such bubble) is integrated on shells around the origin with the angular
    order adapted to the nearest core, and the far field beyond R = 10^3 is
    added from the measured 1/|z| coefficient.
    ``scale`` > 0 multiplies every node count (scale=2 halves all steps).
    Each shell and core ball is evaluated in whole phi-rings of at most
    _BATCH points, made from its sphere rule's factors when evaluated, into
    one value buffer per rule: a point's value does not depend on its
    batch, so the result has the bits of evaluating the shell at once.  The
    working memory is the weights and values of the rule in use (a core
    ball's: one per radial node and direction; a shell's also its bump
    factors) plus one batch, with no (N, 3) direction array.  ``xi`` is a
    Point3; anything else is a DomainError.  The part totals, the number of
    points the profile was evaluated at and the shells a core's bump
    reached are logged in one DEBUG record on this module's logger.
    """
    scale = real("scale", scale, positive=True)
    typed("profile", profile, ProfileHandle)
    xiv = typed("xi", xi, Point3).as_array()
    q0 = float(np.asarray(profile.fn(xiv)))
    if abs(q0) > 1e-8:
        raise DomainError(
            f"profile must vanish at xi (got {q0:.3e}); the integrand is "
            "otherwise non-integrable at the origin"
        )

    points = 1

    # the shifted points of one batch, rewritten by every batch
    pts = np.empty((_BATCH, 3))

    def integrand(rule, n_rings: int, points_of, out: np.ndarray, raw: bool = False) -> None:
        # q * q / (4 pi r2 * r2) (q with ``raw``) into ``out``, the same
        # operations in the same order, at the points relative to xi that
        # points_of(g) gives as components x, y, z for runs g of whole phi-rings
        # of ``rule``, _BATCH points (or one ring) at a time; only pts and the
        # denominator (from r2 in _sq_norm's order) are held in a profile call
        nonlocal points, pts
        points += len(out)
        n_p = len(rule[2])
        per = max(1, _BATCH // n_p)
        if per * n_p > len(pts):
            pts = np.empty((per * n_p, 3))
        for a in range(0, n_rings, per):
            x, y, z = points_of(np.arange(a, min(a + per, n_rings)))
            p = pts[:len(x)]
            for i, v in enumerate((x, y, z)):
                np.add(v, xiv[i], out=p[:, i])
            r2 = np.multiply(x, x, out=x)
            r2 += np.multiply(y, y, out=y)
            r2 += np.multiply(z, z, out=z)
            den = np.multiply(r2, 4.0 * np.pi, out=y)
            den *= r2
            del x, y, z, r2
            val = out[a * n_p:a * n_p + len(p)]
            val[:] = profile.fn(p)
            if not raw:
                val *= val
                val /= den
            del den

    cores = _cores(profile, xi)
    n = lambda base: max(2, int(math.ceil(base * scale)))

    # core balls, log-radial around each center
    core_total = 0.0
    rule, dweights = _sphere_rule([(-1.0, 1.0, n(12))], n(24))
    n_ct = len(rule[0])
    vals = None
    for c, _R, w in cores:
        s_nodes, s_weights = gl_panels(
            np.linspace(math.log(_RHO0), math.log(w), n(30) + 1), 8
        )
        rho = np.exp(s_nodes)
        if vals is None:
            # every ball has the same rule: one value buffer for all
            vals = np.empty((len(rho), len(dweights)))
        # ring g is the polar node g % n_ct at radius rho[g // n_ct]: the
        # points c + rho[k] * direction j in (k, j) order
        integrand(rule, len(rho) * n_ct, lambda g: [
            np.add(v, ci, out=v) for v, ci in zip(_points(rule, g % n_ct, rho[g // n_ct, None]), c)
        ], vals.reshape(-1))
        vals *= _smooth_cut(2.0 * rho[:, None] / w - 1.0)
        core_total += float(np.sum((vals @ dweights) * s_weights * rho**3))

    # shells around the origin: linear panels through the near region, then
    # geometric panels out to the far cutoff, with panel edges pinned to the
    # bump breakpoint radii (the shells touch the transition spheres
    # tangentially there, which limits the smoothness in r)
    R_far = 1.0e3
    r_lin = 0.3
    edge_set = set(np.linspace(0.0, r_lin, n(40) + 1))
    edge_set.update(
        np.exp(np.linspace(math.log(r_lin), math.log(R_far), n(70) + 1))
    )
    for _c, R, w in cores:
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
            edge_set.add(R + s * w)
        band = np.arange(R - w, R + w + 1e-12, w / (4.0 * max(1.0, scale)))
        edge_set.update(band[band > 0.0])
    edges = np.array(sorted(e for e in edge_set if 0.0 <= e <= R_far))
    edges = np.concatenate([[0.0], edges[np.diff(np.concatenate([[0.0], edges])) > 1e-9]])

    # a sum of radial bubbles is even in z3 when all its centres are
    even_z3 = abs(xi.z3) < 1e-12 and bool(np.all(abs(profile.bubbles[0][:, 2]) < 1e-12))
    glx, glw = leggauss(8)
    outer_total = 0.0
    shells = bumped = 0
    # neighbouring panels mostly share an angular rule: it is rebuilt only
    # when its (panels, n_p) changes
    key = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        r_nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * glx
        r_weights = 0.5 * (hi - lo) * glw
        # smallest angular footprint among cores this panel touches
        sigma = math.inf
        for _c, R, w in cores:
            if lo - w <= R <= hi + w:
                sigma = min(sigma, 0.5 * w / R)
        if math.isinf(sigma):
            n_p = n(32)
            panels = [(-1.0, 1.0, n(16))]
        else:
            n_p = n(min(640.0, max(48.0, 20.0 / sigma)))
            if even_z3:
                # the concentration cores all sit in the z3 = 0 plane: refine
                # an equatorial band, keeping its order even so the
                # half-sphere restriction is exact
                n_feat = max(16, n_p // 2)
                panels = [(-1.0, -0.25, 16), (-0.25, 0.25, n_feat + n_feat % 2),
                          (0.25, 1.0, 16)]
            else:
                panels = [(-1.0, 1.0, n_p)]
        if key != (panels, n_p):
            key = (panels, n_p)
            # drop the old rule first, so that two are never held at once
            rule = dweights_s = bump = vals = None
            rule, dweights_s = _sphere_rule(panels, n_p, even_z3)
            bump = np.ones(len(dweights_s))
            vals = np.empty(len(dweights_s))
        near = _near_cores(rule, lo, hi, cores)
        for rv, rw in zip(r_nodes, r_weights):
            integrand(rule, len(rule[0]), lambda g: _points(rule, g, rv), vals)
            bumped += _apply_bumps(vals, rule, rv, near, bump)
            outer_total += float((vals @ dweights_s) * rw * rv * rv)
        shells += len(r_nodes)

    # far field: measured 1/|z| coefficient on the cutoff sphere
    rule, dweights_t = _sphere_rule([(-1.0, 1.0, n(16))], n(32))
    qR = np.empty(len(dweights_t))
    integrand(rule, len(rule[0]), lambda g: _points(rule, g, R_far), qR, raw=True)
    coeff2 = float(((qR * R_far) ** 2) @ dweights_t) / (4.0 * np.pi)
    tail = coeff2 / (3.0 * R_far**3)

    total = outer_total + core_total + tail
    _log.debug("c_star scale %r: outer %r, cores %r, tail %r; %d profile points, "
               "%d of %d shells bumped", scale, outer_total, core_total, tail,
               points, bumped, shells)
    if total <= 0.0:
        raise AccuracyError("quadrature produced a nonpositive value",
                            best=total)
    return total


# ---------------------------------------------------------------------------
# the energy


def _psi(cfg: ReducedConfig, e, e3, qhat, coef, mode: str):
    """Psi from eps, eps^3, qhat = a gnorm and the mode's coefficients: (C0,
    |b|, C2, |b|^3, the A_gamma form) in leading mode, the kernels.full_kernels
    triple in full mode.  Floats or broadcasting tables alike: + - * / round
    correctly, so a table entry equals the scalar value at its inputs."""
    lam_term = cfg.lam * e * e * cfg.cstar
    if mode == "leading":
        C0, b, C2, b3, quad = coef
        return (e * qhat * qhat * C0 / (2.0 * b)
                + e3 * cfg.gnorm**2 * C2 / (8.0 * b3)
                - lam_term + e3 * quad)
    h_val, grad, hess = coef
    return e * qhat * qhat * h_val + e * e * qhat * grad + e3 * hess - lam_term


def _coef(cfg: ReducedConfig, mode: str, d: float, alpha_b: float, alpha_w: float):
    """_psi's coefficients of ``mode`` at (d, alpha_b, alpha_w)."""
    if mode == "leading":
        b = _b_abs(d)
        return (c0(cfg.K, d), b, c2(cfg.K, d), b**3, _a_gamma_quad(cfg.K, alpha_w, alpha_b))
    return full_kernels(cfg.K, cfg.gnorm, _b_abs(d), alpha_b, alpha_w)


def _psi_point(A: ReducedPoint, cfg: ReducedConfig, mode: str) -> float:
    typed("A", A, ReducedPoint)
    typed("cfg", cfg, ReducedConfig)
    return _psi(cfg, A.eps, A.eps**3, A.a * cfg.gnorm,
                _coef(cfg, mode, A.d, A.alpha_b, A.alpha_w), mode)


def psi_full(A: ReducedPoint, cfg: ReducedConfig) -> float:
    """eps qhat^2 H(b,b) + eps^2 qhat w.(grad_z + grad_p)H(b,b)
    + eps^3 w^T (mixed Hessian of H)(b,b) w - lam eps^2 cstar, where H is the
    sum of the ball-kernel extension and the alternating image sum, evaluated
    through the exact closed-form resummations.

    At a tiny d off the box (d = 1e-9 at K = 4, say) h0's radicand
    (1 - |b|^2)^2 cancels to <= 0 in round-off and this raises AccuracyError,
    where psi_leading, built from the sums alone, returns a value.  An A or
    cfg of another type is a DomainError."""
    return _psi_point(A, cfg, "full")


def psi_leading(A: ReducedPoint, cfg: ReducedConfig) -> float:
    """eps (a gnorm)^2 C0/(2|b|) + eps^3 gnorm^2 C2/(8|b|^3) - lam eps^2 cstar
    + eps^3 (alpha_w, alpha_b) A_gamma (alpha_w, alpha_b)^T.  An A or cfg
    of another type is a DomainError."""
    return _psi_point(A, cfg, "leading")


def eps_star(cfg: ReducedConfig, d: float) -> float:
    """Stationary eps of the leading model at a = alpha = 0:
    16 |b|^3 lam cstar / (3 gnorm^2 C2)."""
    return (16.0 * _b_abs(d)**3 * cfg.lam * cfg.cstar
            / (3.0 * cfg.gnorm**2 * c2(cfg.K, d)))


# ---------------------------------------------------------------------------
# minimization


_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
#: cap on the cyclic golden-section sweeps of minimize_psi
_SWEEPS = 60
#: points per axis of minimize_psi's grid stage
_GRID_POINTS = 9
#: minimize_psi's search coordinates, in the axis order of its grid
_ORDER = ("log_eps", "d", "a_rel", "alpha_b", "alpha_w")


def _golden(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _GOLD * (hi - lo)
    d = lo + _GOLD * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLD * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLD * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def check_full_mode(cfg: ReducedConfig) -> None:
    """Full mode evaluates the closed forms, which need |alpha_b| < theta0/2,
    on the whole alpha_b box |alpha_b| <= log K/(sqrt(delta) K^2), so delta
    must exceed (2 log K/(pi K))^2: about 1.71e-3 at K = 64."""
    if _box(cfg)["alpha_b"][1] >= SectorConfig(cfg.K).theta0 / 2.0:
        floor = (2.0 * math.log(cfg.K) / (math.pi * cfg.K)) ** 2
        raise DomainError(f"full mode needs delta > (2 log K/(pi K))^2 = {floor:.4g} "
                          f"at K={cfg.K}, got delta={cfg.delta!r}")


def _grid_values(cfg: ReducedConfig, axes: Dict[str, np.ndarray],
                 mode: str) -> np.ndarray:
    """Psi at every point of the product grid of ``axes``, an array indexed
    in _ORDER, each value == the scalar psi_leading or psi_full there.

    Psi is a polynomial in eps and qhat = a gnorm with coefficients that
    depend on the other axes only.  Every other operation (exp, **, sqrt,
    the kernel sums) runs through the scalar code on its few distinct inputs,
    the 2x2 forms through _a_gamma_quad's stacked product; _psi combines the
    tables with + - * /, which round correctly.  No np.power: see kernels.
    """
    log_eps, d, a_rel, alpha_b, alpha_w = (axes[k].tolist() for k in _ORDER)

    def table(values, *dims):
        # a table over the listed axes, shaped to broadcast over the others
        return np.expand_dims(np.array(values, dtype=float),
                              [ax for ax in range(len(_ORDER)) if ax not in dims])

    eps = [math.exp(v) for v in log_eps]
    qhat = (table(a_rel, 2) * table([_a_half_width(cfg, v) for v in eps], 0)
            * cfg.gnorm)
    if mode == "leading":
        b = [_b_abs(v) for v in d]
        coef = (table([c0(cfg.K, v) for v in d], 1), table(b, 1),
                table([c2(cfg.K, v) for v in d], 1), table([v**3 for v in b], 1),
                table(_a_gamma_forms(cfg.K, np.stack(np.meshgrid(alpha_w, alpha_b), -1)), 3, 4))
    else:
        kern = np.array([[[_coef(cfg, mode, v, ab, w) for w in alpha_w] for ab in alpha_b]
                         for v in d])
        coef = tuple(table(kern[..., i], 1, 3, 4) for i in range(3))
    return _psi(cfg, table(eps, 0), table([v**3 for v in eps], 0), qhat, coef,
                mode)


def _grid_start(cfg: ReducedConfig, box: Dict[str, Tuple[float, float]],
                mode: str) -> Dict[str, float]:
    """The point of the _GRID_POINTS^5 grid over ``box``'s _ORDER axes with
    the smallest Psi, NaN values skipped and the first in C order on ties."""
    axes = {k: np.linspace(*box[k], _GRID_POINTS) for k in _ORDER}
    grid = _grid_values(cfg, axes, mode)
    low = np.fmin.reduce(grid, axis=None)  # skips NaN, without nanargmin's copy
    if math.isnan(low):
        raise AccuracyError("Psi is NaN at every grid point", best=math.nan)
    best = np.unravel_index(np.flatnonzero(grid == low)[0], grid.shape)
    return {k: float(axes[k][i]) for k, i in zip(_ORDER, best)}


def _psi_at(cfg: ReducedConfig, x: Dict[str, float], coef, mode: str) -> float:
    """Psi at search coordinates ``x`` from _coef there: psi_leading's/psi_full's bits."""
    eps = math.exp(x["log_eps"])
    return _psi(cfg, eps, eps**3, x["a_rel"] * _a_half_width(cfg, eps) * cfg.gnorm, coef, mode)


def minimize_psi(cfg: ReducedConfig, mode: str = "leading"):
    """Deterministic coarse grid followed by cyclic golden-section descent.

    Coordinates: log eps, the a-axis normalized by its eps-dependent
    half-width, d, alpha_b, alpha_w.  The grid is evaluated from tables
    (_grid_values); the descent (_psi_at) keeps Psi's coefficients while d,
    alpha_b and alpha_w stay put.  Returns (argmin, diagnostics) where the
    diagnostics report the value, the axes within 1e-3 of the box width of
    a face, the scaling ratios of the minimizer, the sweeps used, whether
    the descent converged before the sweep cap and its Psi evaluations.  K,
    the mode, the grid points, the sweeps, the evaluations and the axes on
    the boundary are logged in one DEBUG record on this module's logger.
    Full mode raises DomainError before the grid if check_full_mode does,
    and so does a cfg that is no ReducedConfig.
    """
    typed("cfg", cfg, ReducedConfig)
    if mode == "full":
        check_full_mode(cfg)
    elif mode != "leading":
        raise DomainError(f"mode must be 'leading' or 'full', got {mode!r}")
    box = _box(cfg)
    # box points are valid ReducedPoints: no checks; _coef reruns as (d, alpha_b, alpha_w) moves
    coef = lru_cache(maxsize=1)(partial(_coef, cfg, mode))
    calls = [0]

    def value(x: Dict[str, float]) -> float:
        calls[0] += 1
        return _psi_at(cfg, x, coef(x["d"], x["alpha_b"], x["alpha_w"]), mode)

    # cyclic golden-section refinement from the best grid point
    x = _grid_start(cfg, box, mode)
    for sweeps_used in range(1, _SWEEPS + 1):
        moved = 0.0
        for k in _ORDER:
            lo, hi = box[k]
            tol = 1e-4 * (hi - lo)
            cur = x[k]

            def line(t, key=k):
                trial = dict(x)
                trial[key] = t
                return value(trial)

            span = (hi - lo) / (_GRID_POINTS - 1)
            new = _golden(line, max(lo, cur - span), min(hi, cur + span), tol)
            if line(new) <= value(x):
                moved = max(moved, abs(new - x[k]) / (hi - lo))
                x[k] = new
        if moved < 1e-5:
            break
    converged = moved < 1e-5
    evaluations = calls[0]

    eps = math.exp(x["log_eps"])
    argmin = ReducedPoint(eps=eps, a=x["a_rel"] * _a_half_width(cfg, eps), d=x["d"],
                          alpha_b=x["alpha_b"], alpha_w=x["alpha_w"])
    K = cfg.K
    on_boundary = tuple(k for k in _ORDER
                        if min(x[k] - box[k][0], box[k][1] - x[k])
                        / (box[k][1] - box[k][0]) < 1e-3)
    diagnostics = {
        "value": value(x),
        "on_boundary": on_boundary,
        "eps_ratio": argmin.eps / eps_star(cfg, argmin.d),
        "d_scaling": K * argmin.d - math.log(K) + 0.5 * math.log(math.log(K)),
        "a_rel": x["a_rel"],
        "alpha_b_rel": argmin.alpha_b / box["alpha_b"][1],
        "alpha_w_rel": argmin.alpha_w / box["alpha_w"][1],
        "sweeps_used": sweeps_used,
        "converged": converged,
        "evaluations": evaluations,
    }
    _log.debug("minimize_psi K=%d mode %s: %d grid points, %d sweeps, "
               "%d evaluations, on boundary %s", K, mode,
               _GRID_POINTS ** len(_ORDER), sweeps_used, evaluations, on_boundary)
    return argmin, diagnostics


# ---------------------------------------------------------------------------
# default model constants from the m = 16 ring profile

#: the m = 16 model's constants as _computed_model gives them, as float.hex:
#: the three coordinates of xi, then gnorm and cstar
_MODEL_HEX = {
    "xi": ("0x1.3531a2a91ec68p-1", "0x0.0p+0", "0x0.0p+0"),
    "gnorm": "0x1.01b255b74ed60p+0",
    "cstar": "0x1.de2e7458893ecp-3",
}


@lru_cache(maxsize=1)
def default_model():
    """Model constants of the m = 16 ring profile: the in-plane zero xi on
    the outward ray from the first core, the gradient modulus gnorm there,
    and the decay constant cstar.  Returns (profile, xi, gnorm, cstar),
    the profile built once and the constants read from _MODEL_HEX;
    _computed_model computes them, and a full `necklace verify` checks
    that they agree."""
    xi = Point3(*map(float.fromhex, _MODEL_HEX["xi"]))
    return (u_star_profile(build_crown(16)), xi,
            float.fromhex(_MODEL_HEX["gnorm"]), float.fromhex(_MODEL_HEX["cstar"]))


@lru_cache(maxsize=1)
def _computed_model():
    """default_model's (profile, xi, gnorm, cstar) computed from the
    profile, once: xi by the radial nodal root, gnorm by a finite-difference
    gradient and cstar by the c_star quadrature (seconds); c_star's DEBUG
    record holds the parts of cstar."""
    params = build_crown(16)
    profile = u_star_profile(params)
    t = radial_nodal_root(params, profile, 0, (-1.0, 0.0, 0.0))
    xi = Point3.from_array(params.xi[0].as_array() - t * np.array([1.0, 0.0, 0.0]))
    gnorm = float(np.linalg.norm(fd_gradient(profile.fn, xi.as_array())))
    return profile, xi, gnorm, c_star(profile, xi)
