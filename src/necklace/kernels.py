"""Sector interaction functions: the alternating Newtonian image sum, the
regular part of the ball Green's function and its alternating extension, and
the image-bubble sum of a placed rescaled bubble, with exact closed forms and
ring asymptotics for each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from ._forms import a_gamma_quad, s_alt, s_hat
from .crown import _COORD_MAX, ProfileHandle, _bubble_derivs
from .errors import AccuracyError, DomainError, UnsupportedError
from .geometry import Point3, SectorConfig, rotation_matrix, sector_images

_COINCIDENT_TOL = 1e-13
#: central-difference step of kernel_grad's direct derivative
_GRAD_STEP = 1e-6
#: second-difference step of kernel_hess; the differences at this step and
#: at half of it are Richardson-combined
_HESS_STEP = 1e-4


def _tail(cfg: SectorConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The extension images without the identity; signs flipped so that
    sum_s s u(Mz) equals u(z) - extension(u)(z)."""
    mats, signs = sector_images(cfg.K)
    return mats[1:], -signs[1:]


def _pow(a: np.ndarray, e: float) -> np.ndarray:
    # C's pow per element through math.pow (Python's float ** makes the same
    # call), not np.power: on CPUs with AVX-512 NumPy's power loop runs SVML,
    # which differs from pow by an ulp on about 5% of elements (9 862 to
    # 10 684 of 200 000 uniform values at e = -0.5, numpy 2.4.6 on an AVX-512
    # Xeon), and that moves printed values (the default `necklace kernels`
    # h0e_bb direct sum among them).  An int e is converted once, not per
    # element.
    return np.fromiter(map(math.pow, a.tolist(), repeat(float(e))), float, a.size)


def _norm(r: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(r, r))


@dataclass(frozen=True)
class KernelReport:
    direct: float
    closed_form: float
    asymptotic: float

    @property
    def abs_err_dc(self) -> float:
        return abs(self.direct - self.closed_form)

    @property
    def abs_err_ca(self) -> float:
        return abs(self.closed_form - self.asymptotic)


@dataclass(frozen=True)
class PlacedBubble:
    """One rescaled bubble placed in the sector.

    The profile-dependent scalars are the value ``q_hat`` at the shifted
    anchor, the rotated gradient ``w`` (stored as modulus and angle; third
    component is zero), and the rotated Hessian ``W``.  The placement is the
    in-plane point ``b`` (modulus and angle) with the frame rotation offset
    ``beta_hat``; the construction forces alpha_w == beta_hat.
    """

    eps: float
    a: float
    q_hat: float
    w_abs: float
    alpha_w: float
    b_abs: float
    alpha_b: float
    beta_hat: float
    W: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    profile: Optional[ProfileHandle] = None
    xi_hat: Optional[Point3] = None
    theta_star: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise DomainError("eps must be finite and positive")
        if not (math.isfinite(self.w_abs) and self.w_abs > 0):
            raise DomainError("w_abs must be finite and positive")
        for name in ("a", "q_hat", "alpha_w", "alpha_b", "beta_hat", "theta_star"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if not (0.0 < self.b_abs < 1.0 and math.isfinite(self.d)):
            raise DomainError("|b| must lie in (0, 1), with d = (1 - |b|^2)/(2|b|) finite")
        if abs(self.alpha_w - self.beta_hat) > 1e-12:
            raise DomainError("alpha_w must equal beta_hat by the frame convention")
        W = np.asarray(self.W, dtype=float)
        if W.shape != (3, 3) or not np.isfinite(W).all():
            raise DomainError("W must be a finite 3x3 matrix")
        # the exact test is far cheaper than allclose, and every W it
        # accepts allclose accepts too; a W - W.T that overflows is rejected
        with np.errstate(over="ignore"):
            if not np.array_equal(W, W.T) and not np.allclose(W, W.T, atol=1e-10):
                raise DomainError("W must be a symmetric 3x3 matrix")

    @property
    def b_point(self) -> Point3:
        return Point3(self.b_abs * math.cos(self.alpha_b),
                      self.b_abs * math.sin(self.alpha_b), 0.0)

    @property
    def w_vec(self) -> np.ndarray:
        return self.w_abs * np.array(
            [math.cos(self.alpha_w), math.sin(self.alpha_w), 0.0]
        )

    @property
    def d(self) -> float:
        return (1.0 - self.b_abs**2) / (2.0 * self.b_abs)

    @property
    def beta(self) -> float:
        return self.theta_star + self.beta_hat


def place_bubble(eps: float, a: float, b_abs: float, alpha_b: float,
                 beta_hat: float, profile: ProfileHandle,
                 xi: Point3) -> PlacedBubble:
    """Compute the profile scalars (q_hat, w, W) at xi_hat = xi + a nu(xi),
    nu the unit gradient direction, and assemble a PlacedBubble.

    The frame rotation beta = theta_star + beta_hat is derived from the
    profile: theta_star is chosen so that the rotated gradient w = R_beta^T
    grad q(xi_hat) points along the in-plane angle beta_hat, which is the
    convention the PlacedBubble scalars encode (alpha_w == beta_hat).

    The value, gradient and Hessian are those of the profile's bubbles, in
    closed form."""
    xi_arr = xi.as_array()
    g0 = _bubble_derivs(xi_arr, profile.bubbles)[1]
    n0 = float(np.linalg.norm(g0))
    if n0 == 0.0:
        raise DomainError("profile gradient vanishes at the anchor")
    xi_hat_arr = xi_arr + a * g0 / n0
    q_hat, grad, hess, _ = _bubble_derivs(xi_hat_arr, profile.bubbles)
    beta = math.atan2(grad[1], grad[0]) - beta_hat
    theta_star = beta - beta_hat
    rot = rotation_matrix(beta)
    w = rot.T @ grad
    W = rot.T @ hess @ rot
    W = 0.5 * (W + W.T)
    return PlacedBubble(
        eps=eps, a=a, q_hat=q_hat,
        w_abs=float(np.hypot(w[0], w[1])), alpha_w=beta_hat,
        b_abs=b_abs, alpha_b=alpha_b, beta_hat=beta_hat, W=W,
        profile=profile, xi_hat=Point3.from_array(xi_hat_arr),
        theta_star=theta_star,
    )


# ---------------------------------------------------------------------------
# alternating Newtonian image sum


def gamma_direct(z: Point3, p: Point3, cfg: SectorConfig) -> float:
    """1/|zbar e^{2i t0} - p| - sum_{j=1}^{K/2-1} (1/|z e^{4ij t0} - p|
    - 1/|zbar e^{(4j+2)i t0} - p|): the image-interaction kernel, for |z|
    and |p| up to _COORD_MAX."""
    if max(z.norm(), p.norm()) > _COORD_MAX:
        raise DomainError(f"gamma takes |z| and |p| up to {_COORD_MAX:g}")
    mats, signs = _tail(cfg)
    r = _norm(mats @ z.as_array() - p.as_array())
    if np.any(r < _COINCIDENT_TOL):
        raise DomainError("evaluation point coincides with an image point")
    return math.fsum((signs / r).tolist())


def _in_plane(b: Point3) -> Tuple[float, float]:
    """|b| and arg b of a point of the z1 z2 plane."""
    if abs(b.z3) > 1e-12:
        raise DomainError("b must lie in the z1 z2 plane")
    return math.hypot(b.z1, b.z2), math.atan2(b.z2, b.z1)


@lru_cache(maxsize=64)
def _closed_tables(K: int) -> Tuple[List[float], List[float], List[float]]:
    """What the two closed forms take from K alone, j < K/2: the odd angles
    (2j+1) theta0, the -csc(2j theta0) for j > 0 and the sin^2(2j theta0),
    each as the closed forms' loops computed it."""
    t0 = SectorConfig(K).theta0
    odd = [(2 * j + 1) * t0 for j in range(K // 2)]
    neg_csc = [-1.0 / math.sin(2 * j * t0) for j in range(1, K // 2)]
    sin2 = [math.sin(2 * j * t0) ** 2 for j in range(K // 2)]
    return odd, neg_csc, sin2


def _gamma_bb_closed(babs: float, alpha_b: float, cfg: SectorConfig) -> float:
    """The exact cosecant resummation of gamma(b, b)."""
    if not 0.5 < babs < 1.0:
        raise DomainError("|b| must lie in (1/2, 1)")
    if abs(alpha_b) >= cfg.theta0 / 2.0:
        raise DomainError("|alpha_b| must be below theta0/2")
    odd, neg_csc, _ = _closed_tables(cfg.K)
    return math.fsum([1.0 / math.sin(a - alpha_b) for a in odd] + neg_csc) / (2.0 * babs)


def gamma_bb(b: Point3, cfg: SectorConfig) -> KernelReport:
    """Diagonal value gamma(b, b) with its exact cosecant resummation and the
    alpha_b = 0 asymptotic Shat_1(K)/(2|b|)."""
    babs, alpha_b = _in_plane(b)
    closed = _gamma_bb_closed(babs, alpha_b, cfg)
    direct = gamma_direct(b, b, cfg)
    asym = s_hat(1, cfg.K) / (2.0 * babs)
    return KernelReport(direct, closed, asym)


# ---------------------------------------------------------------------------
# regular part of the ball Green's function


def _h0_rad(v: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """The radicand 1 - 2 v.p + |v|^2 |p|^2 = |p|^2 |v - p/|p|^2|^2 of h0, per
    row of ``v``: 0 only at p's Kelvin image p/|p|^2 (as rounded), a
    DomainError, and <= 0 anywhere else only by round-off, an AccuracyError."""
    pp = np.vecdot(pv, pv)
    rad = 1.0 - 2.0 * np.vecdot(v, pv) + np.vecdot(v, v) * pp
    if np.any(rad <= 0.0):
        if np.any((rad <= 0.0) & np.all(v == pv / pp, axis=-1)):
            raise DomainError("h0 is singular at the Kelvin image of its second point")
        raise AccuracyError("the radicand of h0 cancelled to <= 0 in round-off")
    return rad


def _check_h0_scale(z: Point3, p: Point3) -> None:
    nz, npn = z.norm(), p.norm()
    if max(nz, npn, nz * npn) > _COORD_MAX:
        raise DomainError(f"h0e takes |z|, |p| and |z||p| up to {_COORD_MAX:g}")


def h0e(z: Point3, p: Point3, cfg: SectorConfig) -> float:
    """The alternating extension in its first slot of
    h0(z, p) = (1 - 2 z.p + |z|^2 |p|^2)^{-1/2}, for |z|, |p| and |z||p| up
    to _COORD_MAX."""
    _check_h0_scale(z, p)
    mats, signs = sector_images(cfg.K)
    rad = _h0_rad(mats @ z.as_array(), p.as_array())
    return math.fsum((signs * _pow(rad, -0.5)).tolist())


def _h0e_bb_closed(babs: float, alpha_b: float, cfg: SectorConfig) -> float:
    """The exact shifted-sum closed form of h0e(b, b)."""
    if not 0.0 < babs < 1.0:
        raise DomainError("|b| must lie in (0, 1)")
    if abs(alpha_b) > cfg.theta0 / 2.0:
        raise DomainError("|alpha_b| must be at most theta0/2")
    d = (1.0 - babs * babs) / (2.0 * babs)
    d2 = d * d
    odd, _, sin2 = _closed_tables(cfg.K)
    terms = [(d2 + s2) ** -0.5 for s2 in sin2]
    terms += [-((d2 + math.sin(a - alpha_b) ** 2) ** -0.5) for a in odd]
    return math.fsum(terms) / (2.0 * babs)


def h0e_bb(b: Point3, cfg: SectorConfig) -> KernelReport:
    """Diagonal value h0e(b, b) with its exact shifted-sum closed form and the
    alpha_b = 0 asymptotic S_1(K, d)/(2|b|), d = (1 - |b|^2)/(2|b|)."""
    babs, alpha_b = _in_plane(b)
    closed = _h0e_bb_closed(babs, alpha_b, cfg)
    direct = h0e(b, b, cfg)
    d = (1.0 - babs * babs) / (2.0 * babs)
    asym = s_alt(1, cfg.K, d) / (2.0 * babs)
    return KernelReport(direct, closed, asym)


# ---------------------------------------------------------------------------
# first and second derivatives along the placement direction


def _newton_derivs(bv: np.ndarray, w: np.ndarray,
                   cfg: SectorConfig) -> Tuple[float, float, float]:
    """Exact image sums of the Newtonian kernel's w-derivatives at (b, b):
    the z-slot and p-slot gradients and the mixed Hessian."""
    mats, signs = _tail(cfg)
    mw = mats @ w
    r = mats @ bv - bv
    rn = _norm(r)
    rn3, rn5 = _pow(rn, 3), _pow(rn, 5)
    rw, rmw = np.vecdot(r, w), np.vecdot(r, mw)
    return (
        math.fsum((-signs * rmw / rn3).tolist()),
        math.fsum((signs * rw / rn3).tolist()),
        math.fsum((signs * (np.vecdot(mw, w) / rn3 - 3.0 * rmw * rw / rn5)).tolist()),
    )


def _h0e_derivs(bv: np.ndarray, w: np.ndarray,
                cfg: SectorConfig) -> Tuple[float, float, float]:
    """Exact image sums of h0e's w-derivatives at (b, b): the z-slot and
    p-slot gradients and the mixed Hessian."""
    mats, signs = sector_images(cfg.K)
    v, mw = mats @ bv, mats @ w
    v2 = np.vecdot(v, v)[:, None]
    F = _pow(_h0_rad(v, bv), -0.5)
    F3, F5 = _pow(F, 3), _pow(F, 5)
    gz = np.vecdot(bv - v2 * v, mw)
    gp = np.vecdot(v - v2 * bv, w)
    return (
        math.fsum((signs * F3 * gz).tolist()),
        math.fsum((signs * F3 * gp).tolist()),
        math.fsum((signs * (3.0 * F5 * gz * gp + F3 * (
            np.vecdot(mw, w) - 2.0 * np.vecdot(v, mw) * np.vecdot(bv, w)))).tolist()),
    )


def full_kernels(K: int, gnorm: float, b_abs: float, alpha_b: float,
                 alpha_w: float) -> Tuple[float, float, float]:
    """H(b,b), w.(grad_z + grad_p)H(b,b) and w^T (mixed Hessian of H)(b,b) w,
    H = gamma + h0e, at b = b_abs (cos alpha_b, sin alpha_b, 0) and
    w = gnorm (cos alpha_w, sin alpha_w, 0): the coefficients of psi_full.

    Raises DomainError for a gnorm that is not finite and positive, or so
    large that a sum of the w-derivatives could overflow."""
    if not (math.isfinite(gnorm) and gnorm > 0.0):
        raise DomainError(f"gnorm must be finite and positive, got {gnorm!r}")
    sector = SectorConfig(K)
    b = Point3(b_abs * math.cos(alpha_b), b_abs * math.sin(alpha_b), 0.0)
    # |b| and arg b read back from the point, as gamma_bb and h0e_bb do: the
    # round trip moves the last bits of H
    babs, alpha_b = _in_plane(b)
    h_val = (_gamma_bb_closed(babs, alpha_b, sector)
             + _h0e_bb_closed(babs, alpha_b, sector))
    # With 1/2 < |b| < 1 and |alpha_b| < theta0/2, as the closed forms just
    # checked, b's Newton images lie at least 2|b| sin(theta0/2) > r =
    # sin(theta0/2) from b, and h0's radicand is at least (1 - |b|^2)^2.  So
    # every term and partial product of the K-term sums is under
    # (1 + gnorm)^2 times 4/r^3 (Newton) or 15/(1 - |b|^2)^5 (h0e), and twice
    # K times their sum bounds each sum with room for round-off
    r = math.sin(sector.theta0 / 2.0)
    g1 = 1.0 + gnorm
    bound = 2.0 * K * g1 * g1 * (4.0 / r**3 + 15.0 / (1.0 - babs * babs) ** 5)
    if not math.isfinite(bound):
        raise DomainError(f"the w-derivative sums overflow at gnorm={gnorm!r} "
                          f"and |b|={babs!r}")
    bv = b.as_array()
    w = gnorm * np.array([math.cos(alpha_w), math.sin(alpha_w), 0.0])
    newton = _newton_derivs(bv, w, sector)
    ext = _h0e_derivs(bv, w, sector)
    return (h_val, newton[0] + newton[1] + ext[0] + ext[1],
            newton[2] + ext[2])


def _direct_fn(kind: str, cfg: SectorConfig):
    if kind == "gamma":
        return lambda zv, pv: gamma_direct(
            Point3.from_array(zv), Point3.from_array(pv), cfg
        )
    if kind == "h0e":
        return lambda zv, pv: h0e(
            Point3.from_array(zv), Point3.from_array(pv), cfg
        )
    raise DomainError(f"unknown kernel kind {kind!r}")


def kernel_grad(kind: str, slot: str, A: PlacedBubble,
                cfg: SectorConfig) -> KernelReport:
    """w-directional derivative of the kernel in the chosen slot at (b, b):
    finite difference vs exact analytic sum vs the alpha = 0 cosecant form."""
    if slot not in ("z", "p"):
        raise DomainError(f"slot must be 'z' or 'p', got {slot!r}")
    f = _direct_fn(kind, cfg)
    bv = A.b_point.as_array()
    w = A.w_vec
    what = w / np.linalg.norm(w)
    h = _GRAD_STEP
    if slot == "z":
        direct = A.w_abs * (f(bv + h * what, bv) - f(bv - h * what, bv)) / (2 * h)
    else:
        direct = A.w_abs * (f(bv, bv + h * what) - f(bv, bv - h * what)) / (2 * h)
    if kind == "gamma":
        closed = _newton_derivs(bv, w, cfg)[("z", "p").index(slot)]
        asym = -A.w_abs * s_hat(1, cfg.K) / (4.0 * A.b_abs**2)
    else:
        closed = _h0e_derivs(bv, w, cfg)[("z", "p").index(slot)]
        d = A.d
        s1, s3 = s_alt(1, cfg.K, d), s_alt(3, cfg.K, d)
        asym = A.w_abs / (4.0 * A.b_abs**2) * (
            -s1 + d * math.sqrt(1.0 + d * d) * s3
        )
    return KernelReport(direct, closed, asym)


def _mixed_second_difference(f, bv, what, h: float) -> float:
    return (
        f(bv + h * what, bv + h * what)
        - f(bv + h * what, bv - h * what)
        - f(bv - h * what, bv + h * what)
        + f(bv - h * what, bv - h * what)
    ) / (4.0 * h * h)


def kernel_hess(kind: str, A: PlacedBubble, cfg: SectorConfig) -> KernelReport:
    """w^T (mixed z/p Hessian) w at (b, b): Richardson-combined second
    differences vs exact analytic sum vs the ring asymptotic."""
    f = _direct_fn(kind, cfg)
    bv = A.b_point.as_array()
    w = A.w_vec
    what = w / np.linalg.norm(w)
    if kind == "gamma":
        closed = _newton_derivs(bv, w, cfg)[2]
        s1h, s3h = s_hat(1, cfg.K), s_hat(3, cfg.K)
        quad = a_gamma_quad(cfg.K, A.alpha_w, A.alpha_b)
        asym = A.w_abs**2 / (8.0 * A.b_abs**3) * (s1h + s3h + quad)
    else:
        closed = _h0e_derivs(bv, w, cfg)[2]
        d = A.d
        s1, s3, s5 = (s_alt(k, cfg.K, d) for k in (1, 3, 5))
        root = d + math.sqrt(1.0 + d * d)
        asym = A.w_abs**2 / (8.0 * A.b_abs**3) * (
            s1 - root * root * s3 + 3.0 * (d * d + d**4) * s5
        )
    coarse = A.w_abs**2 * _mixed_second_difference(f, bv, what, _HESS_STEP)
    finer = A.w_abs**2 * _mixed_second_difference(f, bv, what, _HESS_STEP / 2.0)
    direct = (4.0 * finer - coarse) / 3.0
    return KernelReport(direct, closed, asym)


# ---------------------------------------------------------------------------
# the image sum of the placed bubble


def _q_a_profile(v: np.ndarray, A: PlacedBubble) -> np.ndarray:
    """The placed bubble eps^{1/2}/|v-b| q(eps R_beta (v-b)/|v-b|^2 + xi_hat)
    at each row of ``v``, from one call of the profile that place_bubble
    attached: a bubble without one is unsupported."""
    if A.profile is None or A.xi_hat is None:
        raise UnsupportedError("t_a needs a bubble from place_bubble, "
                               "with its profile and xi_hat")
    r = v - A.b_point.as_array()
    rn = _norm(r)
    if np.any(rn < _COINCIDENT_TOL):
        raise DomainError("q_a is undefined at the placement point")
    rot = rotation_matrix(A.beta)
    # stacked matvecs, each rounded as rot @ r_i is
    inner = (A.eps * np.matmul(rot, r[:, :, None])[:, :, 0] / _pow(rn, 2)[:, None]
             + A.xi_hat.as_array())
    return math.sqrt(A.eps) / rn * A.profile.fn(inner)


def t_a(z: Point3, A: PlacedBubble, cfg: SectorConfig) -> KernelReport:
    """The image-bubble sum of q_a over the sector reflections, with its
    kernel expansion
    eps^{1/2} q_hat gamma + eps^{3/2} w.grad_p gamma
    + (1/6) eps^{5/2} W : d2_p gamma
    as the closed form, and the first two orders as the asymptotic."""
    mats, signs = _tail(cfg)
    v = mats @ z.as_array()
    direct = math.fsum((signs * _q_a_profile(v, A)).tolist())
    W = np.asarray(A.W, dtype=float)
    r = v - A.b_point.as_array()
    rn = _norm(r)
    rn3, rn5 = _pow(rn, 3), _pow(rn, 5)
    g2 = -float(np.trace(W)) / rn3 + 3.0 * np.vecdot(r @ W, r) / rn5
    e = A.eps
    lead = math.sqrt(e) * A.q_hat * math.fsum((signs / rn).tolist())
    grad_term = e**1.5 * math.fsum((signs * np.vecdot(r, A.w_vec) / rn3).tolist())
    hess_term = e**2.5 / 6.0 * math.fsum((signs * g2).tolist())
    closed = lead + grad_term + hess_term
    asym = lead + grad_term
    return KernelReport(direct, closed, asym)
