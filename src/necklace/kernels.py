"""Sector interaction functions: the alternating Newtonian image sum, the
regular part of the ball Green's function and its alternating extension, the
placed rescaled bubble and its image-bubble sum, with exact closed forms and
ring asymptotics for each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ._forms import a_gamma_quad, s_alt, s_hat
from .crown import ProfileHandle, fd_gradient, fd_hessian
from .errors import AccuracyError, DomainError
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
    # Python float ** per element, not np.power: NumPy's SIMD power loop is
    # off by one ulp on a few percent of elements, which moves printed values
    # (the default `necklace kernels` h0e_bb direct sum among them).
    return np.array([x ** e for x in a.tolist()])


def _norm(r: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(r, r))


def _check_finite(*pts: Point3) -> None:
    for pt in pts:
        if not (math.isfinite(pt.z1) and math.isfinite(pt.z2)
                and math.isfinite(pt.z3)):
            raise DomainError(f"point coordinates must be finite, got {pt}")


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
        if not 0.0 < self.b_abs < 1.0:
            raise DomainError("|b| must lie in (0, 1)")
        if abs(self.alpha_w - self.beta_hat) > 1e-12:
            raise DomainError("alpha_w must equal beta_hat by the frame convention")
        W = np.asarray(self.W, dtype=float)
        if W.shape != (3, 3) or not np.isfinite(W).all():
            raise DomainError("W must be a finite 3x3 matrix")
        # the exact test is far cheaper than allclose, and every W it
        # accepts allclose accepts too
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
    convention the PlacedBubble scalars encode (alpha_w == beta_hat)."""
    xi_arr = xi.as_array()
    g0 = fd_gradient(profile.fn, xi_arr)
    n0 = float(np.linalg.norm(g0))
    if n0 == 0.0:
        raise DomainError("profile gradient vanishes at the anchor")
    xi_hat_arr = xi_arr + a * g0 / n0
    grad = fd_gradient(profile.fn, xi_hat_arr)
    beta = math.atan2(grad[1], grad[0]) - beta_hat
    theta_star = beta - beta_hat
    rot = rotation_matrix(beta)
    w = rot.T @ grad
    hess = fd_hessian(profile.fn, xi_hat_arr)
    W = rot.T @ hess @ rot
    W = 0.5 * (W + W.T)
    return PlacedBubble(
        eps=eps, a=a, q_hat=float(np.asarray(profile.fn(xi_hat_arr))),
        w_abs=float(np.hypot(w[0], w[1])), alpha_w=beta_hat,
        b_abs=b_abs, alpha_b=alpha_b, beta_hat=beta_hat, W=W,
        profile=profile, xi_hat=Point3.from_array(xi_hat_arr),
        theta_star=theta_star,
    )


# ---------------------------------------------------------------------------
# alternating Newtonian image sum


def gamma_direct(z: Point3, p: Point3, cfg: SectorConfig) -> float:
    """1/|zbar e^{2i t0} - p| - sum_{j=1}^{K/2-1} (1/|z e^{4ij t0} - p|
    - 1/|zbar e^{(4j+2)i t0} - p|): the image-interaction kernel."""
    _check_finite(z, p)
    mats, signs = _tail(cfg)
    r = _norm(mats @ z.as_array() - p.as_array())
    if np.any(r < _COINCIDENT_TOL):
        raise DomainError("evaluation point coincides with an image point")
    return math.fsum(signs / r)


def _in_plane(b: Point3) -> Tuple[float, float]:
    """|b| and arg b of a point of the z1 z2 plane."""
    if abs(b.z3) > 1e-12:
        raise DomainError("b must lie in the z1 z2 plane")
    return math.hypot(b.z1, b.z2), math.atan2(b.z2, b.z1)


def _gamma_bb_closed(babs: float, alpha_b: float, cfg: SectorConfig) -> float:
    """The exact cosecant resummation of gamma(b, b)."""
    if not 0.5 < babs < 1.0:
        raise DomainError("|b| must lie in (1/2, 1)")
    t0 = cfg.theta0
    if abs(alpha_b) >= t0 / 2.0:
        raise DomainError("|alpha_b| must be below theta0/2")
    terms = [1.0 / math.sin((2 * j + 1) * t0 - alpha_b) for j in range(cfg.K // 2)]
    terms += [-1.0 / math.sin(2 * j * t0) for j in range(1, cfg.K // 2)]
    return math.fsum(terms) / (2.0 * babs)


def gamma_bb(b: Point3, cfg: SectorConfig) -> KernelReport:
    """Diagonal value gamma(b, b) with its exact cosecant resummation and the
    alpha_b = 0 asymptotic Shat_1(K)/(2|b|)."""
    _check_finite(b)
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


def h0(z: Point3, p: Point3) -> float:
    """(1 - 2 z.p + |z|^2 |p|^2)^{-1/2}."""
    _check_finite(z, p)
    return float(_h0_rad(z.as_array(), p.as_array())) ** -0.5


def h0e(z: Point3, p: Point3, cfg: SectorConfig) -> float:
    """The alternating extension of h0 in its first slot."""
    _check_finite(z, p)
    mats, signs = sector_images(cfg.K)
    return math.fsum(signs * _pow(_h0_rad(mats @ z.as_array(), p.as_array()), -0.5))


def _h0e_bb_closed(babs: float, alpha_b: float, cfg: SectorConfig) -> float:
    """The exact shifted-sum closed form of h0e(b, b)."""
    if not 0.0 < babs < 1.0:
        raise DomainError("|b| must lie in (0, 1)")
    t0 = cfg.theta0
    if abs(alpha_b) > t0 / 2.0:
        raise DomainError("|alpha_b| must be at most theta0/2")
    d = (1.0 - babs * babs) / (2.0 * babs)
    terms = []
    for j in range(cfg.K // 2):
        terms.append((d * d + math.sin(2 * j * t0) ** 2) ** -0.5)
        terms.append(-((d * d + math.sin((2 * j + 1) * t0 - alpha_b) ** 2) ** -0.5))
    return math.fsum(terms) / (2.0 * babs)


def h0e_bb(b: Point3, cfg: SectorConfig) -> KernelReport:
    """Diagonal value h0e(b, b) with its exact shifted-sum closed form and the
    alpha_b = 0 asymptotic S_1(K, d)/(2|b|), d = (1 - |b|^2)/(2|b|)."""
    _check_finite(b)
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
        math.fsum(-signs * rmw / rn3),
        math.fsum(signs * rw / rn3),
        math.fsum(signs * (np.vecdot(mw, w) / rn3 - 3.0 * rmw * rw / rn5)),
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
        math.fsum(signs * F3 * gz),
        math.fsum(signs * F3 * gp),
        math.fsum(signs * (3.0 * F5 * gz * gp + F3 * (
            np.vecdot(mw, w) - 2.0 * np.vecdot(v, mw) * np.vecdot(bv, w)))),
    )


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
# the placed bubble and its image sum


def _q_a_profile(v: np.ndarray, A: PlacedBubble) -> np.ndarray:
    """q_a through the attached profile at each row of ``v``, from one
    profile call."""
    r = v - A.b_point.as_array()
    rn = _norm(r)
    if np.any(rn < _COINCIDENT_TOL):
        raise DomainError("q_a is undefined at the placement point")
    rot = rotation_matrix(A.beta)
    # stacked matvecs, each rounded as rot @ r_i is
    inner = (A.eps * np.matmul(rot, r[:, :, None])[:, :, 0] / _pow(rn, 2)[:, None]
             + A.xi_hat.as_array())
    return math.sqrt(A.eps) / rn * A.profile.fn(inner)


def q_a(z: Point3, A: PlacedBubble) -> float:
    """The placed bubble eps^{1/2}/|z-b| q(eps R_beta (z-b)/|z-b|^2 + xi_hat).

    Uses the attached profile when available, otherwise the second-order
    far-field expansion in the stored scalars."""
    if A.profile is not None and A.xi_hat is not None:
        return float(_q_a_profile(z.as_array()[None, :], A)[0])
    return q_a_expansion(z, A)


def q_a_expansion(z: Point3, A: PlacedBubble) -> float:
    """Far-field expansion (eps^{1/2}/|z-b|)[q_hat + eps w.(z-b)/|z-b|^2
    + eps^2 (z-b)^T W (z-b)/(2 |z-b|^4)], valid for |z-b| >= eps."""
    zv = z.as_array()
    bv = A.b_point.as_array()
    r = zv - bv
    rn = float(np.linalg.norm(r))
    if rn < _COINCIDENT_TOL:
        raise DomainError("expansion undefined at the placement point")
    W = np.asarray(A.W, dtype=float)
    bracket = (
        A.q_hat
        + A.eps * float(A.w_vec @ r) / rn**2
        + A.eps**2 * float(r @ W @ r) / (2.0 * rn**4)
    )
    return math.sqrt(A.eps) / rn * bracket


def t_a(z: Point3, A: PlacedBubble, cfg: SectorConfig) -> KernelReport:
    """The image-bubble sum of q_a over the sector reflections, with its
    kernel expansion
    eps^{1/2} q_hat gamma + eps^{3/2} w.grad_p gamma
    + (1/6) eps^{5/2} W : d2_p gamma
    as the closed form, and the first two orders as the asymptotic."""
    _check_finite(z)
    mats, signs = _tail(cfg)
    v = mats @ z.as_array()
    if A.profile is not None and A.xi_hat is not None:
        direct = math.fsum(signs * _q_a_profile(v, A))
    else:
        direct = math.fsum(s * q_a_expansion(Point3.from_array(u), A)
                           for u, s in zip(v, signs.tolist()))
    W = np.asarray(A.W, dtype=float)
    r = v - A.b_point.as_array()
    rn = _norm(r)
    rn3, rn5 = _pow(rn, 3), _pow(rn, 5)
    g2 = -float(np.trace(W)) / rn3 + 3.0 * np.vecdot(r @ W, r) / rn5
    e = A.eps
    lead = math.sqrt(e) * A.q_hat * math.fsum(signs / rn)
    grad_term = e**1.5 * math.fsum(signs * np.vecdot(r, A.w_vec) / rn3)
    hess_term = e**2.5 / 6.0 * math.fsum(signs * g2)
    closed = lead + grad_term + hess_term
    asym = lead + grad_term
    return KernelReport(direct, closed, asym)
