"""Sector interaction functions: the alternating Newtonian image sum, the
regular part of the ball Green's function and its alternating extension, and
the image-bubble sum of a placed rescaled bubble, with exact closed forms and
ring asymptotics for each, and the ring coefficients C0(K, d), C2(K, d) and
A_gamma(K) that those asymptotics sum to and the reduced energy reads.  A
point parameter (z, p, b, xi) is a Point3; anything else is a DomainError.

Every power is np.float_power's, whose float64 loop is NumPy's generic one
calling libm pow (the bits of math.pow and of Python's float **), never
np.power: on CPUs with AVX-512 NumPy's power loop runs SVML, which differs
from pow by an ulp on about 5% of elements (9 862 to 10 684 of 200 000
uniform values at e = -0.5, numpy 2.4.6 on an AVX-512 Xeon), and that moves
printed values.  Each site notes the bound that keeps its power finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .crown import _COORD_MAX, ProfileHandle, _bubble_derivs, _check_points
from .errors import AccuracyError, DomainError, UnsupportedError, counted, real, typed
from .geometry import Point3, SectorConfig, rotation_matrix, sector_images
from .trigsums import N_MAX, SumSpec, alt_sums, sum_direct

_COINCIDENT_TOL = 1e-13
#: central-difference step of kernel_grad's direct derivative
_GRAD_STEP = 1e-6
#: second-difference step of kernel_hess; the differences at this step and
#: at half of it are Richardson-combined
_HESS_STEP = 1e-4
#: the largest |z| t_a takes: for |b| < 1, |r|^5 <= (|z| + 1)^5 stays finite
_T_A_MAX = 1e61


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
    ``beta_hat``; the construction forces alpha_w == beta_hat.  The real
    fields are finite, eps and w_abs > 0, and stored as floats.
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
        for f in ("eps", "a", "q_hat", "w_abs", "alpha_w", "b_abs", "alpha_b",
                  "beta_hat", "theta_star"):
            real(f, getattr(self, f), positive=f in ("eps", "w_abs"), owner=self)
        if not (0.0 < self.b_abs < 1.0 and math.isfinite(self.d)):
            raise DomainError("|b| must lie in (0, 1), with d = (1 - |b|^2)/(2|b|) finite")
        if abs(self.alpha_w - self.beta_hat) > 1e-12:
            raise DomainError("alpha_w must equal beta_hat by the frame convention")
        W = np.asarray(self.W, dtype=float)
        if W.shape != (3, 3) or not np.isfinite(W).all():
            raise DomainError("W must be a finite 3x3 matrix")
        # a W - W.T that overflows is rejected
        with np.errstate(over="ignore"):
            if not np.allclose(W, W.T, atol=1e-10):
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

    @cached_property
    def _arrays(self) -> tuple:
        """b_point.as_array(), w_vec, w_vec/norm(w_vec), rotation_matrix(beta),
        xi_hat.as_array() (None without xi_hat), W and float(trace W), built
        once."""
        w = self.w_vec
        xi = None if self.xi_hat is None else self.xi_hat.as_array()
        W = np.asarray(self.W, dtype=float)
        return (self.b_point.as_array(), w, w / np.linalg.norm(w),
                rotation_matrix(self.beta), xi, W, float(np.trace(W)))


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
    closed form.  The reals a and beta_hat, which it computes with, are
    checked first, and PlacedBubble checks the others; xi and xi_hat must
    have coordinates up to _COORD_MAX, else it is a DomainError."""
    a, beta_hat = real("a", a), real("beta_hat", beta_hat)
    typed("profile", profile, ProfileHandle)
    xi_arr = typed("xi", xi, Point3).as_array()
    _check_points(xi_arr, "place_bubble")
    g0 = _bubble_derivs(xi_arr[None], profile.bubbles)[1][0]
    n0 = float(np.linalg.norm(g0))
    if n0 == 0.0:
        raise DomainError("profile gradient vanishes at the anchor")
    xi_hat_arr = xi_arr + a * g0 / n0
    _check_points(xi_hat_arr, "place_bubble")
    u, grad, hess, _ = _bubble_derivs(xi_hat_arr[None], profile.bubbles)
    q_hat, grad, hess = float(u[0]), grad[0], hess[0]
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
# ring coefficients: C0/(2|b|) is the sum of gamma_bb's and h0e_bb's
# asymptotics at alpha_b = 0, and kernel_hess's two asymptotics add up to
# w^2/(8|b|^3) (C2 + alpha^T A_gamma alpha).  The sums are cached, as the
# minimization revisits the same (K, d): s_hat per (k, K), and the S_1, S_3
# and S_5 that C0, C2 and the h0e derivatives' asymptotics read as one
# trigsums.alt_sums entry per (K, d); a_gamma caches its form.  C0 and C2 are
# a few float operations on the cached sums and are not cached themselves.
# K and d are checked before any cache, which would raise TypeError for an
# unhashable value.


def _checked(K, d: float = 1.0) -> Tuple[int, float]:
    """K and d as the int n and float x that SumSpec stores, or a DomainError
    that names K or d: K an even integer from 4 to N_MAX, and d > 0 with
    d^-5, the j = 0 term of S_5, a finite double."""
    K, d = counted("K", K, 4, N_MAX, 0), real("d", d)
    try:
        SumSpec("alt", 5, K, d)
    except DomainError:
        raise DomainError(f"d must be > 0 with d^-5 finite, got {d!r}") from None
    return K, d


@lru_cache(maxsize=64)
def s_hat(k: int, n: int) -> float:
    """Shat_k(n) = sum_{j=1}^{n-1} (-1)^{j+1} csc^k(j pi/n)."""
    return sum_direct(SumSpec("alt_hat", k, n, 0.0))


def _ring_sums(K, d) -> Tuple[int, float, Tuple[float, float, float]]:
    """K and d as _checked returns them, and alt_sums(K, d): an int K and a
    float d go straight to the sums, and an error of the sums is raised as
    _checked's, which names K or d where the sums name n or x."""
    if not (type(K) is int and type(d) is float):
        K, d = _checked(K, d)
    try:
        return K, d, alt_sums(K, d)
    except DomainError:
        _checked(K, d)
        raise


def c0(K: int, d: float) -> float:
    """Shat_1(K) + S_1(K, d): the coefficient of the first-order ring term."""
    K, d, sums = _ring_sums(K, d)
    return s_hat(1, K) + sums[0]


def c2(K: int, d: float) -> float:
    """Shat_1 + Shat_3 + S_1 - (d + sqrt(1+d^2))^2 S_3 + 3(d^2 + d^4) S_5,
    the coefficient of the third-order ring term."""
    K, d, (s1, s3, s5) = _ring_sums(K, d)
    root = d + math.sqrt(1.0 + d * d)
    # S_3 and S_5 underflow to 0 (by d ~ 1e50 at K = 4) well before their
    # factors overflow (d^4 past ~1e77): the term of a zero sum is 0
    return (
        s_hat(1, K)
        + s_hat(3, K)
        + s1
        - (root * root * s3 if s3 else 0.0)
        + (3.0 * (d * d + d**4) * s5 if s5 else 0.0)
    )


def a_gamma(K: int) -> np.ndarray:
    """The symmetric 2x2 quadratic form in (alpha_w, alpha_b) governing the
    angular dependence of the third-order ring term, assembled exactly from
    the pure cosecant sums S^o_1, S^o_3, S^o_5 and Shat^e_3 (read-only)."""
    try:
        return _a_gamma(K if type(K) is int else _checked(K)[0])
    except DomainError:
        _checked(K)
        raise


@lru_cache(maxsize=64)
def _a_gamma(K: int) -> np.ndarray:
    """a_gamma's form for an int K."""
    s1o = sum_direct(SumSpec("odd", 1, K, 0.0))
    s3o = sum_direct(SumSpec("odd", 3, K, 0.0))
    s5o = sum_direct(SumSpec("odd", 5, K, 0.0))
    s3e_hat = sum_direct(SumSpec("even_hat", 3, K, 0.0))
    s3_hat = s3o - s3e_hat
    a11 = s3o - 2.0 * s1o + 3.0 * s3e_hat
    a12 = -3.0 * s3_hat + 3.0 * s1o
    a22 = 1.5 * (4.0 * s5o + s3o - 3.0 * s1o) + 3.0 * s3e_hat
    form = np.array([[a11, a12], [a12, a22]])
    form.flags.writeable = False
    return form


def _a_gamma_forms(K: int, alpha: np.ndarray) -> np.ndarray:
    """alpha A_gamma(K) alpha^T for each row alpha = (alpha_w, alpha_b) of a
    (..., 2) stack, row by row (no gemm): the bits of the 1-D alpha @ a_gamma(K) @ alpha."""
    return np.vecdot(np.matmul(alpha[..., None, :], a_gamma(K))[..., 0, :], alpha)


def _a_gamma_quad(K: int, alpha_w: float, alpha_b: float) -> float:
    """(alpha_w, alpha_b) A_gamma(K) (alpha_w, alpha_b)^T."""
    return float(_a_gamma_forms(K, np.array([alpha_w, alpha_b])))


# ---------------------------------------------------------------------------
# alternating Newtonian image sum


def _direct(kind: str, Z: np.ndarray, P: np.ndarray, K: int) -> List[float]:
    """gamma_direct or h0e (``kind``) at each row pair (Z[i], P[i]) of two
    (n, 3) stacks in one pass over sector_images(K): gamma, u(z) -
    extension(u)(z), sums the images but the identity with their signs
    negated, and h0e sums them all.  Row for row the bits of a one-row call,
    and the error of the first row that raises one."""
    mats, signs = sector_images(K)
    if kind == "gamma":
        r = _norm((mats[1:] @ Z[:, None, :, None])[..., 0] - P[:, None])
        if (r < _COINCIDENT_TOL).any():
            raise DomainError("evaluation point coincides with an image point")
        terms = -signs[1:] / r
    else:
        v = (mats @ Z[:, None, :, None])[..., 0]
        # _h0_rad's radicands are > 0, so each power is below 1e162
        terms = signs * np.float_power(_h0_rad(v, P[:, None]), -0.5)
    return list(map(math.fsum, terms.tolist()))


def gamma_direct(z: Point3, p: Point3, cfg: SectorConfig) -> float:
    """1/|zbar e^{2i t0} - p| - sum_{j=1}^{K/2-1} (1/|z e^{4ij t0} - p|
    - 1/|zbar e^{(4j+2)i t0} - p|): the image-interaction kernel, for |z|
    and |p| up to _COORD_MAX."""
    typed("cfg", cfg, SectorConfig)
    if max(typed("z", z, Point3).norm(), typed("p", p, Point3).norm()) > _COORD_MAX:
        raise DomainError(f"gamma takes |z| and |p| up to {_COORD_MAX:g}")
    return _direct("gamma", z.as_array()[None], p.as_array()[None], cfg.K)[0]


def _in_plane(b: Point3) -> Tuple[float, float]:
    """|b| and arg b of a point of the z1 z2 plane."""
    if abs(typed("b", b, Point3).z3) > 1e-12:
        raise DomainError("b must lie in the z1 z2 plane")
    return math.hypot(b.z1, b.z2), math.atan2(b.z2, b.z1)


@lru_cache(maxsize=64)
def _closed_tables(K: int) -> Tuple[np.ndarray, List[float], np.ndarray]:
    """What the two closed forms take from K alone, j < K/2: the odd angles
    (2j+1) theta0 and the sin^2(2j theta0), read-only, and the
    -csc(2j theta0) for j > 0, from sector_images' sines, squared by pow as
    float ** is (x * x is an ulp off for some).  The closed forms take the
    sines of the shifted odd angles from np.sin, whose float64 loop gives
    math.sin's bits there."""
    t0, s = SectorConfig(K).theta0, sector_images(K)[0][:K // 2, 1, 0]
    # |s| <= 1: no overflow
    odd, sin2 = np.arange(1, K, 2) * t0, np.float_power(s, 2)
    odd.flags.writeable = sin2.flags.writeable = False
    return odd, (-1.0 / s[1:]).tolist(), sin2


def _gamma_bb_closed(babs: float, alpha_b: float, cfg: SectorConfig) -> float:
    """The exact cosecant resummation of gamma(b, b)."""
    if not 0.5 < babs < 1.0:
        raise DomainError("|b| must lie in (1/2, 1)")
    if abs(alpha_b) >= cfg.theta0 / 2.0:
        raise DomainError("|alpha_b| must be below theta0/2")
    odd, neg_csc, _ = _closed_tables(cfg.K)
    return math.fsum((1.0 / np.sin(odd - alpha_b)).tolist() + neg_csc) / (2.0 * babs)


def gamma_bb(b: Point3, cfg: SectorConfig) -> KernelReport:
    """Diagonal value gamma(b, b) with its exact cosecant resummation and the
    alpha_b = 0 asymptotic Shat_1(K)/(2|b|)."""
    typed("cfg", cfg, SectorConfig)
    babs, alpha_b = _in_plane(b)
    closed = _gamma_bb_closed(babs, alpha_b, cfg)
    # the closed form has checked |b| < 1, which gamma_direct takes
    bv = b.as_array()[None]
    direct = _direct("gamma", bv, bv, cfg.K)[0]
    asym = s_hat(1, cfg.K) / (2.0 * babs)
    return KernelReport(direct, closed, asym)


# ---------------------------------------------------------------------------
# regular part of the ball Green's function


def _h0_rad(v: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """The (n, K) radicands 1 - 2 v.p + |v|^2 |p|^2 = |p|^2 |v - p/|p|^2|^2
    of h0 at (n, K, 3) points ``v`` and (n, 1, 3) ``pv``: 0 only at p's
    Kelvin image p/|p|^2 (as rounded), a DomainError, and <= 0 elsewhere only
    by round-off, an AccuracyError; the first row holding one decides."""
    pp = np.vecdot(pv, pv)
    rad = 1.0 - 2.0 * np.vecdot(v, pv) + np.vecdot(v, v) * pp
    bad = rad <= 0.0
    if bad.any():
        i = bad.any(axis=1).argmax()
        if np.any(bad[i] & np.all(v[i] == pv[i] / pp[i], axis=-1)):
            raise DomainError("h0 is singular at the Kelvin image of its second point")
        raise AccuracyError("the radicand of h0 cancelled to <= 0 in round-off")
    return rad


def h0e(z: Point3, p: Point3, cfg: SectorConfig) -> float:
    """The alternating extension in its first slot of
    h0(z, p) = (1 - 2 z.p + |z|^2 |p|^2)^{-1/2}, for |z|, |p| and |z||p| up
    to _COORD_MAX."""
    typed("cfg", cfg, SectorConfig)
    nz, npn = typed("z", z, Point3).norm(), typed("p", p, Point3).norm()
    if max(nz, npn, nz * npn) > _COORD_MAX:
        raise DomainError(f"h0e takes |z|, |p| and |z||p| up to {_COORD_MAX:g}")
    return _direct("h0e", z.as_array()[None], p.as_array()[None], cfg.K)[0]


def _h0e_bb_closed(babs: float, alpha_b: float, cfg: SectorConfig) -> float:
    """The exact shifted-sum closed form of h0e(b, b)."""
    if not 0.0 < babs < 1.0:
        raise DomainError("|b| must lie in (0, 1)")
    if abs(alpha_b) > cfg.theta0 / 2.0:
        raise DomainError("|alpha_b| must be at most theta0/2")
    d = (1.0 - babs * babs) / (2.0 * babs)
    d2 = d * d
    odd, _, sin2 = _closed_tables(cfg.K)
    # sin^2 <= 1 and each base is >= d^2 > 1e-32 (d >= 1.1e-16): no overflow
    shifted = np.float_power(np.sin(odd - alpha_b), 2)
    terms = np.float_power(d2 + np.concatenate((sin2, shifted)), -0.5)
    terms[len(sin2):] *= -1.0
    return math.fsum(terms.tolist()) / (2.0 * babs)


def h0e_bb(b: Point3, cfg: SectorConfig) -> KernelReport:
    """Diagonal value h0e(b, b) with its exact shifted-sum closed form and the
    alpha_b = 0 asymptotic S_1(K, d)/(2|b|), d = (1 - |b|^2)/(2|b|)."""
    typed("cfg", cfg, SectorConfig)
    babs, alpha_b = _in_plane(b)
    closed = _h0e_bb_closed(babs, alpha_b, cfg)
    # the closed form has checked |b| < 1, which h0e takes
    bv = b.as_array()[None]
    direct = _direct("h0e", bv, bv, cfg.K)[0]
    d = (1.0 - babs * babs) / (2.0 * babs)
    # S_1 alone: alt_sums' three sums take ~2.6 times as long as one, and
    # a diagonal point's d is seldom revisited
    asym = sum_direct(SumSpec("alt", 1, cfg.K, d)) / (2.0 * babs)
    return KernelReport(direct, closed, asym)


# ---------------------------------------------------------------------------
# first and second derivatives along the placement direction


@lru_cache(maxsize=256)
def _w_sums(K: int, b_abs: float, alpha_b: float, w_abs: float, alpha_w: float):
    """The exact image sums of the w-derivatives at (b, b), b = b_abs e^{i
    alpha_b} and w = w_abs e^{i alpha_w}, from one set of image vectors M b
    and M w: the z-slot and p-slot gradients and the mixed Hessian of gamma
    (entry 0) and of h0e (entry 1, or the typed error of h0's radicand)."""
    mats, signs = sector_images(K)
    bv = np.array([b_abs * math.cos(alpha_b), b_abs * math.sin(alpha_b), 0.0])
    w = w_abs * np.array([math.cos(alpha_w), math.sin(alpha_w), 0.0])
    # one (3K, 3) matvec each, row for row the bits of the stacked one
    v, mw = ((mats.reshape(-1, 3) @ u).reshape(-1, 3) for u in (bv, w))
    mww = np.vecdot(mw, w)
    r = v[1:] - bv
    rn = _norm(r)
    # |r| < 2 for |b| < 1: no power overflows
    rn3, rn5 = np.float_power(rn, [[3.0], [5.0]])
    rw, rmw = np.vecdot(r, w), np.vecdot(r, mw[1:])
    newton = (
        math.fsum((signs[1:] * rmw / rn3).tolist()),
        math.fsum((-signs[1:] * rw / rn3).tolist()),
        math.fsum((-signs[1:] * (mww[1:] / rn3 - 3.0 * rmw * rw / rn5)).tolist()),
    )
    try:
        # _h0_rad's radicands are > 0, so F is finite
        F = np.float_power(_h0_rad(v[None], bv[None, None])[0], -0.5)
    except (DomainError, AccuracyError) as exc:
        return newton, exc.with_traceback(None)
    v2 = np.vecdot(v, v)[:, None]
    # F <= 2^28.5, so F^3 and F^5 are finite: a computed radicand
    # 1 - 2t + s, t = v.b and s = |v|^2 |b|^2, is <= 0 (raised above) or
    # >= 2^-57.  A 2t < 1/2 leaves it >= 1/2.  Else 1 and 2t are multiples
    # of 2^-53, and so is 1 - 2t as rounded; s >= t^2 (1 - 2^-48) > 2^-5
    # (Cauchy-Schwarz, each 3-term dot product within a relative 2^-51) is a
    # multiple of 2^-57, so their sum, if > 0, rounds to at least 2^-57
    F3, F5 = np.float_power(F, [[3.0], [5.0]])
    gz = np.vecdot(bv - v2 * v, mw)
    gp = np.vecdot(v - v2 * bv, w)
    return newton, (
        math.fsum((signs * F3 * gz).tolist()),
        math.fsum((signs * F3 * gp).tolist()),
        math.fsum((signs * (3.0 * F5 * gz * gp + F3 * (
            mww - 2.0 * np.vecdot(v, mw) * np.vecdot(bv, w)))).tolist()),
    )


def _exact(kind: str, K: int, b_abs: float, alpha_b: float, w_abs: float,
           alpha_w: float) -> Tuple[float, float, float]:
    """_w_sums' entry for ``kind``, or a fresh copy of its cached error raised."""
    sums = _w_sums(K, b_abs, alpha_b, w_abs, alpha_w)[kind == "h0e"]
    if isinstance(sums, Exception):
        raise type(sums)(*sums.args)
    return sums


def _check_w_sums(K: int, gnorm: float, babs: float, alpha_b: float) -> None:
    """Raise DomainError unless gnorm is finite and positive and no sum of
    the w-derivatives at b = |b| e^{i alpha_b} (_w_sums), with |w| = gnorm,
    can overflow.

    b's tail images lie at least r = min(1, 2|b|) sin(min(delta, theta0/2))
    from b, delta the angle from alpha_b to the nearest odd multiple of
    theta0: the rotations move b by 2|b| sin(2j theta0) >= 2|b| sin(2 theta0),
    and the reflections by 2|b| sin of at least delta.  h0's radicand is at
    least (1 - |b|^2)^2.  So every term and partial product of the K-term
    sums is under (1 + gnorm)^2 times 4/r^3 (Newton) or 15/(1 - |b|^2)^5
    (h0e), and twice K times their sum bounds each sum with room for
    round-off.  With 1/2 < |b| < 1 and |alpha_b| < theta0/2, which the
    closed forms check, r = sin(theta0/2).
    """
    real("gnorm", gnorm, positive=True)
    theta0 = math.pi / K
    # alpha_b as the angle of the point b, in [-pi, pi]
    alpha = math.atan2(math.sin(alpha_b), math.cos(alpha_b))
    delta = abs(math.remainder(alpha - theta0, 2.0 * theta0))
    r = min(1.0, 2.0 * babs) * math.sin(min(delta, theta0 / 2.0))
    g1, r3 = 1.0 + gnorm, r**3
    # an r whose cube underflows, as at |b| below about 1e-107, bounds nothing
    bound = (2.0 * K * g1 * g1 * (4.0 / r3 + 15.0 / (1.0 - babs * babs) ** 5)
             if r3 > 0.0 else math.inf)
    if not math.isfinite(bound):
        raise DomainError(f"the w-derivative sums can overflow at |w|={gnorm!r}, "
                          f"|b|={babs!r} and alpha_b={alpha_b!r}")


def _check_placed(kind: str, A: PlacedBubble, cfg: SectorConfig) -> None:
    """kernel_grad's and kernel_hess's checks: a DomainError for a kind other
    than gamma and h0e or for A's w-derivative sums (_check_w_sums), and the
    types of A and cfg."""
    if kind not in ("gamma", "h0e"):
        raise DomainError(f"unknown kernel kind {kind!r}")
    typed("A", A, PlacedBubble)
    typed("cfg", cfg, SectorConfig)
    _check_w_sums(cfg.K, A.w_abs, A.b_abs, A.alpha_b)


def full_kernels(K: int, gnorm: float, b_abs: float, alpha_b: float,
                 alpha_w: float) -> Tuple[float, float, float]:
    """H(b,b), w.(grad_z + grad_p)H(b,b) and w^T (mixed Hessian of H)(b,b) w,
    H = gamma + h0e, at b = b_abs (cos alpha_b, sin alpha_b, 0) and
    w = gnorm (cos alpha_w, sin alpha_w, 0): the coefficients of psi_full,
    the derivatives from _w_sums (cached for 256 (K, b, w), shared with
    kernel_grad and kernel_hess).  DomainError for an alpha_w that is no
    finite real number, and for a gnorm not finite and positive, or so large
    that a w-derivative sum could overflow."""
    alpha_w = real("alpha_w", alpha_w)
    sector = SectorConfig(K)
    b = Point3(b_abs * math.cos(alpha_b), b_abs * math.sin(alpha_b), 0.0)
    # |b| and arg b read back from the point, as gamma_bb and h0e_bb do: the
    # round trip moves the last bits of H
    babs, alpha_b_in = _in_plane(b)
    h_val = (_gamma_bb_closed(babs, alpha_b_in, sector)
             + _h0e_bb_closed(babs, alpha_b_in, sector))
    _check_w_sums(K, gnorm, babs, alpha_b_in)
    newton = _exact("gamma", K, b_abs, alpha_b, gnorm, alpha_w)
    ext = _exact("h0e", K, b_abs, alpha_b, gnorm, alpha_w)
    return h_val, newton[0] + newton[1] + ext[0] + ext[1], newton[2] + ext[2]


def kernel_grad(kind: str, slot: str, A: PlacedBubble,
                cfg: SectorConfig) -> KernelReport:
    """w-directional derivative of the kernel in the chosen slot at (b, b):
    finite difference (its two points one _direct call) vs exact analytic
    sum vs the alpha = 0 cosecant form.  The exact sums of both slots and
    kinds and of kernel_hess are one _w_sums evaluation, cached for the
    last 256 (K, b, w)."""
    if slot not in ("z", "p"):
        raise DomainError(f"slot must be 'z' or 'p', got {slot!r}")
    _check_placed(kind, A, cfg)
    bv, _, what = A._arrays[:3]
    pair = np.array([bv + _GRAD_STEP * what, bv - _GRAD_STEP * what])
    fixed = np.array([bv, bv])
    fp, fm = _direct(kind, *((pair, fixed) if slot == "z" else (fixed, pair)), cfg.K)
    direct = A.w_abs * (fp - fm) / (2 * _GRAD_STEP)
    closed = _exact(kind, cfg.K, A.b_abs, A.alpha_b, A.w_abs, A.alpha_w)[slot == "p"]
    if kind == "gamma":
        asym = -A.w_abs * s_hat(1, cfg.K) / (4.0 * A.b_abs**2)
    else:
        d = A.d
        s1, s3, _ = alt_sums(cfg.K, d)
        asym = A.w_abs / (4.0 * A.b_abs**2) * (-s1 + d * math.sqrt(1.0 + d * d) * s3)
    return KernelReport(direct, closed, asym)


def kernel_hess(kind: str, A: PlacedBubble, cfg: SectorConfig) -> KernelReport:
    """w^T (mixed z/p Hessian) w at (b, b): Richardson-combined second
    differences (their eight points one _direct call) vs exact analytic sum
    (kernel_grad's _w_sums, cached for 256 (K, b, w)) vs the ring asymptotic."""
    _check_placed(kind, A, cfg)
    closed = _exact(kind, cfg.K, A.b_abs, A.alpha_b, A.w_abs, A.alpha_w)[2]
    if kind == "gamma":
        s1h, s3h = s_hat(1, cfg.K), s_hat(3, cfg.K)
        quad = _a_gamma_quad(cfg.K, A.alpha_w, A.alpha_b)
        asym = A.w_abs**2 / (8.0 * A.b_abs**3) * (s1h + s3h + quad)
    else:
        d = A.d
        s1, s3, s5 = alt_sums(cfg.K, d)
        root = d + math.sqrt(1.0 + d * d)
        asym = A.w_abs**2 / (8.0 * A.b_abs**3) * (
            s1 - root * root * s3 + 3.0 * (d * d + d**4) * s5)
    bv, _, what = A._arrays[:3]
    Z, P = [], []
    for h in (_HESS_STEP, _HESS_STEP / 2.0):
        plus, minus = bv + h * what, bv - h * what
        Z += [plus, plus, minus, minus]
        P += [plus, minus, plus, minus]
    f = _direct(kind, np.array(Z), np.array(P), cfg.K)
    coarse, finer = (A.w_abs**2 * ((f[i] - f[i + 1] - f[i + 2] + f[i + 3]) / (4.0 * h * h))
                     for i, h in ((0, _HESS_STEP), (4, _HESS_STEP / 2.0)))
    direct = (4.0 * finer - coarse) / 3.0
    return KernelReport(direct, closed, asym)


# ---------------------------------------------------------------------------
# the image sum of the placed bubble


def t_a(z: Point3, A: PlacedBubble, cfg: SectorConfig) -> KernelReport:
    """The image-bubble sum of q_a over the sector reflections, with its
    kernel expansion
    eps^{1/2} q_hat gamma + eps^{3/2} w.grad_p gamma
    + (1/6) eps^{5/2} W : d2_p gamma
    as the closed form, and the first two orders as the asymptotic.  Both
    sums run over sector_images' M but the identity, with the signs negated
    as in gamma, and share r = M z - b and the powers of |r|; q_a = eps^{1/2}/|r|
    q(eps R_beta r/|r|^2 + xi_hat) is one call of the profile that
    place_bubble attached, and b, w, R_beta, xi_hat are A's cached arrays.
    |z| is at most _T_A_MAX."""
    typed("A", A, PlacedBubble)
    typed("cfg", cfg, SectorConfig)
    if A.profile is None or A.xi_hat is None:
        raise UnsupportedError("t_a needs a bubble from place_bubble, "
                               "with its profile and xi_hat")
    if typed("z", z, Point3).norm() > _T_A_MAX:
        raise DomainError(f"t_a takes |z| up to {_T_A_MAX:g}")
    mats, signs = sector_images(cfg.K)
    mats, signs = mats[1:], -signs[1:]
    b, w, _, rot, xi, W, trace = A._arrays
    # one (3(K-1), 3) matvec, row for row the bits of the stacked one
    r = (mats.reshape(-1, 3) @ z.as_array()).reshape(-1, 3) - b
    rn = _norm(r)
    if (rn < _COINCIDENT_TOL).any():
        raise DomainError("q_a is undefined at the placement point")
    # _COINCIDENT_TOL <= |r| <= _T_A_MAX + 1: every power is finite and > 0
    rn2, rn3, rn5 = np.float_power(rn, [[2.0], [3.0], [5.0]])
    e = A.eps
    # stacked matvecs, each rounded as rot @ r_i is
    inner = e * np.matmul(rot, r[:, :, None])[:, :, 0] / rn2[:, None] + xi
    direct = math.fsum((signs * (math.sqrt(e) / rn * A.profile.fn(inner))).tolist())
    g2 = -trace / rn3 + 3.0 * np.vecdot(r @ W, r) / rn5
    lead = math.sqrt(e) * A.q_hat * math.fsum((signs / rn).tolist())
    grad_term = e**1.5 * math.fsum((signs * np.vecdot(r, w) / rn3).tolist())
    hess_term = e**2.5 / 6.0 * math.fsum((signs * g2).tolist())
    closed = lead + grad_term + hess_term
    asym = lead + grad_term
    return KernelReport(direct, closed, asym)
