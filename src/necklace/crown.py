"""The crown approximate solution: a positive bubble at the origin crowned by
m negative bubbles on a ring, its explicit first correction, the midpoint
positivity estimate, and the closed-form derivatives of a bubble sum.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Tuple, Union

import numpy as np

from .errors import DomainError, NearPoleWarning
from .geometry import Point3, rotation_matrix
from .trigsums import csc_full_sum

TALENTI_AMP = 3.0**0.25

# rows per block of u_star's ring sum: the (block, m) buffer stays in cache
_BLOCK = 2048
#: the largest ring build_crown accepts: u_star's (_BLOCK, m) buffer is then
#: 64 MB, and the ring radius sqrt(1 - mu^2) already rounds to 1
M_MAX = 4096
_EYE = np.eye(3)

PointLike = Union[Point3, np.ndarray]
#: a field sum_i A_i (c_i + |z - x_i|^2)^{-1/2} as its (x, c, A)
Bubbles = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _as_array(z: PointLike) -> np.ndarray:
    if isinstance(z, Point3):
        return z.as_array()
    return np.asarray(z, dtype=float)


#: the largest |coordinate| of a point the crown functions take, and of |z|,
#: |p| and |z||p| in the kernels: past it squared distances overflow
_COORD_MAX = 1e150


def _check_points(arr: np.ndarray, name: str) -> None:
    if arr.shape[-1:] != (3,):
        raise DomainError(f"points must have a trailing axis of length 3, got {arr.shape}")
    if not (np.isfinite(arr).all() and (np.abs(arr) <= _COORD_MAX).all()):
        raise DomainError(f"{name} takes finite coordinates up to {_COORD_MAX:g}")


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class CrownParams:
    """Ring data for m bubbles, m even, 8 <= m <= M_MAX, all derived from m:
    d = sqrt(2) m log m / sum_{j<m} csc(j pi/m), the concentration
    mu = d^2/(m log m)^2, and the centres xi, equally spaced on the circle of
    radius sqrt(1 - mu^2) in the z1 z2 plane."""

    m: int

    def __post_init__(self):
        if self.m < 8 or self.m % 2 != 0:
            raise DomainError(f"m must be an even integer >= 8, got {self.m}")
        if self.m > M_MAX:
            raise DomainError(f"m must be at most {M_MAX}, got {self.m}")

    @cached_property
    def d(self) -> float:
        return math.sqrt(2.0) * self.m * math.log(self.m) / csc_full_sum(self.m)

    @cached_property
    def mu(self) -> float:
        return self.d * self.d / (self.m * math.log(self.m)) ** 2

    @property
    def ring_radius(self) -> float:
        return math.sqrt(1.0 - self.mu * self.mu)

    @cached_property
    def xi(self) -> Tuple[Point3, ...]:
        m, rr = self.m, self.ring_radius
        return tuple(Point3(rr * math.cos(2.0 * math.pi * j / m),
                            rr * math.sin(2.0 * math.pi * j / m), 0.0)
                     for j in range(m))

    def centers_array(self) -> np.ndarray:
        return np.array([p.as_array() for p in self.xi])

    @cached_property
    def _bubbles(self) -> Bubbles:
        """u_star as a sum of m + 1 bubbles A (c + |z - x|^2)^{-1/2}: the
        (m + 1, 3) centres x (the origin, then the ring), c and A, built once
        and read-only."""
        x = np.vstack([np.zeros(3), self.centers_array()])
        c = np.array([1.0] + [self.mu * self.mu] * self.m)
        amp = np.array([TALENTI_AMP] + [-TALENTI_AMP * math.sqrt(self.mu)] * self.m)
        return _read_only(x, c, amp)

    def unit_centers_array(self) -> np.ndarray:
        """The centers pushed out to the unit circle (the mu -> 0 positions)."""
        ang = 2.0 * np.pi * np.arange(self.m) / self.m
        return np.stack([np.cos(ang), np.sin(ang), np.zeros(self.m)], axis=-1)


def build_crown(m: int) -> CrownParams:
    """The ring parameters for m bubbles, CrownParams(m)."""
    return CrownParams(m)


def _sq_norm(y: np.ndarray) -> np.ndarray:
    """|y|^2 over the trailing axis of length 3, added left to right, the
    order np.sum adds three terms in: the same bits as
    np.sum(y * y, axis=-1) at a fraction of the reduction's cost."""
    sq = y * y
    r2 = sq[..., 0] + sq[..., 1]
    r2 += sq[..., 2]
    return r2


def u_bubble(z: PointLike) -> Union[float, np.ndarray]:
    """The standard bubble 3^{1/4} (1 + |z|^2)^{-1/2}.

    Raises DomainError for points without a trailing axis of length 3, and
    for a non-finite coordinate or one above 1e150 in magnitude."""
    arr = _as_array(z)
    _check_points(arr, "u_bubble")
    return _u_bubble(arr)


def _u_bubble(arr: np.ndarray) -> Union[float, np.ndarray]:
    """u_bubble without its checks, for points built from checked input."""
    val = TALENTI_AMP / np.sqrt(1.0 + np.sum(arr * arr, axis=-1))
    return float(val) if np.ndim(val) == 0 else val


def u_star(z: PointLike, p: CrownParams) -> Union[float, np.ndarray]:
    """u_bubble minus the m ring bubbles 3^{1/4} mu^{1/2} (mu^2 + |z-xi_j|^2)^{-1/2}.

    The points are walked in blocks of at most _BLOCK rows through one reused
    (block, m) buffer, every step in place, so no (N, m) temporary is made.
    A point's value does not depend on how many points share the call.
    Raises DomainError for points without a trailing axis of length 3, and
    for a non-finite coordinate or one above 1e150 in magnitude.
    """
    arr = _as_array(z)
    _check_points(arr, "u_star")
    return _u_star(arr, p)


def _u_star(arr: np.ndarray, p: CrownParams) -> Union[float, np.ndarray]:
    """u_star without its checks, for points built from checked input."""
    pts = arr.reshape(-1, 3)
    # a lone row would go through BLAS's matrix-vector product, which rounds
    # differently from the matrix-matrix product of a batch; as a 2-row batch
    # of itself it gets the value it has in any batch.  The blocks below are
    # equal for the same reason, so no block is a lone row.
    if len(pts) == 1:
        pts = np.repeat(pts, 2, axis=0)
    n = len(pts)
    # the ring bubbles' centres, c = mu^2 and A < 0 after the origin's row
    x, c, amp = p._bubbles
    rho2 = 1.0 - c[1]
    out = np.empty(n)
    buf = np.empty((min(n, _BLOCK), p.m))
    nblk = -(-n // _BLOCK)
    for i in range(nblk):
        lo, hi = i * n // nblk, (i + 1) * n // nblk
        blk = pts[lo:hi]
        r2 = _sq_norm(blk)
        # |z - xi_j|^2 expanded through a matmul; all |xi_j| are equal, and
        # mu^2 >> the round-off of the expansion, so adding mu^2 keeps this safe
        d2 = np.matmul(blk, x[1:].T, out=buf[: hi - lo])
        d2 *= 2.0
        np.subtract((r2 + rho2)[:, None], d2, out=d2)
        np.maximum(d2, 0.0, out=d2)
        d2 += c[1]
        np.power(d2, -0.5, out=d2)
        ring = d2.sum(axis=-1)
        ring *= amp[1]
        np.add(amp[0] / np.sqrt(c[0] + r2), ring, out=out[lo:hi])
    val = out[: arr.size // 3].reshape(arr.shape[:-1])
    return float(val) if val.ndim == 0 else val


Derivs = Tuple[float, np.ndarray, np.ndarray, np.ndarray]


def _bubble_derivs(z: PointLike, bubbles: Bubbles) -> Derivs:
    """The sum of ``bubbles``, its gradient g, its Hessian and its third
    derivative contracted with the gradient, T[g], at one point, in closed
    form.

    With r = z - x and s = c + |r|^2, each bubble A s^{-1/2} contributes
    grad -A r s^{-3/2}, Hessian -A (I s^{-3/2} - 3 r r^T s^{-5/2}) and
    T[g] = A (3 s^{-5/2} (I (r.g) + r g^T + g r^T) - 15 s^{-7/2} (r.g) r r^T).
    """
    zv = _as_array(z)
    if zv.shape != (3,):
        raise DomainError(f"_bubble_derivs takes a single point, got shape {zv.shape}")
    x, c, amp = bubbles
    r = zv - x
    s = c + np.einsum("ij,ij->i", r, r)
    a1 = amp / np.sqrt(s)
    a3 = a1 / s
    a5 = a3 / s
    a7 = a5 / s
    grad = -(a3 @ r)
    rr = r[:, :, None] * r[:, None, :]
    hess = 3.0 * np.einsum("i,ijk->jk", a5, rr) - a3.sum() * _EYE
    rg = r @ grad
    w = a5 @ r
    tg = (3.0 * ((a5 @ rg) * _EYE + np.outer(w, grad) + np.outer(grad, w))
          - 15.0 * np.einsum("i,ijk->jk", a7 * rg, rr))
    return float(a1.sum()), grad, hess, tg


@dataclass(frozen=True)
class ProfileHandle:
    """A scalar field on R^3 and its decomposition into bubbles.

    ``fn`` is vectorized over trailing (..., 3) point arrays.  The field is
    the sum of its ``bubbles`` (x, c, A): finite (n, 3) centres, n >= 1, and
    (n,) c > 0 and A such that fn(z) = sum_i A_i (c_i + |z - x_i|^2)^{-1/2}
    exactly, up to the round-off of evaluating it.  That round-off must stay
    within half the bound E of ``nodal._edge_bounds``, which nodal_mesh
    relies on: each c_i + |z - x_i|^2 within 16u (c_i + |x_i|^2 + |z|^2),
    u = 2^-53, each term's power within 2u relative, and the terms summed in
    any order.  u_star and u_bubble meet it.  c_star excises the bubbles
    with c < 1, and ``_bubble_derivs`` gives the field's derivatives.  The
    handle keeps the arrays it is given, uncopied, and raises DomainError
    for any other ``bubbles``.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    # out of __eq__ and __hash__, which arrays would break
    bubbles: Bubbles = field(compare=False)

    def __post_init__(self):
        b = self.bubbles
        ok = (isinstance(b, tuple) and len(b) == 3
              and all(isinstance(v, np.ndarray) and v.dtype.kind in "fiu" for v in b))
        if not (ok and b[1].ndim == 1 and len(b[1]) >= 1 and b[0].shape == (len(b[1]), 3)
                and b[2].shape == b[1].shape and (b[1] > 0).all()
                and all(np.isfinite(v).all() for v in b)):
            raise DomainError("bubbles must be (x, c, A): finite real arrays of shapes "
                              "(n, 3), (n,) and (n,), n >= 1, with c > 0")


#: u_bubble as the one bubble at the origin with c = 1
_TALENTI_BUBBLES = _read_only(np.zeros((1, 3)), np.ones(1), np.array([TALENTI_AMP]))


def talenti_profile() -> ProfileHandle:
    return ProfileHandle(fn=_u_bubble, bubbles=_TALENTI_BUBBLES)


def u_star_profile(p: CrownParams) -> ProfileHandle:
    return ProfileHandle(fn=lambda arr: _u_star(arr, p), bubbles=p._bubbles)


# up to this 1 + |z|^2 its square is finite; past it psi_d11 is
# sqrt(2) (1+|z|^2)^{-1/2} to double precision, as z1^2/(1+|z|^2)^2 < 1e-154
_S_FAR = 1e154


def psi_d11(z: PointLike) -> Union[float, np.ndarray]:
    """The explicit correction with unit poles at +-(1, 0, 0):

    -sqrt(2) (1+|z|^2)^{-1/2} (8 z1^2 - (1+|z|^2)^2) / ((1+|z|^2) sqrt((1+|z|^2)^2 - 4 z1^2))

    Raises DomainError at a pole, for points without a trailing axis of
    length 3, and for a non-finite coordinate or one above 1e150 in magnitude.
    """
    arr = _as_array(z)
    _check_points(arr, "psi_d11")
    return _psi_d11(arr)


def _psi_d11(arr: np.ndarray) -> Union[float, np.ndarray]:
    """psi_d11 at any point whose 1 + |z|^2 is finite."""
    s = 1.0 + np.sum(arr * arr, axis=-1)
    # far points take (s, z1) = (1, 0), where the ratio of the two
    # polynomials below is -1, their limit
    far = s > _S_FAR
    z1 = np.where(far, 0.0, arr[..., 0])
    sn = np.where(far, 1.0, s)
    disc = sn * sn - 4.0 * z1 * z1
    if np.any(disc <= 1e-24):
        raise DomainError("psi_d11 evaluated at (or numerically on) a pole")
    val = -math.sqrt(2.0) * s**-0.5 * (8.0 * z1 * z1 - sn * sn) / (sn * np.sqrt(disc))
    return float(val) if np.ndim(val) == 0 else val


def psi_d1(z: PointLike, p: CrownParams) -> Union[float, np.ndarray]:
    """The full ring correction

    3^{1/4} mu^{1/2} sum_{j=1}^{m/2} [ psi_d11(R_{-2(j-1)pi/m} z)
                                       + 1/|z - xihat_j| + 1/|z - xihat_{j+m/2}| ]

    where xihat_j are the unit-circle ring positions.  The rotated-correction
    poles cancel the Newtonian terms analytically; evaluation closer than
    1e-6 to a unit-circle position is flagged with a warning because the
    cancellation degrades numerically there.  Raises DomainError at a
    unit-circle position, for points without a trailing axis of length 3,
    and for a non-finite coordinate or one above 1e150 in magnitude.
    """
    arr = _as_array(z)
    _check_points(arr, "psi_d1")
    m = p.m
    units = p.unit_centers_array()
    diff = arr[..., None, :] - units
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if np.any(dist == 0.0):
        raise DomainError("psi_d1 evaluated at a unit-circle pole")
    if np.any(dist < 1e-6):
        warnings.warn(
            "evaluation within 1e-6 of a cancelling pole pair", NearPoleWarning
        )
    newton = np.sum(1.0 / dist, axis=-1)
    rotated = np.zeros(arr.shape[:-1])
    for j in range(1, m // 2 + 1):
        rot = rotation_matrix(-2.0 * math.pi * (j - 1) / m)
        rotated = rotated + _psi_d11(arr @ rot.T)
    val = TALENTI_AMP * math.sqrt(p.mu) * (rotated + newton)
    return float(val) if np.ndim(val) == 0 else val


class MidpointReport(NamedTuple):
    value: float
    lower_bound: float


def q_mid_lower(p: CrownParams) -> MidpointReport:
    """u_star at the in-ring midpoint plus psi_d1 at the unit midpoint,
    reported alongside the asymptotic lower bound 3^{1/4} d / (2 pi log m)."""
    m = p.m
    ang = math.pi / m
    rr = p.ring_radius
    xi0 = np.array([rr * math.cos(ang), rr * math.sin(ang), 0.0])
    xihat0 = np.array([math.cos(ang), math.sin(ang), 0.0])
    value = float(u_star(xi0, p)) + float(psi_d1(xihat0, p))
    bound = TALENTI_AMP * p.d / (2.0 * math.pi * math.log(m))
    return MidpointReport(value=value, lower_bound=bound)


def fd_gradient(profile: Callable[[np.ndarray], np.ndarray],
                points: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a vectorized scalar field at a (3,)
    point or at each row of (N, 3) points, with step 1e-6.

    Raises DomainError for points without a trailing axis of length 3, and
    for a non-finite coordinate or one above 1e150 in magnitude."""
    pts = np.asarray(points, dtype=float)
    _check_points(pts, "fd_gradient")
    return _fd_gradient(profile, pts, 1e-6)


def _fd_gradient(profile: Callable[[np.ndarray], np.ndarray], pts: np.ndarray,
                 h: Union[float, np.ndarray]) -> np.ndarray:
    """fd_gradient without its checks, with step ``h``: a scalar or one
    step per point.

    Each chunk of points makes one profile call on its six stencil points,
    small enough to be one block of u_star."""
    flat = pts.reshape(-1, 3)
    h = np.asarray(h, dtype=float).reshape(-1, 1)
    grad = np.empty_like(flat)
    chunk = _BLOCK // 6
    stencil = np.empty((6, min(len(flat), chunk), 3))
    for lo in range(0, len(flat), chunk):
        blk, hb = flat[lo:lo + chunk], h[lo:lo + chunk] if len(h) > 1 else h
        st = stencil[:, :len(blk)]
        for ax in range(3):
            step = hb * _EYE[ax]
            np.add(blk, step, out=st[2 * ax])
            np.subtract(blk, step, out=st[2 * ax + 1])
        vals = profile(st)
        grad[lo:lo + chunk] = (vals[0::2] - vals[1::2]).T / (2.0 * hb)
    return grad.reshape(pts.shape)
