"""Zero-level-set extraction for a profile: radial root finding along rays,
grid + edge-bisection point clouds, and the minimum gradient norm over the
extracted set (polished by Newton's method to a surface-constrained local
minimum, so it is stable under grid refinement).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .crown import CrownParams, ProfileHandle, _as_array, fd_gradient
from .errors import DomainError, NotFoundError, UnsupportedError
from .geometry import Point3

_BISECT_ITERS = 60
#: grid points along each edge of a brick of the scan's sign certificate
_BRICK = 4
#: a brick whose bounds on u clear zero by this much has a certified sign.
#: The margin is over 5000 times u_star's round-off, ~2e-10 even next to a
#: ring centre, so every point of the brick evaluates to that sign
_SIGN_MARGIN = 1e-6
_RESIDUAL_TOL = 1e-8
#: lowest-gradient mesh points the polish starts from
_POLISH_CANDIDATES = 24
#: Newton steps a polish may take before its start counts as failed
_NEWTON_ITERS = 50

BBox = Tuple[Tuple[float, float], Tuple[float, float], Tuple[float, float]]


def _normalize_bbox(bbox) -> BBox:
    if np.isscalar(bbox):
        b = float(bbox)
        bbox = ((-b, b),) * 3
    bbox = tuple(tuple(float(v) for v in ax) for ax in bbox)
    # 3 v^2 bounds |z|^2 over the box: beyond it the field's squared
    # distances overflow
    if len(bbox) != 3 or not all(len(ax) == 2 and ax[0] < ax[1]
                                 and all(math.isfinite(3.0 * v * v) for v in ax)
                                 for ax in bbox):
        raise DomainError("bbox must be a positive half-width or three (lo, hi) "
                          "pairs with lo < hi, with 3 v^2 finite for every "
                          "coordinate v")
    return bbox  # type: ignore[return-value]


@dataclass(frozen=True)
class NodalMesh:
    """A point cloud of approximate zeros with residuals and gradient norms."""

    points: np.ndarray      # (N, 3)
    values: np.ndarray      # (N,) residuals |u|
    gradients: np.ndarray   # (N,) |grad u|
    bbox: BBox
    resolution: int
    dropped: int = 0        # crossings removed for residual > 1e-8

    def __len__(self) -> int:
        return len(self.points)


def gradient_norms(profile: ProfileHandle, points: np.ndarray) -> np.ndarray:
    """Central-difference |grad u| with scale-aware step h = 1e-5 max(1, |z|)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = 1e-5 * np.maximum(1.0, np.linalg.norm(pts, axis=-1))
    return np.linalg.norm(fd_gradient(profile.fn, pts, h), axis=-1)


def radial_nodal_root(p: CrownParams, profile: ProfileHandle, j: int,
                      direction: Union[Point3, Sequence[float]]) -> float:
    """The first sign-change radius t of profile(xi_j + t * direction) inside
    the bracket [1e-3/m, 0.5], refined by bisection to 1e-12."""
    if not 0 <= j < p.m:
        raise DomainError(f"bubble index out of range: {j}")
    d = _as_array(direction).astype(float)
    norm = float(np.linalg.norm(d))
    if not (np.isfinite(d).all() and 0.0 < norm < math.inf):
        raise DomainError(f"direction must be finite and nonzero, got {d}")
    if abs(d[2]) > 1e-12:
        raise DomainError("direction must lie in the z1 z2 plane")
    d = d / norm
    center = p.xi[j].as_array()
    lo, hi = 1e-3 / p.m, 0.5
    ts = np.linspace(lo, hi, 1024)
    vals = profile.fn(center + ts[:, None] * d)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(sign_change) == 0:
        raise NotFoundError("no sign change in the bracket [1e-3/m, 0.5]")
    a, b = float(ts[sign_change[0]]), float(ts[sign_change[0] + 1])
    fa = float(profile.fn(center + a * d))
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        fm = float(profile.fn(center + mid * d))
        if fm == 0.0:
            return mid
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _axis_bounds(axis: np.ndarray, centres: np.ndarray, amp: np.ndarray):
    """Per brick of grid points along ``axis`` and per bubble, the squared
    coordinate distances to the bubble's centre that give the lowest (lo)
    and the highest (hi) value of its term: the farthest and the nearest for
    A > 0, and the other way round for A < 0."""
    first = axis[::_BRICK, None]
    last = np.append(axis[_BRICK - 1::_BRICK], axis[-1])[:len(first), None]
    d_first, d_last = (first - centres) ** 2, (last - centres) ** 2
    far = np.maximum(d_first, d_last)
    near = np.where((first <= centres) & (centres <= last), 0.0,
                    np.minimum(d_first, d_last))
    return np.where(amp > 0, far, near), np.where(amp > 0, near, far)


def _certified_signs(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray, bubbles):
    """Per layer of _BRICK z slabs, the certified sign of the sum of
    ``bubbles`` at the grid points (xs[i], ys[j], z) of each of its slabs:
    +1 or -1 where the bounds over the point's brick clear zero by
    _SIGN_MARGIN, 0 where the sign is unknown.

    Each bubble's term is monotone in its distance, so the farthest and
    nearest squared distances over a brick, sums of the per-axis ones, bound
    the field from below and above.  Without bubbles (None) every sign is
    unknown."""
    if bubbles is None:
        bubbles = (np.empty((0, 3)), np.empty(0), np.empty(0))
    centres, c, amp = bubbles
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = (
        _axis_bounds(ax, centres[:, i], amp) for i, ax in enumerate((xs, ys, zs)))
    for zl, zh in zip(z_lo + c, z_hi + c):
        lower = np.power(x_lo[:, None] + (y_lo + zl), -0.5) @ amp
        upper = np.power(x_hi[:, None] + (y_hi + zh), -0.5) @ amp
        brick = np.where(lower > _SIGN_MARGIN, 1.0, 0.0) - (upper < -_SIGN_MARGIN)
        yield np.repeat(np.repeat(brick, _BRICK, axis=0), _BRICK,
                        axis=1)[:len(xs), :len(ys)]


def _crossings(sign_a, sign_b, xs, ys, za, zb, di, dj, segs):
    """The grid edges from (xs[i], ys[j], za) to (xs[i + di], ys[j + dj], zb)
    whose end signs differ, in C order of (i, j)."""
    i, j = np.nonzero(sign_a * sign_b < 0)
    if len(i):
        segs.append((np.stack([xs[i], ys[j], np.full(len(i), za)], axis=-1),
                     np.stack([xs[i + di], ys[j + dj], np.full(len(i), zb)], axis=-1)))


def nodal_mesh(p: CrownParams, profile: ProfileHandle, bbox, resolution: int) -> NodalMesh:
    """Scan a resolution^3 grid for sign changes along the axis edges and
    refine each crossing by bisection until the residual is at most 1e-8.

    Where the profile is a sum of bubbles (``profile.bubbles``), a brick of
    _BRICK^3 grid points whose bounds on the field clear zero keeps its
    certified sign (see ``_certified_signs``), and the field is evaluated
    only at the points of the other bricks.  The crossings depend on the
    signs alone, so the mesh is the one a full scan gives.  A profile
    without bubbles certifies nothing and is evaluated everywhere.

    An empty result is returned as an empty mesh, not an error."""
    bbox = _normalize_bbox(bbox)
    if resolution < 16:
        raise DomainError("resolution must be >= 16 per axis")
    xs = np.linspace(*bbox[0], resolution)
    ys = np.linspace(*bbox[1], resolution)
    zs = np.linspace(*bbox[2], resolution)
    layers = _certified_signs(xs, ys, zs, profile.bubbles)
    segs = []
    prev_sign = None
    # slab-by-slab scan in deterministic z order, evaluating the field only
    # where the sign is not certified
    for k, z in enumerate(zs):
        if k % _BRICK == 0:
            certified = next(layers)
            ui, uj = np.nonzero(certified == 0.0)
        sign = certified.copy()
        if len(ui):
            pts = np.stack([xs[ui], ys[uj], np.full(len(ui), z)], axis=-1)
            sign[ui, uj] = np.sign(profile.fn(pts))
        _crossings(sign[:-1, :], sign[1:, :], xs, ys, z, z, 1, 0, segs)
        _crossings(sign[:, :-1], sign[:, 1:], xs, ys, z, z, 0, 1, segs)
        if prev_sign is not None:
            _crossings(prev_sign, sign, xs, ys, zs[k - 1], z, 0, 0, segs)
        prev_sign = sign

    if not segs:
        empty = np.empty((0, 3))
        return NodalMesh(points=empty, values=np.empty(0), gradients=np.empty(0),
                         bbox=bbox, resolution=resolution)

    a = np.concatenate([s[0] for s in segs])
    b = np.concatenate([s[1] for s in segs])
    # each edge runs along one axis: bisect that coordinate [lo, hi] only
    # (the others' midpoint 0.5 (x + x) is x)
    rows = np.arange(len(a))
    axis = np.argmax(a != b, axis=1)
    lo, hi = a[rows, axis], b[rows, axis]
    del b
    fa = np.array(profile.fn(a), dtype=float)
    live = rows
    for _ in range(_BISECT_ITERS):
        # a row whose midpoint equals one of its ends is fixed from then on:
        # mid == lo gives fm == fa, and mid == hi gives f(hi), whose sign
        # always differs from fa's.  Only the other rows are evaluated.
        m = 0.5 * (lo[live] + hi[live])
        moving = (m != lo[live]) & (m != hi[live])
        live, m = live[moving], m[moving]
        if not len(live):
            break
        mids = a[live]
        mids[np.arange(len(live)), axis[live]] = m
        fm = profile.fn(mids)
        left = (fa[live] < 0) == (fm < 0)
        lo[live[left]] = m[left]
        fa[live[left]] = fm[left]
        hi[live[~left]] = m[~left]
    mid = a
    mid[rows, axis] = 0.5 * (lo + hi)
    residual = np.abs(profile.fn(mid))
    keep = residual <= _RESIDUAL_TOL
    points = mid[keep]
    residual = residual[keep]
    grads = gradient_norms(profile, points) if len(points) else np.empty(0)
    return NodalMesh(points=points, values=residual, gradients=grads,
                     bbox=bbox, resolution=resolution,
                     dropped=int(np.count_nonzero(~keep)))


def _polish_min(profile: ProfileHandle, start: np.ndarray) -> float:
    """Minimize |grad u| constrained to u = 0 from a mesh candidate: Newton's
    method on the KKT system of min |g|^2 / 2 subject to u = 0,

        [H g - lam g; u] = 0,  Jacobian [[T[g] + H^2 - lam H, -g]; [g^T, 0]],

    with g, H and T[g] from ``profile.derivs``.  Once a step is at most
    1e-12 max(1, |z|) it takes one more step, which brings z to round-off,
    and returns |g| there.  A start that does not get there within
    _NEWTON_ITERS steps, or ends with |u| > 1e-6, gives inf."""
    z = np.array(start, dtype=float)
    u, g, hess, tg = profile.derivs(z)
    lam = float(g @ hess @ g) / float(g @ g)
    jac = np.zeros((4, 4))
    converged = False
    for _ in range(_NEWTON_ITERS):
        hg = hess @ g
        jac[:3, :3] = tg + hess @ hess - lam * hess
        jac[:3, 3] = -g
        jac[3, :3] = g
        try:
            step = np.linalg.solve(jac, -np.append(hg - lam * g, u))
        except np.linalg.LinAlgError:
            break
        z += step[:3]
        lam += float(step[3])
        u, g, hess, tg = profile.derivs(z)
        if converged:
            return float(np.linalg.norm(g)) if abs(u) <= 1e-6 else math.inf
        converged = np.linalg.norm(step[:3]) <= 1e-12 * max(1.0, np.linalg.norm(z))
    return math.inf


def gradient_min_on_nodal(mesh: NodalMesh, profile: ProfileHandle) -> float:
    """Minimum of |grad u| over the extracted zero set.

    The raw grid minimum is polished by a surface-constrained local
    minimization from the lowest-gradient candidates, which makes the result
    independent of the grid resolution.  The polish needs the profile's
    closed-form derivatives: a profile without ``derivs`` raises
    UnsupportedError."""
    if len(mesh) == 0:
        raise DomainError("empty mesh has no gradient minimum")
    if profile.derivs is None:
        raise UnsupportedError(f"the {profile.tag!r} profile has no closed-form "
                               "derivatives to polish the gradient minimum with")
    order = np.argsort(mesh.gradients)[:_POLISH_CANDIDATES]
    best = float(np.min(mesh.gradients))
    for idx in order:
        val = _polish_min(profile, mesh.points[idx])
        if val < best:
            best = val
    return best
