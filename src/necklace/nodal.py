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
    if len(bbox) != 3 or not all(len(ax) == 2 and math.isfinite(ax[0])
                                 and math.isfinite(ax[1]) and ax[0] < ax[1]
                                 for ax in bbox):
        raise DomainError("bbox must be a finite positive half-width or three "
                          "finite (lo, hi) pairs with lo < hi")
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


def _collect_edge_segments(vals_a, vals_b, pts_a, pts_b, segs):
    mask = np.sign(vals_a) * np.sign(vals_b) < 0
    if np.any(mask):
        segs.append((pts_a[mask], pts_b[mask]))


def nodal_mesh(p: CrownParams, profile: ProfileHandle, bbox, resolution: int) -> NodalMesh:
    """Scan a resolution^3 grid for sign changes along the axis edges and
    refine each crossing by bisection until the residual is at most 1e-8.

    An empty result is returned as an empty mesh, not an error."""
    bbox = _normalize_bbox(bbox)
    if resolution < 16:
        raise DomainError("resolution must be >= 16 per axis")
    xs = np.linspace(*bbox[0], resolution)
    ys = np.linspace(*bbox[1], resolution)
    zs = np.linspace(*bbox[2], resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    plane_xy = np.stack([gx, gy], axis=-1)

    segs = []
    prev_vals = None
    prev_pts = None
    # slab-by-slab scan in deterministic z order
    for z in zs:
        pts = np.concatenate(
            [plane_xy, np.full((resolution, resolution, 1), z)], axis=-1
        )
        vals = profile.fn(pts)
        _collect_edge_segments(
            vals[:-1, :].ravel(), vals[1:, :].ravel(),
            pts[:-1, :].reshape(-1, 3), pts[1:, :].reshape(-1, 3), segs,
        )
        _collect_edge_segments(
            vals[:, :-1].ravel(), vals[:, 1:].ravel(),
            pts[:, :-1].reshape(-1, 3), pts[:, 1:].reshape(-1, 3), segs,
        )
        if prev_vals is not None:
            _collect_edge_segments(
                prev_vals.ravel(), vals.ravel(),
                prev_pts.reshape(-1, 3), pts.reshape(-1, 3), segs,
            )
        prev_vals, prev_pts = vals, pts

    if not segs:
        empty = np.empty((0, 3))
        return NodalMesh(points=empty, values=np.empty(0), gradients=np.empty(0),
                         bbox=bbox, resolution=resolution)

    a = np.concatenate([s[0] for s in segs])
    b = np.concatenate([s[1] for s in segs])
    fa = profile.fn(a)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        # once every row's midpoint equals one of its ends, further steps
        # change nothing: mid == a gives fm == fa, and mid == b gives f(b),
        # whose sign always differs from fa's
        if np.all(np.all(mid == a, axis=1) | np.all(mid == b, axis=1)):
            break
        fm = profile.fn(mid)
        left = (fa < 0) == (fm < 0)
        a = np.where(left[:, None], mid, a)
        fa = np.where(left, fm, fa)
        b = np.where(left[:, None], b, mid)
    mid = 0.5 * (a + b)
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
