"""Zero-level-set extraction for a profile: radial root finding along rays,
grid + edge-bisection point clouds, and the minimum gradient norm over the
extracted set (polished by Newton's method to a surface-constrained local
minimum, so it is stable under grid refinement).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .crown import (_BLOCK, CrownParams, ProfileHandle, _as_array,
                    _bubble_derivs, _check_points, _fd_gradient, _sq_norm)
from .errors import DomainError, NotFoundError
from .geometry import Point3

_log = logging.getLogger(__name__)

_BISECT_ITERS = 60
#: the largest resolution nodal_mesh accepts.  At RES_MAX the scan's slab
#: arrays are 8 MB each and its brick bounds (256, 256, n + 1) for a ring of
#: n; for m = 16 a mesh has 1.4 M points, and making it peaks at 300 MB of
#: arrays (420 MB resident) and takes ~50 s.  Above it the memory grows as
#: res^2 and the time faster
RES_MAX = 1024
#: grid points along each edge of a brick of the scan's sign certificate
_BRICK = 4
#: a brick whose bounds on u clear zero by this much has a certified sign.
#: The margin is over 5000 times u_star's round-off, ~2e-10 even next to a
#: ring centre, so every point of the brick evaluates to that sign
_SIGN_MARGIN = 1e-6
_RESIDUAL_TOL = 1e-8
#: the unit round-off of a double
_U = 2.0 ** -53
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
    dropped: int = 0        # crossings removed for residual > 1e-8

    def __len__(self) -> int:
        return len(self.points)


def gradient_norms(profile: ProfileHandle, points: np.ndarray) -> np.ndarray:
    """Central-difference |grad u| with scale-aware step h = 1e-5 max(1, |z|).

    Raises DomainError for points without a trailing axis of length 3 and
    for a non-finite coordinate or one above 1e150 in magnitude."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _check_points(pts, "gradient_norms")
    h = 1e-5 * np.maximum(1.0, np.linalg.norm(pts, axis=-1))
    return np.linalg.norm(_fd_gradient(profile.fn, pts, h), axis=-1)


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


def _signs(positive: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """1, -1 or 0 as int8 where the masks say positive, negative or neither."""
    return positive.view(np.int8) - negative.view(np.int8)


def _certified_signs(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray, bubbles):
    """Per layer of _BRICK z slabs, the certified sign of the sum of
    ``bubbles`` at the grid points (xs[i], ys[j], z) of each of its slabs:
    +1 or -1 where the bounds over the point's brick clear zero by
    _SIGN_MARGIN, 0 where the sign is unknown.

    Each bubble's term is monotone in its distance, so the farthest and
    nearest squared distances over a brick, sums of the per-axis ones, bound
    the field from below and above."""
    centres, c, amp = bubbles
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = (
        _axis_bounds(ax, centres[:, i], amp) for i, ax in enumerate((xs, ys, zs)))
    for zl, zh in zip(z_lo + c, z_hi + c):
        lower = np.power(x_lo[:, None] + (y_lo + zl), -0.5) @ amp
        upper = np.power(x_hi[:, None] + (y_hi + zh), -0.5) @ amp
        brick = _signs(lower > _SIGN_MARGIN, upper < -_SIGN_MARGIN)
        yield np.repeat(np.repeat(brick, _BRICK, axis=0), _BRICK,
                        axis=1)[:len(xs), :len(ys)]


def _edge_bounds(a: np.ndarray, b: np.ndarray, axis: np.ndarray, bubbles):
    """Per crossing edge from a to b, which differ in coordinate ``axis``
    only, the constants of _certify: (curv, slack, margin), computed in
    chunks of rows.

    On the edge the field u = sum_i A_i s_i^{-1/2}, s_i = c_i + |z - x_i|^2,
    has s_i >= S_i = c_i + dmin_i^2, where dmin_i is the distance from x_i
    to the edge, and along the edge's axis t each term has
    |d^2/dt^2 s^{-1/2}| = s^{-3/2} |3 (t - x_it)^2 / s - 1| <= 2 s^{-3/2} and
    |d/dt s^{-1/2}| <= s^{-1}.  With u = 2^-53, n bubbles and |z|^2 <= Z on
    the edge (its larger end), the profile's contract (``ProfileHandle``)
    bounds its round-off.  u_star's operation order gives it:

    - |z|^2 by squares and two adds: 3u Z;
    - + rho^2 = 1 - mu^2 in place of |x_j|^2, which differs by < 2.5u:
      u (Z + rho^2) + 2.5u rho^2;
    - the gemm's z.x_j (any order, fused or not), doubled: 3u (Z + rho^2);
    - the subtraction, whose exact result is <= 2 (Z + rho^2): 2u (Z + rho^2);
    - the clamp at 0 moves s_i only towards its exact value >= 0;
    - + mu^2: u (2 (Z + rho^2) + c);

    so s_i is within sigma_i = 16u (c_i + |x_i|^2 + Z) (11u Z and 10.5u
    |x_i|^2 are needed).  The origin term's 1 + |z|^2 is within 4u (1 + Z).
    A computed s^ >= S_i - sigma_i = w_i then gives |s^{-1/2} - s^^{-1/2}|
    <= sigma_i w_i^{-3/2} / 2.  ``pow`` (or sqrt and a divide) adds 2u
    relative, the pairwise row sum of n terms, the amplitude product and the
    origin term's add (n + 1)u of sum_i |A_i| w_i^{-1/2}.  So

        E = 2 sum_i |A_i| ((n + 3)u w_i^{-1/2} + sigma_i w_i^{-3/2} / 2)

    bounds |fl(u_star(z)) - u(z)| on the edge, with a factor 2 that covers
    u_bubble (the same steps as the origin term) and second-order terms.  Next
    to a ring centre sigma_i w_i^{-3/2} is what grows: at 2 mu from a centre
    of the m = 16 ring E is 1.7e-9, above the 1.7e-10 that u_star differs
    from a 30-digit sum there; in the zero set's tube it is ~1.4e-14.  Where
    w_i <= 0 every bound is inf and the edge certifies nothing.

    The returned constants, rounded up by (1 + 4 (n + 3) u):

    - curv = M2 / 8 with M2 = 2 sum_i |A_i| w_i^{-3/2} >= |u''| on the edge;
    - slack = u (G1 max(|lo|, |hi|) + U + E): a computed midpoint is within
      u max(|lo|, |hi|) of the exact one, and G1 = sum_i |A_i| w_i^{-1}
      bounds |u'|; U = sum_i |A_i| w_i^{-1/2} >= |u| bounds the rounding of
      the interpolated midpoint value;
    - margin = 3E."""
    x, c, amp = bubbles
    n = len(c)
    weight = np.abs(amp)
    base = c + _sq_norm(x)
    up = 1.0 + 4 * (n + 3) * _U
    curv, slack, margin = (np.empty(len(a)) for _ in range(3))
    # (step, n) blocks the size of u_star's (_BLOCK, m) buffer for m = 16
    step = max(1, 16 * _BLOCK // n)
    for lo in range(0, len(a), step):
        sl = slice(lo, lo + step)
        pa, pb, ax = a[sl], b[sl], axis[sl]
        rows = np.arange(len(ax))
        t_lo, t_hi = pa[rows, ax], pb[rows, ax]
        # the squared distance from each centre to the nearest point of the
        # edge: the off-axis coordinates are a's, the axis one is clipped
        xt = x.T[ax]
        s = np.clip(xt, t_lo[:, None], t_hi[:, None]) - xt
        s *= s
        for k in range(3):
            d = pa[:, k, None] - x[:, k]
            d *= d
            d[ax == k] = 0.0
            s += d
        s += c
        sigma = np.maximum(_sq_norm(pa), _sq_norm(pb))[:, None] + base
        sigma *= 16 * _U
        s -= sigma
        inv = np.divide(1.0, s, out=np.full_like(s, np.inf), where=s > 0)
        root = np.sqrt(inv)
        total = root @ weight
        e = (sigma * inv * root) @ weight
        e += 2 * (n + 3) * _U * total
        curv[sl] = (inv * root) @ weight
        curv[sl] *= up / 4
        slack[sl] = (inv @ weight) * np.maximum(np.abs(t_lo), np.abs(t_hi))
        slack[sl] += total
        slack[sl] += e
        slack[sl] *= _U * up
        margin[sl] = 3 * up * e
    return curv, slack, margin


def _certify(ends, vals, errs, curv, slack, margin):
    """For (lo, hi) ``ends`` with values ``vals`` within ``errs`` + E of u
    (0 where a value was evaluated, E the profile's round-off, see
    _edge_bounds): the interpolated midpoint values p = (vlo + vhi) / 2,
    bounds err and the mask of the rows whose midpoint sign is not certified.

    |p - u(mid)| <= err + E with err = ((elo + ehi) / 2 + curv h^2 + slack)
    (1 + 2^-48), h = hi - lo: linear interpolation's error, the offset of the
    computed midpoint and the rounding of p, with a factor that covers the
    rounding of err itself.  Where |p| > err + margin = err + 3E, fl(u(mid))
    is within err + 2E of p and has p's sign, so ``p`` may stand for it.  A
    nan in p or in the bound never certifies a sign."""
    p = vals[:, 0] + vals[:, 1]
    p *= 0.5
    err = ends[:, 1] - ends[:, 0]
    err *= err
    err *= curv
    tmp = errs[:, 0] + errs[:, 1]
    tmp *= 0.5
    err += tmp
    err += slack
    err *= 1.0 + 2.0 ** -48
    np.add(err, margin, out=tmp)
    return p, err, ~(np.abs(p) > tmp)


def _bisect(fn, a, axis, ends, vals, bounds):
    """Bisect coordinate ``axis`` of each point of ``a`` on the (lo, hi)
    ``ends``, where fn's values are ``vals`` and its signs at lo and hi
    differ, until the midpoint equals an end, and write that midpoint into
    ``a``.  Returns how many halvings were evaluated and certified.

    A row whose midpoint equals one of its ends is fixed from then on: mid
    == lo gives fm == fa, and mid == hi gives f(hi), whose sign always
    differs from fa's.  So it leaves the live state, which is compacted only
    then and otherwise updated in place.  A halving takes each live
    midpoint's sign from _certify, with ``bounds`` = (curv, slack, margin)
    (see _edge_bounds), where it can, and evaluates fn at the other
    midpoints only.  Each row takes the branches that evaluating every
    midpoint takes."""
    n = len(ends)
    # the live rows' ids, (lo, hi) ends, values at them and the values'
    # error bounds, and the rows' constants.  The pairs are C-ordered (n, 2)
    # arrays, so that row i's lo and hi are entries 2i and 2i + 1 of their
    # reshape(-1) view
    state = [np.arange(n), ends, vals, np.zeros((n, 2)), *bounds]
    evaluated = certified = 0
    for _ in range(_BISECT_ITERS):
        ends = state[1]
        m = ends[:, 0] + ends[:, 1]
        m *= 0.5
        moving = (m != ends[:, 0]) & (m != ends[:, 1])
        if not moving.all():
            done = state[0][~moving]
            a[done, axis[done]] = m[~moving]
            # compact in place, one array's copy alive at a time
            keep = np.flatnonzero(moving)
            k = len(keep)
            for v in state:
                v[:k] = v.take(keep, axis=0)
            state, m = [v[:k] for v in state], m.take(keep)
            if not k:
                break
        live, ends, vals = state[:3]
        val, err, need = _certify(*state[1:])
        pick = np.flatnonzero(need)
        rows = live[pick]
        evaluated += len(rows)
        certified += len(m) - len(rows)
        if len(rows):
            mids = a.take(rows, axis=0)
            at = np.arange(0, 3 * len(rows), 3)
            at += axis.take(rows)
            mids.reshape(-1)[at] = m[pick]
            del rows
            val[pick] = fn(mids)
            del mids
        # the midpoint replaces lo where its sign is lo's, else hi
        at = np.arange(0, 2 * len(m), 2)
        at += (vals[:, 0] < 0) != (val < 0)
        ends.reshape(-1)[at] = m
        vals.reshape(-1)[at] = val
        err[pick] = 0.0
        state[3].reshape(-1)[at] = err
    else:
        ends = state[1]
        a[state[0], axis[state[0]]] = 0.5 * (ends[:, 0] + ends[:, 1])
    return evaluated, certified


def _crossings(products, k, kind, found):
    """Record the grid edges whose products of end signs are negative, from
    ``products`` per flat point f of their a ends: their f in increasing
    order, the z index ``k`` of their a ends and their ``kind``.  Below
    RES_MAX, f fits an int32 and k an int16."""
    f = np.flatnonzero(products < 0)
    if len(f):
        found.append((f.astype(np.int32), k, kind))


def _crossing_ends(found, res, xs, ys, zs):
    """The ends a and b of the ``found`` crossings in the scan's order, the
    axis each edge runs along and its (lo, hi) coordinates on that axis.
    Kind 0 goes from (i, j) to (i + 1, j), kind 1 to (i, j + 1) and kind 2
    from slab k to slab k + 1."""
    counts = [len(f) for f, _, _ in found]
    i, j = divmod(np.concatenate([f for f, _, _ in found]), res)
    k = np.repeat(np.array([k for _, k, _ in found], dtype=np.int16), counts)
    axis = np.repeat(np.array([kind for _, _, kind in found], dtype=np.int8), counts)
    # indices into the coordinates xs, ys and zs laid end to end
    coords = np.concatenate([xs, ys, zs])
    at = np.stack([i, j + res, k + 2 * res], axis=-1)
    del i, j, k
    a = coords[at]
    rows = np.arange(len(at))
    lo = at[rows, axis]
    at[rows, axis] += 1
    return a, coords[at], axis, coords[lo[:, None] + (0, 1)]


def nodal_mesh(p: CrownParams, profile: ProfileHandle, bbox, resolution: int) -> NodalMesh:
    """Scan a resolution^3 grid for sign changes along the axis edges and
    refine each crossing by bisection until the residual is at most 1e-8.

    A brick of _BRICK^3 grid points whose bounds on the profile's bubbles
    clear zero keeps its certified sign (see ``_certified_signs``), and the
    field is evaluated only at the points of the other bricks.  The
    crossings depend on the signs alone, so the mesh is the one a full scan
    gives.  The bisection likewise takes a midpoint's sign from
    interpolation bounds where they prove it (see ``_bisect``) and ends at
    the same points.

    The resolution is 16 to RES_MAX.  One DEBUG record on this module's
    logger gives the scan points evaluated, the crossings, the halvings
    evaluated and certified, and the crossings dropped.

    An empty result is returned as an empty mesh, not an error."""
    bbox = _normalize_bbox(bbox)
    if not 16 <= resolution <= RES_MAX:
        raise DomainError(f"resolution must be 16 to {RES_MAX} per axis, got {resolution}")
    xs, ys, zs = (np.linspace(lo, hi, resolution) for lo, hi in bbox)
    res = resolution
    layers = _certified_signs(xs, ys, zs, profile.bubbles)
    found = []
    prev_sign = None
    scanned = 0
    # slab-by-slab scan in deterministic z order, evaluating the field only
    # where the sign is not certified.  A slab's signs are a flat array in C
    # order of (i, j): point (i, j) is entry f = i res + j
    for k, z in enumerate(zs):
        if k % _BRICK == 0:
            certified = next(layers).reshape(-1)
            todo = np.flatnonzero(certified == 0)
            ui, uj = divmod(todo, res)
            pts = np.empty((len(todo), 3))
            pts[:, 0], pts[:, 1] = xs[ui], ys[uj]
            del ui, uj
        sign = certified.copy()
        if len(todo):
            pts[:, 2] = z
            u = profile.fn(pts)
            sign[todo] = _signs(u > 0.0, u < 0.0)
            scanned += len(todo)
        _crossings(sign[:-res] * sign[res:], k, 0, found)
        along_y = sign[:-1] * sign[1:]
        # the pairs (i, res - 1), (i + 1, 0) are no edges
        along_y[res - 1::res] = 0
        _crossings(along_y, k, 1, found)
        if prev_sign is not None:
            _crossings(prev_sign * sign, k - 1, 2, found)
        prev_sign = sign

    if not found:
        _log_mesh(resolution, scanned, 0, 0, 0, 0)
        empty = np.empty((0, 3))
        return NodalMesh(points=empty, values=np.empty(0), gradients=np.empty(0))

    # each edge runs along one axis: bisect that coordinate [lo, hi] only
    # (the others' midpoint 0.5 (x + x) is x)
    a, b, axis, ends = _crossing_ends(found, res, xs, ys, zs)
    del found
    vals = np.stack([profile.fn(a), profile.fn(b)], axis=1)
    bounds = _edge_bounds(a, b, axis, profile.bubbles)
    del b
    evaluated, certified = _bisect(profile.fn, a, axis, ends, vals, bounds)
    del ends, vals, bounds
    # a now holds the bisected crossings
    residual = np.abs(profile.fn(a))
    keep = residual <= _RESIDUAL_TOL
    points, residual = a[keep], residual[keep]
    dropped = int(np.count_nonzero(~keep))
    _log_mesh(resolution, scanned, len(a), evaluated, certified, dropped)
    grads = gradient_norms(profile, points) if len(points) else np.empty(0)
    return NodalMesh(points=points, values=residual, gradients=grads, dropped=dropped)


def _log_mesh(res, scanned, crossings, evaluated, certified, dropped) -> None:
    _log.debug("nodal_mesh res %d: scan evaluated %d of %d points, %d crossings, "
               "halvings evaluated %d and certified %d, %d dropped",
               res, scanned, res ** 3, crossings, evaluated, certified, dropped)


def _polish_min(derivs, start: np.ndarray) -> float:
    """Minimize |grad u| constrained to u = 0 from a mesh candidate: Newton's
    method on the KKT system of min |g|^2 / 2 subject to u = 0,

        [H g - lam g; u] = 0,  Jacobian [[T[g] + H^2 - lam H, -g]; [g^T, 0]],

    with u, g, H and T[g] from ``derivs(z)`` (see ``_bubble_derivs``).  Once
    a step is at most 1e-12 max(1, |z|) it takes one more step, which brings
    z to round-off, and returns |g| there.  A start that does not get there
    within _NEWTON_ITERS steps, or ends with |u| > 1e-6, gives inf."""
    z = np.array(start, dtype=float)
    u, g, hess, tg = derivs(z)
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
        u, g, hess, tg = derivs(z)
        if converged:
            return float(np.linalg.norm(g)) if abs(u) <= 1e-6 else math.inf
        converged = np.linalg.norm(step[:3]) <= 1e-12 * max(1.0, np.linalg.norm(z))
    return math.inf


def gradient_min_on_nodal(mesh: NodalMesh, profile: ProfileHandle) -> float:
    """Minimum of |grad u| over the extracted zero set.

    The raw grid minimum is polished by a surface-constrained local
    minimization from the lowest-gradient candidates, which makes the result
    independent of the grid resolution.  The polish takes the closed-form
    derivatives of the profile's bubbles."""
    if len(mesh) == 0:
        raise DomainError("empty mesh has no gradient minimum")
    derivs = lambda z: _bubble_derivs(z, profile.bubbles)
    starts = mesh.points[np.argsort(mesh.gradients)[:_POLISH_CANDIDATES]]
    return min([float(np.min(mesh.gradients))] + [_polish_min(derivs, z) for z in starts])
