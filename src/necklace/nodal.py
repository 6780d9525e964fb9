"""Zero-level-set extraction for a profile: radial root finding along rays,
grid + edge-bisection point clouds, and the minimum gradient norm over the
extracted set (polished by Newton's method to a surface-constrained local
minimum, so it is stable under grid refinement).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .crown import (_BLOCK, CrownParams, ProfileHandle, _as_array,
                    _bubble_derivs, _check_points, _fd_gradient, _sq_norm)
from .errors import DomainError, NotFoundError, counted, real, typed
from .geometry import Point3

_log = logging.getLogger(__name__)

_BISECT_ITERS = 60
#: the largest resolution nodal_mesh accepts.  At RES_MAX the scan's slab
#: arrays are 8 MB each; for m = 16 a mesh has 1.4 M points, and making it
#: on one core of a shared Xeon takes ~19 s and peaks at 109 MiB of arrays
#: (tracemalloc; 168 MB resident), mostly the mesh itself, held twice while
#: its batches' results are joined; at res 512 it takes 3.8 s, 27 MiB and
#: 70 MB.  Above it the memory grows as res^2 and the time faster
RES_MAX = 1024
#: grid points along each edge of the bricks of the scan's sign certificate,
#: coarse to fine: a brick whose sign is left open is split into the bricks
#: of the next size, and the points of an open brick of the last size are
#: evaluated
_BRICKS = (8, 4, 2)
#: bricks whose bounds one matrix product gathers
_CHUNK = 1024
#: crossings nodal_mesh gathers before it refines them, from their ends to
#: their gradient norms: a batch is the first whole slabs that reach it.  It
#: bounds the working memory besides the mesh, and each batch's arrays stay
#: in the cache
_BATCH = 4 * _BLOCK
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
    the bracket [1e-3/m, 0.5], refined by bisection to 1e-12, for an integer
    0 <= j < m and a nonzero in-plane direction with coordinates up to 1e150."""
    typed("profile", profile, ProfileHandle)
    j = counted("j", j, 0, typed("p", p, CrownParams).m - 1)
    d = _as_array(direction)
    _check_points(d, "radial_nodal_root")
    norm = float(np.linalg.norm(d))
    if d.shape != (3,) or norm == 0.0 or abs(d[2]) > 1e-12:
        raise DomainError(f"direction must be a nonzero vector of the z1 z2 plane, got {d}")
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


def _axis_bounds(axis: np.ndarray, centres: np.ndarray, amp: np.ndarray, size: int):
    """Per brick of ``size`` grid points along ``axis`` (the last one may be
    shorter) and per bubble, the squared coordinate distances to the
    bubble's centre that give the lowest (lo) and the highest (hi) value of
    its term: the farthest and the nearest for A > 0, and the other way
    round for A < 0."""
    first = axis[::size, None]
    last = np.append(axis[size - 1::size], axis[-1])[:len(first), None]
    d_first, d_last = (first - centres) ** 2, (last - centres) ** 2
    far = np.maximum(d_first, d_last)
    near = np.where((first <= centres) & (centres <= last), 0.0,
                    np.minimum(d_first, d_last))
    return np.where(amp > 0, far, near), np.where(amp > 0, near, far)


def _signs(positive: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """1, -1 or 0 as int8 where the masks say positive, negative or neither."""
    return positive.view(np.int8) - negative.view(np.int8)


def _certified_signs(axis, bubbles, sizes=_BRICKS):
    """Per layer of sizes[-1] z slabs, the certified sign of the sum of
    ``bubbles`` at the grid points (axis[i], axis[j], z) of each of its
    slabs: +1 or -1 where the bounds over the point's brick clear zero by
    _SIGN_MARGIN, 0 where the sign is unknown.

    Each bubble's term is monotone in its distance, so the farthest and
    nearest squared distances over a brick, sums of the per-axis ones, bound
    the field from below and above.  Each layer of sizes[0] slabs is
    certified coarse to fine: every brick of sizes[0]^3 points is bounded,
    then each brick left open is split into the bricks of the next size,
    which divides it, and only those are bounded, _CHUNK bricks at a time.
    The z + x parts of the distance sums are formed once per layer and
    size.  A brick's lower bound is taken first, and its upper bound only
    where the lower one does not certify it positive: the lower bound is at
    most the upper one, so no brick certified positive could have been
    certified negative."""
    centres, c, amp = bubbles
    n = len(axis)
    levels = []
    for size in sizes:
        (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = (
            _axis_bounds(axis, centres[:, i], amp, size) for i in range(3))
        levels.append((size, (z_lo + c, x_lo, y_lo), (z_hi + c, x_hi, y_hi)))
    for z0 in range(0, n, sizes[0]):
        # the layer's brick signs at the current size, indexed (z, x, y)
        brick, parent = np.zeros((1,) + (-(-n // sizes[0]),) * 2, np.int8), sizes[0]
        for size, lower, upper in levels:
            if size < parent:
                r, nz, nb = parent // size, -(-min(sizes[0], n - z0) // size), -(-n // size)
                brick = brick.repeat(r, 0)[:nz].repeat(r, 1)[:, :nb].repeat(r, 2)[:, :, :nb]
                parent = size
            at = np.nonzero(brick == 0)
            if not len(at[0]):
                continue
            # the (z brick, x brick, bubble) sums of the layer's bounds
            zs = slice(z0 // size, z0 // size + len(brick))
            zx_lo = lower[0][zs, None] + lower[1]
            zx_hi = upper[0][zs, None] + upper[1]
            for lo in range(0, len(at[0]), _CHUNK):
                z, x, y = (v[lo:lo + _CHUNK] for v in at)
                low = np.power(zx_lo[z, x] + lower[2][y], -0.5) @ amp
                positive = low > _SIGN_MARGIN
                brick[z, x, y] = positive.view(np.int8)
                rest = np.flatnonzero(~positive)
                if len(rest):
                    z, x, y = z[rest], x[rest], y[rest]
                    high = np.power(zx_hi[z, x] + upper[2][y], -0.5) @ amp
                    brick[z, x, y] = -(high < -_SIGN_MARGIN).view(np.int8)
        for layer in brick:
            yield layer.repeat(parent, 0).repeat(parent, 1)[:n, :n]


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
    - the gemm's z.x_j (any order, fused or not), doubled exactly by its
      operand -2 x_j: 3u (Z + rho^2);
    - the add, whose exact result is <= 2 (Z + rho^2): 2u (Z + rho^2);
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
        # edge: the off-axis coordinates are a's, the axis one is clipped.
        # Each step is in place, so that at most three (step, n) arrays live
        xt = x.T[ax]
        s = np.clip(xt, t_lo[:, None], t_hi[:, None])
        s -= xt
        s *= s
        # xt's buffer, no longer needed, takes each axis' squared distances
        d = xt
        for k in range(3):
            np.subtract(pa[:, k, None], x[:, k], out=d)
            d *= d
            d[ax == k] = 0.0
            s += d
        del xt, d
        s += c
        sigma = np.maximum(_sq_norm(pa), _sq_norm(pb))[:, None] + base
        sigma *= 16 * _U
        s -= sigma
        inv = np.divide(1.0, s, out=np.full_like(s, np.inf), where=s > 0)
        del s
        root = np.sqrt(inv)
        total = root @ weight
        g1 = inv @ weight
        sigma *= inv
        sigma *= root
        e = sigma @ weight
        del sigma
        e += 2 * (n + 3) * _U * total
        inv *= root
        curv[sl] = inv @ weight
        del inv, root
        curv[sl] *= up / 4
        slack[sl] = g1 * np.maximum(np.abs(t_lo), np.abs(t_hi))
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
    nan in p or in the bound never certifies a sign.  err is at least the
    least normal double, so a bound of 0 marks an evaluated value."""
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
    np.maximum(err, 2.0 ** -1022, out=err)
    np.add(err, margin, out=tmp)
    return p, err, ~(np.abs(p) > tmp)


def _bisect(fn, a, axis, ends, vals, bounds):
    """Bisect coordinate ``axis`` of each point of ``a`` on the (lo, hi)
    ``ends``, where fn's values are ``vals`` and its signs at lo and hi
    differ, until the midpoint equals an end, and write that midpoint into
    ``a``.  Returns how many halvings were evaluated and certified, and per
    row fn's value at its final point where that end's value was evaluated,
    nan elsewhere.

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
    # reshape(-1) view.  The ids take the least signed type that holds -n
    state = [np.arange(n, dtype=np.min_scalar_type(-n)), ends, vals, np.zeros((n, 2)), *bounds]
    final = np.full(n, np.nan)
    evaluated = certified = 0
    for _ in range(_BISECT_ITERS):
        ends = state[1]
        m = ends[:, 0] + ends[:, 1]
        m *= 0.5
        moving = (m != ends[:, 0]) & (m != ends[:, 1])
        if not moving.all():
            gone = np.flatnonzero(~moving)
            done = state[0][gone]
            a[done, axis[done]] = m[gone]
            # the end the final midpoint equals, and its value if evaluated
            at = 2 * gone + (m[gone] != ends[gone, 0])
            final[done] = np.where(state[3].reshape(-1)[at] == 0.0,
                                   state[2].reshape(-1)[at], np.nan)
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
    return evaluated, certified, final


def _scan(profile, axis, pending):
    """Scan the grid with ``axis`` along each axis slab by slab in z order:
    append each slab's crossings to ``pending`` as the chunks (f, k, kind,
    va, vb) that _crossing_ends takes, then yield the number of points the
    slab evaluated.

    The field is evaluated only where the sign is not certified (see
    _certified_signs), and the values it evaluates are kept (nan
    elsewhere).  A slab's signs and values are flat arrays in C order of
    (i, j): point (i, j) is entry f = i res + j."""
    res = len(axis)
    layers = _certified_signs(axis, profile.bubbles)
    prev_sign = prev_value = None
    for k, z in enumerate(axis):
        if k % _BRICKS[-1] == 0:
            certified = next(layers).reshape(-1)
            todo = np.flatnonzero(certified == 0)
            ui, uj = divmod(todo, res)
            pts = np.empty((len(todo), 3))
            pts[:, 0], pts[:, 1] = axis[ui], axis[uj]
            del ui, uj
        sign = certified.copy()
        value = np.full(res * res, np.nan)
        if len(todo):
            pts[:, 2] = z
            u = profile.fn(pts)
            value[todo] = u
            sign[todo] = _signs(u > 0.0, u < 0.0)
        along_y = sign[:-1] * sign[1:]
        # the pairs (i, res - 1), (i + 1, 0) are no edges
        along_y[res - 1::res] = 0
        edges = [(sign[:-res] * sign[res:], value[:-res], value[res:], k, 0),
                 (along_y, value[:-1], value[1:], k, 1)]
        if prev_sign is not None:
            edges.append((prev_sign * sign, prev_value, value, k - 1, 2))
        for products, va, vb, slab, kind in edges:
            f = np.flatnonzero(products < 0)
            if len(f):
                pending.append((f, slab, kind, va[f], vb[f]))
        # the products are not needed while a batch is refined
        del edges, along_y, products
        yield len(todo)
        prev_sign, prev_value = sign, value


def _crossing_ends(pending, coords):
    """The ends a and b of the ``pending`` crossings, chunks (f, k, kind,
    va, vb) in the scan's order, the axis each edge runs along, its (lo, hi)
    coordinates on that axis and the values at its (a, b) ends, nan where a
    sign was certified, on the grid with ``coords`` along each axis.  An
    edge's a end is the flat point f = i res + j of slab k; kind 0 goes from
    (i, j) to (i + 1, j), kind 1 to (i, j + 1) and kind 2 from slab k to
    slab k + 1."""
    f, k, kind, va, vb = zip(*pending)
    counts = [len(v) for v in f]
    i, j = divmod(np.concatenate(f), len(coords))
    k = np.repeat(np.array(k, dtype=np.int16), counts)
    axis = np.repeat(np.array(kind, dtype=np.int8), counts)
    at = np.stack([i, j, k], axis=-1)
    del i, j, k
    a = coords[at]
    rows = np.arange(len(at))
    ends = at[rows, axis]
    at[rows, axis] += 1
    vals = np.stack([np.concatenate(va), np.concatenate(vb)], axis=-1)
    return a, coords[at], axis, coords[ends[:, None] + (0, 1)], vals


def _refine(profile, pending, coords):
    """Bisect the ``pending`` crossings (see _crossing_ends and nodal_mesh),
    emptying the list: the crossings with residual at most _RESIDUAL_TOL,
    their residuals and gradient norms, and the counts of nodal_mesh's DEBUG
    record: crossings, crossing ends evaluated, halvings evaluated and
    certified, final values evaluated and crossings dropped."""
    # each edge runs along one axis: bisect that coordinate [lo, hi] only
    # (the others' midpoint 0.5 (x + x) is x).  An end whose sign was
    # certified has no value yet
    a, b, along, ends, vals = _crossing_ends(pending, coords)
    # the chunks' arrays are copied: free them before the bisection
    pending.clear()
    ends_evaluated = 0
    for side in range(2):
        miss = np.flatnonzero(np.isnan(vals[:, side]))
        if len(miss):
            vals[miss, side] = profile.fn((a, b)[side][miss])
        ends_evaluated += len(miss)
    bounds = _edge_bounds(a, b, along, profile.bubbles)
    del b
    evaluated, certified, residual = _bisect(profile.fn, a, along, ends, vals, bounds)
    del ends, vals, bounds
    # a now holds the bisected crossings, and residual the values the
    # bisection evaluated at them
    miss = np.flatnonzero(np.isnan(residual))
    if len(miss):
        residual[miss] = profile.fn(a[miss])
    np.abs(residual, out=residual)
    keep = residual <= _RESIDUAL_TOL
    points, residual = a[keep], residual[keep]
    grads = gradient_norms(profile, points) if len(points) else np.empty(0)
    counts = (len(a), ends_evaluated, evaluated, certified, len(miss), len(a) - len(points))
    return points, residual, grads, counts


def nodal_mesh(p: CrownParams, profile: ProfileHandle, bbox: float,
               resolution: int) -> NodalMesh:
    """Scan a resolution^3 grid on the cube [-bbox, bbox]^3 for sign
    changes along the axis edges and refine each crossing by bisection until
    the residual is at most 1e-8.

    Bricks of 8^3, then 4^3, then 2^3 grid points whose bounds on the
    profile's bubbles clear zero keep their certified sign (see
    ``_certified_signs``), and the field is evaluated only at the points of
    the other bricks.  The crossings depend on the signs alone, so the mesh
    is the one a full scan gives.  The bisection likewise takes a midpoint's
    sign from interpolation bounds where they prove it (see ``_bisect``) and
    ends at the same points.  Each value evaluated at a crossing's end or at
    the final point of its bisection is kept, and the field is evaluated
    only at the crossing ends whose sign was certified and at the final
    points whose value was interpolated: since a point's value does not
    depend on the call (see ``ProfileHandle``), the residuals are those of
    evaluating every point.

    The mesh is made in one pass over the z slabs.  Each slab's crossings
    join a pending batch, and once it holds at least _BATCH crossings, or
    after the last slab, the batch is refined: its certified ends are
    evaluated, its edges bounded and bisected, and its final values and
    gradient norms taken.  The batches' results are joined in the scan's
    order.  Rows are independent, so the mesh and every count are those of
    one batch, while the working memory is two slabs, one batch and the
    results.  For m = 16 a res-192 mesh peaks at 4.8 MiB of arrays
    (tracemalloc), and res 512 and 1024 at 27 and 109 MiB, the mesh held
    twice while the results are joined.

    The half-width bbox is a real number h > 0 with 3 h^2 finite (h up to
    about 7.7e153), so no squared distance over the box overflows; anything
    else is a DomainError.  The resolution is an int or a NumPy integer
    from 16 to RES_MAX.  One DEBUG record on this module's logger gives the
    scan points evaluated, the crossings, the crossing-end values evaluated
    and reused, the halvings evaluated and certified, the final values
    evaluated and reused, and the crossings dropped.

    An empty result is returned as an empty mesh, not an error."""
    typed("profile", profile, ProfileHandle)
    h = real("bbox", bbox, positive=True)
    if not math.isfinite(3.0 * h * h):
        raise DomainError("bbox must be a positive half-width h with 3 h^2 finite")
    res = counted("resolution", resolution, 16, RES_MAX)
    axis = np.linspace(-h, h, res)
    # an empty part, so that a scan without crossings joins to an empty mesh
    parts = [(np.empty((0, 3)), np.empty(0), np.empty(0), (0,) * 6)]
    pending, scanned = [], 0
    for k, n in enumerate(_scan(profile, axis, pending)):
        scanned += n
        if pending and (k == res - 1 or sum(len(f) for f, *_ in pending) >= _BATCH):
            parts.append(_refine(profile, pending, axis))
    points, residual, grads, counts = zip(*parts)
    crossings, ends_evaluated, evaluated, certified, final_evaluated, dropped = map(sum, zip(*counts))
    _log.debug("nodal_mesh res %d: scan evaluated %d of %d points, %d crossings, "
               "ends evaluated %d and reused %d, halvings evaluated %d and "
               "certified %d, final values evaluated %d and reused %d, %d dropped",
               res, scanned, res ** 3, crossings, ends_evaluated,
               2 * crossings - ends_evaluated, evaluated, certified,
               final_evaluated, crossings - final_evaluated, dropped)
    return NodalMesh(points=np.concatenate(points), values=np.concatenate(residual),
                     gradients=np.concatenate(grads), dropped=dropped)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of the (k, 3) stack ``a`` with the same
    row of ``b``: a stacked matmul, which makes per row the BLAS call of
    np.dot on the lone rows, where a sum over the stack rounds differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _polish(derivs, starts: np.ndarray) -> np.ndarray:
    """Minimize |grad u| constrained to u = 0 from each row of the (k, 3)
    ``starts``: Newton's method on the KKT system of min |g|^2 / 2 subject
    to u = 0,

        [H g - lam g; u] = 0,  Jacobian [[T[g] + H^2 - lam H, -g]; [g^T, 0]],

    with u, g, H and T[g] from ``derivs`` of a stack of points (see
    ``_bubble_derivs``).  Once a start's step is at most 1e-12 max(1, |z|)
    it takes one more step, which brings z to round-off, and its value is
    |g| there.  A start whose Jacobian is singular, that does not get there
    within _NEWTON_ITERS steps, or that ends with |u| > 1e-6, gives inf.

    The live starts share one derivs call and one solve per step, and leave
    the stack as they finish.  Each start takes the steps of a lone polish,
    to the bit: the products of its own vectors and matrices (H g, H^2,
    g^T H g and the step and point norms) are stacked matmuls, which make
    per start the BLAS call of the lone product.  A singular Jacobian fails
    the stack's solve, which is then made start by start."""
    z = np.array(starts, dtype=float)
    best = np.full(len(z), math.inf)
    live = np.arange(len(z))
    u, g, hess, tg = derivs(z)
    lam = _dot(g, (g[:, None, :] @ hess)[:, 0]) / _dot(g, g)
    converged = np.zeros(len(z), dtype=bool)
    for _ in range(_NEWTON_ITERS):
        if not len(z):
            break
        jac = np.zeros((len(z), 4, 4))
        jac[:, :3, :3] = tg + hess @ hess - lam[:, None, None] * hess
        jac[:, :3, 3] = -g
        jac[:, 3, :3] = g
        rhs = np.empty((len(z), 4, 1))
        rhs[:, :3, 0] = -((hess @ g[:, :, None])[..., 0] - lam[:, None] * g)
        rhs[:, 3, 0] = -u
        try:
            step = np.linalg.solve(jac, rhs)[..., 0]
        except np.linalg.LinAlgError:
            step, solved = np.zeros((len(z), 4)), np.ones(len(z), dtype=bool)
            for i in range(len(z)):
                try:
                    step[i] = np.linalg.solve(jac[i], rhs[i])[:, 0]
                except np.linalg.LinAlgError:
                    solved[i] = False
            live, z, lam, converged, step = (
                v[solved] for v in (live, z, lam, converged, step))
        z += step[:, :3]
        lam += step[:, 3]
        u, g, hess, tg = derivs(z)
        # the starts that converged a step ago are done
        done = converged
        best[live[done]] = np.where(np.abs(u[done]) <= 1e-6,
                                    np.sqrt(_dot(g[done], g[done])), math.inf)
        dz = step[:, :3]
        converged = (np.sqrt(_dot(dz, dz))
                     <= 1e-12 * np.maximum(1.0, np.sqrt(_dot(z, z))))
        if done.any():
            live, z, lam, converged, u, g, hess, tg = (
                v[~done] for v in (live, z, lam, converged, u, g, hess, tg))
    return best


def gradient_min_on_nodal(mesh: NodalMesh, profile: ProfileHandle) -> float:
    """Minimum of |grad u| over the extracted zero set.

    The raw grid minimum is polished by a surface-constrained local
    minimization from the _POLISH_CANDIDATES lowest-gradient mesh points,
    all at once (see ``_polish``), which makes the result independent of
    the grid resolution.  The polish takes the closed-form derivatives of
    the profile's bubbles at the stack of live starts; each start's value
    is the bits of polishing it alone.

    A mesh that is no NodalMesh, a profile that is no ProfileHandle and an
    empty mesh are DomainErrors."""
    typed("profile", profile, ProfileHandle)
    if len(typed("mesh", mesh, NodalMesh)) == 0:
        raise DomainError("empty mesh has no gradient minimum")
    starts = mesh.points[np.argsort(mesh.gradients)[:_POLISH_CANDIDATES]]
    polished = _polish(lambda z: _bubble_derivs(z, profile.bubbles), starts)
    return min([float(np.min(mesh.gradients))] + polished.tolist())
