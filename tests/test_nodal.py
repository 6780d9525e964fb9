import logging
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from necklace.crown import (
    _BLOCK,
    ProfileHandle,
    _bubble_derivs,
    build_crown,
    talenti_profile,
    u_star,
    u_star_profile,
)
from necklace.errors import DomainError, NotFoundError
from necklace.nodal import (
    _BRICK,
    _POLISH_CANDIDATES,
    _SIGN_MARGIN,
    RES_MAX,
    _axis_bounds,
    _certified_signs,
    _certify,
    _edge_bounds,
    _normalize_bbox,
    _polish_min,
    gradient_min_on_nodal,
    gradient_norms,
    nodal_mesh,
    radial_nodal_root,
)


@pytest.fixture(scope="module")
def crown16():
    return build_crown(16)


@pytest.fixture(scope="module")
def star16(crown16):
    return u_star_profile(crown16)


@pytest.fixture(scope="module")
def mesh48(crown16, star16):
    return nodal_mesh(crown16, star16, 2.5, 48)


class TestRadialRoot:
    def test_root_is_a_zero(self, crown16, star16):
        t = radial_nodal_root(crown16, star16, 0, (-1.0, 0.0, 0.0))
        z = crown16.xi[0].as_array() - t * np.array([1.0, 0.0, 0.0])
        assert abs(star16.fn(z)) < 1e-9

    def test_same_root_by_symmetry(self, crown16, star16):
        t0 = radial_nodal_root(crown16, star16, 0, (-1.0, 0.0, 0.0))
        ang = 2.0 * np.pi / 16
        d1 = (-np.cos(ang), -np.sin(ang), 0.0)
        t1 = radial_nodal_root(crown16, star16, 1, d1)
        assert t1 == pytest.approx(t0, abs=1e-10)

    def test_bad_index(self, crown16, star16):
        with pytest.raises(DomainError):
            radial_nodal_root(crown16, star16, 16, (1.0, 0.0, 0.0))

    def test_out_of_plane_direction(self, crown16, star16):
        with pytest.raises(DomainError):
            radial_nodal_root(crown16, star16, 0, (0.0, 0.5, 0.5))

    @pytest.mark.parametrize("direction", [
        (0.0, 0.0, 0.0), (np.nan, 0.0, 0.0), (-np.inf, 0.0, 0.0),
        (1.0, np.nan, 0.0), (1.0, 0.0, np.nan),
    ])
    def test_degenerate_direction(self, crown16, star16, direction):
        with pytest.raises(DomainError):
            radial_nodal_root(crown16, star16, 0, direction)

    def test_no_root_for_positive_profile(self, crown16):
        with pytest.raises(NotFoundError):
            radial_nodal_root(crown16, talenti_profile(), 0, (1.0, 0.0, 0.0))


class TestGradientNorms:
    def test_matches_closed_form(self):
        prof = talenti_profile()
        pts = np.array([[0.5, 0.0, 0.0], [0.2, -0.4, 1.0], [0.0, 0.0, 0.0]])
        r2 = np.sum(pts * pts, axis=-1)
        exact = 3.0**0.25 * np.sqrt(r2) / (1.0 + r2) ** 1.5
        assert gradient_norms(prof, pts) == pytest.approx(exact, abs=1e-9)


def _gradient_norms_loop(profile, pts):
    """Per-axis central differences, each axis one call on all points."""
    h = 1e-5 * np.maximum(1.0, np.linalg.norm(pts, axis=-1))[:, None]
    acc = np.zeros((len(pts), 3))
    for ax in range(3):
        step = h * np.eye(3)[ax]
        acc[:, ax] = (profile.fn(pts + step) - profile.fn(pts - step)) / (2.0 * h[:, 0])
    return np.linalg.norm(acc, axis=-1)


#: a coordinate: near the ring, any float, or an edge value around the
#: 1e150 bound
_COORD = st.one_of(
    st.floats(-1.5, 1.5), st.floats(),
    st.sampled_from([0.0, 1e150, -1e150, 1.0000000000000002e150, 1e200,
                     np.nan, np.inf, -np.inf]),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=3),
       st.booleans())
def test_gradient_norms_finite_or_domain_error(star16, points, single):
    # in-range points give finite norms; anything else raises DomainError,
    # and no RuntimeWarning escapes
    z = np.array(points[0] if single else points, dtype=float)
    in_range = bool(np.isfinite(z).all() and (np.abs(z) <= 1e150).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            norms = gradient_norms(star16, z)
        except DomainError:
            assert not in_range
            return
    assert in_range
    assert norms.shape == (len(np.atleast_2d(z)),) and np.isfinite(norms).all()


@pytest.mark.parametrize("n", [_BLOCK // 6 - 1, _BLOCK // 6, _BLOCK // 6 + 1])
def test_chunked_gradient_norms_match_loop(crown16, star16, n):
    rng = np.random.default_rng(n)
    centers = crown16.centers_array()
    pts = centers[rng.integers(0, 16, n)] + rng.normal(0.0, 0.05, (n, 3))
    assert np.array_equal(gradient_norms(star16, pts), _gradient_norms_loop(star16, pts))
    for i in range(3):
        assert gradient_norms(star16, pts[i]) == _gradient_norms_loop(star16, pts[i:i + 1])


class TestNodalMesh:
    def test_bbox_validation(self, crown16, star16):
        with pytest.raises(DomainError):
            nodal_mesh(crown16, star16, ((0.0, 1.0), (1.0, 0.0), (0.0, 1.0)), 16)
        with pytest.raises(DomainError):
            nodal_mesh(crown16, star16, 2.5, 8)

    @pytest.mark.parametrize("bbox", [
        np.nan, np.inf, -np.inf, -1.0, 0.0,
        ((0.0, 1.0), (0.0, np.nan), (0.0, 1.0)),
        ((-np.inf, 1.0), (0.0, 1.0), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, 1.0), (0.0, np.inf)),
        1e200,
        ((0.0, 1.0), (-8e153, 1.0), (0.0, 1.0)),
    ])
    def test_bbox_nonfinite_or_reversed(self, crown16, star16, bbox):
        with pytest.raises(DomainError):
            nodal_mesh(crown16, star16, bbox, 16)

    def test_resolution_above_res_max(self, crown16, star16):
        # refused before any grid array is made
        with pytest.raises(DomainError, match=f"resolution must be 16 to {RES_MAX}"):
            nodal_mesh(crown16, star16, 2.5, RES_MAX + 1)
        with pytest.raises(DomainError):
            nodal_mesh(crown16, star16, 2.5, 100_000)

    def test_scalar_bbox_normalized(self):
        assert _normalize_bbox(1.5) == ((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5))

    def test_empty_for_positive_profile(self, crown16):
        mesh = nodal_mesh(crown16, talenti_profile(), 2.0, 16)
        assert len(mesh) == 0
        with pytest.raises(DomainError):
            gradient_min_on_nodal(mesh, talenti_profile())

    def test_residuals_and_containment(self, crown16, star16):
        mesh = nodal_mesh(crown16, star16, 2.5, 48)
        assert len(mesh) > 0
        assert np.max(mesh.values) <= 1e-8
        assert np.all(np.abs(mesh.points) <= 2.5 + 1e-12)

    def test_dropped_count(self, crown16, star16):
        # kept + dropped is every sign-changing grid edge
        res = 48
        mesh = nodal_mesh(crown16, star16, 2.5, res)
        ax = np.linspace(-2.5, 2.5, res)
        grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        sign = np.sign(star16.fn(grid))
        edges = sum(int(np.count_nonzero(
            np.take(sign, range(res - 1), axis=a) * np.take(sign, range(1, res), axis=a) < 0))
            for a in range(3))
        assert len(mesh) + mesh.dropped == edges
        # a sharp spike 1/|z - x| at a grid point x under a broad -1e5 well:
        # the field is positive only within ~1e-5 of x, where |grad u| ~ 1e10
        # keeps every bisected crossing above the residual bound, so all 6
        # edges from x are dropped
        xs = np.linspace(-1.0, 1.0, 16)
        x = np.array([[xs[12], xs[7], xs[7]]] * 2)
        steep = (x, np.array([1e-20, 1e8]), np.array([1.0, -1e9]))
        spike = ProfileHandle(fn=lambda a: np.sum(steep[2] / np.sqrt(
            steep[1] + np.sum((a[..., None, :] - x) ** 2, axis=-1)), axis=-1),
            bubbles=steep)
        jump = nodal_mesh(crown16, spike, 1.0, 16)
        assert (len(jump), jump.dropped) == (0, 6)


_BOX = ((-2.5, 2.5),) * 3
#: a box that is neither cubic nor centred
_SKEW_BOX = ((-2.1, 2.4), (-1.7, 2.9), (-0.8, 1.3))
#: a box whose y faces cut the zero set: the last point of a row of a slab
#: and the first of the next row differ in sign, yet no edge joins them
_Y_FACE_BOX = ((0.4, 0.8), (-0.3, 0.0), (-0.1, 0.1))


def _old_mesh(profile, bbox, res):
    """nodal_mesh as it was before its halvings were certified: a full scan,
    then each halving evaluates the midpoint of every row that still moves.
    Returns the mesh's points, values, gradients and dropped count, and the
    rows each halving evaluated."""
    xs, ys, zs = axes = [np.linspace(lo, hi, res) for lo, hi in bbox]
    sign = np.sign(profile.fn(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)))
    segs = []

    def cross(sa, sb, za, zb, di, dj):
        i, j = np.nonzero(sa * sb < 0)
        segs.append((np.stack([xs[i], ys[j], np.full(len(i), za)], axis=-1),
                     np.stack([xs[i + di], ys[j + dj], np.full(len(i), zb)], axis=-1)))

    for k in range(res):
        cross(sign[:-1, :, k], sign[1:, :, k], zs[k], zs[k], 1, 0)
        cross(sign[:, :-1, k], sign[:, 1:, k], zs[k], zs[k], 0, 1)
        if k:
            cross(sign[:, :, k - 1], sign[:, :, k], zs[k - 1], zs[k], 0, 0)
    a = np.concatenate([s[0] for s in segs])
    b = np.concatenate([s[1] for s in segs])
    rows = np.arange(len(a))
    axis = np.argmax(a != b, axis=1)
    lo, hi = a[rows, axis], b[rows, axis]
    fa = np.array(profile.fn(a), dtype=float)
    live, sizes = rows, []
    for _ in range(60):
        m = 0.5 * (lo[live] + hi[live])
        moving = (m != lo[live]) & (m != hi[live])
        live, m = live[moving], m[moving]
        if not len(live):
            break
        sizes.append(len(live))
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
    keep = residual <= 1e-8
    points = mid[keep]
    return (points, residual[keep], gradient_norms(profile, points),
            int(np.count_nonzero(~keep)), sizes)


def _recording(profile):
    """``profile`` with a field that records each call's point count and
    whether all its points share one z, as the grid scan's calls do."""
    calls = []

    def fn(a):
        a3 = np.reshape(a, (-1, 3))
        calls.append((len(a3), bool(np.all(a3[:, 2] == a3[0, 2]))))
        return profile.fn(a)

    return replace(profile, fn=fn), calls


def _after_scan(calls):
    """The point counts of the calls after the scan's one-slab calls: the
    crossing starts, then the ends, the halvings, the residual and the
    gradient stencils."""
    first = next((i for i, (_, slab) in enumerate(calls) if not slab), len(calls))
    return sum(n for n, _ in calls[:first]), [n for n, _ in calls[first:]]


def test_halvings_evaluate_only_uncertified_moving_rows(crown16, star16, caplog):
    # a halving evaluates the rows whose midpoint still moves and whose sign
    # the interpolation bounds leave open: with the certified ones they are
    # the rows the old loop evaluated, and under half of rows x halvings
    caplog.set_level(logging.DEBUG, logger="necklace.nodal")
    recording, calls = _recording(star16)
    mesh = nodal_mesh(crown16, recording, 2.5, 96)
    _, sizes = _after_scan(calls)
    rows = len(mesh) + mesh.dropped
    grads = -(-len(mesh) // (_BLOCK // 6))
    halvings = sizes[2:-1 - grads]
    assert sizes[0] == sizes[1] == sizes[-1 - grads] == rows
    assert sum(sizes[-grads:]) == 6 * len(mesh)
    [record] = caplog.records
    evaluated, certified = record.args[4:6]
    assert sum(halvings) == evaluated and max(halvings) <= rows
    old = _old_mesh(star16, _BOX, 96)[-1]
    assert evaluated + certified == sum(old)
    assert evaluated < 0.5 * rows * len(old)


@pytest.mark.parametrize("bbox", [_BOX, _SKEW_BOX, _Y_FACE_BOX],
                         ids=["cube", "skew", "yface"])
@pytest.mark.parametrize("res", [16, 33, 48, 96])
def test_mesh_equals_old_bisection(crown16, star16, res, bbox):
    old = _old_mesh(star16, bbox, res)
    mesh = nodal_mesh(crown16, star16, bbox, res)
    assert len(mesh) > 0
    for new, ref in zip((mesh.points, mesh.values, mesh.gradients), old):
        assert np.array_equal(new, ref)
    assert mesh.dropped == old[3]


def test_mesh_is_logged(crown16, star16, caplog):
    caplog.set_level(logging.DEBUG, logger="necklace.nodal")
    recording, calls = _recording(star16)
    mesh = nodal_mesh(crown16, recording, 2.5, 48)
    scanned, sizes = _after_scan(calls)
    rows = len(mesh) + mesh.dropped
    evaluated = sum(sizes) - 3 * rows - 6 * len(mesh)
    certified = sum(_old_mesh(star16, _BOX, 48)[-1]) - evaluated
    assert 0 < scanned < 48**3 and evaluated > 0 and certified > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"nodal_mesh res 48: scan evaluated {scanned} of {48**3} points, "
        f"{rows} crossings, halvings evaluated {evaluated} and certified "
        f"{certified}, {mesh.dropped} dropped"
    ]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    caplog.clear()
    nodal_mesh(crown16, talenti_profile(), 2.5, 16)
    assert [r.getMessage() for r in caplog.records] == [
        f"nodal_mesh res 16: scan evaluated 0 of {16**3} points, 0 crossings, "
        "halvings evaluated 0 and certified 0, 0 dropped"
    ]
    # a DEBUG record only, on a logger the package gives no handler
    caplog.clear()
    caplog.set_level(logging.INFO, logger="necklace.nodal")
    nodal_mesh(crown16, star16, 2.5, 16)
    assert caplog.records == []
    assert logging.getLogger("necklace.nodal").handlers == []


class TestCertifiedHalvings:
    @staticmethod
    def _edges(crown16, mesh48, rng, region, n):
        """n edges along random axes, of lengths from 1e-4 to 0.05, through
        points of ``region``."""
        x = crown16._bubbles[0]
        if region == "centre":
            pts = x[rng.integers(1, 17, n)] + rng.normal(0.0, 3 * crown16.mu, (n, 3))
        elif region == "origin":
            pts = rng.normal(0.0, 0.05, (n, 3))
        elif region == "tube":
            pts = mesh48.points[rng.integers(len(mesh48), size=n)]
        else:
            pts = rng.uniform(-2.5, 2.5, (n, 3))
            pts *= (2.0 / np.linalg.norm(pts, axis=1))[:, None]
        axis = rng.integers(0, 3, n).astype(np.int8)
        step = np.eye(3)[axis] * (10.0 ** rng.uniform(-4, np.log10(0.05), n))[:, None]
        a = pts - rng.uniform(0, 1, (n, 1)) * step
        return a, a + step, axis

    @pytest.mark.parametrize("region", ["centre", "origin", "tube", "far"])
    def test_certified_signs_are_sound(self, crown16, mesh48, region):
        # every midpoint of every halving is evaluated: the certificate's
        # bound holds for each, and a certified sign is the evaluated one
        rng = np.random.default_rng(["centre", "origin", "tube", "far"].index(region))
        a, b, axis = self._edges(crown16, mesh48, rng, region, 400)
        curv, slack, margin = _edge_bounds(a, b, axis, crown16._bubbles)
        rows = np.arange(len(a))
        ends = np.stack([a[rows, axis], b[rows, axis]], axis=1)
        vals = np.stack([u_star(a, crown16), u_star(b, crown16)], axis=1)
        errs = np.zeros_like(ends)
        counts = [0, 0]  # evaluated, certified
        while len(rows):
            m = 0.5 * (ends[:, 0] + ends[:, 1])
            moving = (m != ends[:, 0]) & (m != ends[:, 1])
            rows, m, ends, vals, errs, curv, slack, margin = (
                v[moving] for v in (rows, m, ends, vals, errs, curv, slack, margin))
            mids = a[rows]
            mids[np.arange(len(rows)), axis[rows]] = m
            fm = u_star(mids, crown16)
            p, err, need = _certify(ends, vals, errs, curv, slack, margin)
            assert np.all(np.abs(fm - p) <= err + 2.0 * margin / 3.0)
            assert np.array_equal(np.sign(p[~need]), np.sign(fm[~need]))
            assert np.all(p[~need] != 0.0)
            counts[0] += np.count_nonzero(need)
            counts[1] += np.count_nonzero(~need)
            val, err = np.where(need, fm, p), np.where(need, 0.0, err)
            side = ((vals[:, 0] < 0) != (val < 0)).astype(int)
            at = np.arange(len(rows)), side
            ends[at], vals[at], errs[at] = m, val, err
        # only the tube holds roots, where the last halvings stay open
        assert counts[1] > 10000
        assert counts[0] > 1000 if region == "tube" else counts[0] < 200

    def test_roundoff_bound_exceeds_measured_error(self, crown16):
        # 2-4 mu from a ring centre u_star's |z|^2 + rho^2 - 2 z.xi cancels:
        # E bounds its distance from a 30-digit sum there
        x, c, amp = crown16._bubbles
        exact = [(mp.mpf(A), mp.mpf(ci), [mp.mpf(v) for v in xi])
                 for xi, ci, A in zip(x, c, amp)]

        def true_u(z):
            with mp.workdps(30):
                zs = [mp.mpf(v) for v in z]
                return mp.fsum(A / mp.sqrt(ci + mp.fsum((zk - xk) ** 2 for zk, xk in zip(zs, xi)))
                               for A, ci, xi in exact)

        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(24):
            d = rng.normal(size=3)
            z = x[rng.integers(1, 17)] + rng.uniform(2, 4) * crown16.mu * d / np.linalg.norm(d)
            axis = rng.integers(0, 3, 1).astype(np.int8)
            a, b = z[None], z[None] + 1e-6 * np.eye(3)[axis]
            e = _edge_bounds(a, b, axis, crown16._bubbles)[2][0] / 3.0
            for pt in (a[0], b[0], 0.5 * (a[0] + b[0])):
                err = abs(u_star(pt, crown16) - float(true_u(pt)))
                worst = max(worst, err)
                assert err < e
            assert e > 2e-10
        assert worst > 1e-11

    @pytest.mark.parametrize("m", [8, 16, 256])
    def test_ring_radius_rounding(self, m):
        # u_star adds rho^2 = 1 - mu^2 where the exact sum has |x_j|^2: the
        # two differ by less than the 2.5u that _edge_bounds allows for
        ring = build_crown(m)
        rho2 = Fraction(1.0 - ring._bubbles[1][1])
        worst = max(abs(rho2 - sum(Fraction(float(v)) ** 2 for v in xj))
                    for xj in ring._bubbles[0][1:])
        assert worst < Fraction(5, 2) * Fraction(2.0 ** -53)


class TestCertifiedScan:
    @pytest.mark.parametrize("res", [48])
    def test_same_mesh_as_full_scan(self, crown16, star16, res):
        # the certified scan skips the nodes whose sign the bubbles settle,
        # yet gives the mesh of a full scan and full bisection
        recording, calls = _recording(star16)
        certified = nodal_mesh(crown16, recording, 2.5, res)
        full = _old_mesh(star16, _normalize_bbox(2.5), res)
        assert len(certified) > 0
        assert 0 < _after_scan(calls)[0] < (res + 1) ** 3
        for new, ref in zip((certified.points, certified.values, certified.gradients), full):
            assert np.array_equal(new, ref)
        assert certified.dropped == full[3]

    def test_certificate_is_sound(self, crown16, mesh48):
        # grids of several spacings around a ring centre, the origin, a point
        # of the zero set or anywhere in the box: one brick centred on the
        # anchor, and a grid placed at random whose lengths, not multiples of
        # the brick, leave partial bricks at the ends
        rng = np.random.default_rng(11)
        x, _c, _amp = crown16._bubbles
        counts = {1.0: 0, -1.0: 0, 0.0: 0}
        for trial in range(64):
            h = (1e-3, 0.01, 0.05, 0.2)[trial % 4]
            anchor = (x[rng.integers(1, 17)], np.zeros(3), rng.uniform(-2.0, 2.0, 3),
                      mesh48.points[rng.integers(len(mesh48))])[trial // 4 % 4]
            n = rng.integers(_BRICK + 1, 4 * _BRICK + 3, 3)
            for axes in ([anchor[i] + h * (np.arange(_BRICK) - 0.5 * (_BRICK - 1))
                          for i in range(3)],
                         [anchor[i] + h * (np.arange(n[i]) - rng.uniform(0, n[i] - 1))
                          for i in range(3)]):
                grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
                sign = np.sign(u_star(grid, crown16))
                layers = list(_certified_signs(*axes, crown16._bubbles))
                assert len(layers) == -(-len(axes[2]) // _BRICK)
                for k, layer in enumerate(layers):
                    assert layer.shape == sign.shape[:2]
                    known = layer != 0.0
                    for kz in range(k * _BRICK, min((k + 1) * _BRICK, len(axes[2]))):
                        assert np.array_equal(sign[:, :, kz][known], layer[known])
                    for v in counts:
                        counts[v] += int(np.count_nonzero(layer == v))
        assert min(counts.values()) > 1000

    def test_axis_bounds(self, crown16):
        # per brick, the far bound is the largest squared coordinate distance
        # over the brick's points and the near bound at most the smallest:
        # the term of a bubble with A > 0 is lowest far away, one with A < 0
        # closest in
        rng = np.random.default_rng(5)
        x, _c, amp = crown16._bubbles
        for n in (_BRICK, 2 * _BRICK + 1, 3 * _BRICK - 1):
            for axis in (np.linspace(-1.2, 1.3, n), np.sort(rng.uniform(-1.5, 1.5, n))):
                for ax in range(3):
                    lo, hi = _axis_bounds(axis, x[:, ax], amp)
                    assert lo.shape == hi.shape == (-(-n // _BRICK), 17)
                    for b in range(len(lo)):
                        d = (axis[b * _BRICK:(b + 1) * _BRICK, None] - x[:, ax]) ** 2
                        far = np.where(amp > 0, lo[b], hi[b])
                        near = np.where(amp > 0, hi[b], lo[b])
                        assert np.array_equal(far, d.max(axis=0))
                        assert np.all(near <= d.min(axis=0))
                        inside = (axis[b * _BRICK] <= x[:, ax]) & (
                            x[:, ax] <= axis[min((b + 1) * _BRICK, n) - 1])
                        assert np.all(near[inside] == 0.0)
                        assert np.array_equal(near[~inside], d.min(axis=0)[~inside])

    def test_well_inside_a_brick_is_not_certified(self):
        # a broad positive bubble with a narrow negative well at the origin:
        # the brick's corners are positive, the points next to the well not
        bubbles = (np.zeros((2, 3)), np.array([1.0, 1e-4]), np.array([1.0, -0.1]))
        axis = np.array([-0.3, -0.01, 0.01, 0.3])
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        r2 = np.sum(grid * grid, axis=-1)[..., None]
        vals = np.sum(bubbles[2] / np.sqrt(bubbles[1] + r2), axis=-1)
        assert vals[0, 0, 0] > 0.0 > vals[1, 1, 1]
        layers = list(_certified_signs(axis, axis, axis, bubbles))
        assert len(layers) == 1 and not np.any(layers[0])

    @pytest.mark.parametrize("amp, sign", [
        (0.9 * _SIGN_MARGIN, 0.0), (-0.9 * _SIGN_MARGIN, 0.0),
        (1.1 * _SIGN_MARGIN, 1.0), (-1.1 * _SIGN_MARGIN, -1.0),
    ])
    def test_margin(self, amp, sign):
        # a bubble of height amp: certified only where it clears the margin
        bubbles = (np.zeros((1, 3)), np.ones(1), np.array([amp]))
        axis = np.linspace(-1e-3, 1e-3, _BRICK)
        layers = list(_certified_signs(axis, axis, axis, bubbles))
        assert len(layers) == 1 and np.all(layers[0] == sign)

    def test_scan_evaluates_under_a_quarter(self, crown16, star16):
        recording, calls = _recording(star16)
        mesh = nodal_mesh(crown16, recording, 2.5, 96)
        assert len(mesh) > 0
        assert 0 < _after_scan(calls)[0] < 0.25 * 96**3

    def test_talenti_scan_evaluates_nothing(self, crown16):
        recording, calls = _recording(talenti_profile())
        mesh = nodal_mesh(crown16, recording, 2.5, 48)
        assert len(mesh) == 0
        assert calls == []

    def test_largest_bbox_runs_without_warnings(self, crown16, star16):
        half = 0.999999 * np.sqrt(np.finfo(float).max / 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prof in (star16, talenti_profile()):
                assert len(nodal_mesh(crown16, prof, half, 16)) == 0


#: a box coordinate: any float or an edge value (past sqrt(max / 3) the
#: field's squared distances overflow)
_COORD = st.one_of(st.floats(), st.sampled_from(
    [np.nan, np.inf, -np.inf, 0.0, 1e150, -1e150, 7.7e153, -7.7e153, 1e300]))
#: a box axis: one that meets the ring or any pair of coordinates
_AXIS = st.one_of(st.tuples(st.floats(-3.0, -0.2), st.floats(0.2, 3.0)),
                  st.tuples(_COORD, _COORD))


@settings(max_examples=80)
@given(st.one_of(st.floats(0.2, 3.0), _COORD, st.tuples(_AXIS, _AXIS, _AXIS)),
       st.integers(16, 24))
def test_mesh_does_not_depend_on_bubbles(crown16, star16, bbox, res):
    # the certified scan and halvings give the mesh of a full scan and full
    # bisection, with no warning either way; a box nodal_mesh rejects is no
    # example
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mesh = nodal_mesh(crown16, star16, bbox, res)
        except DomainError:
            reject()
        full = _old_mesh(star16, _normalize_bbox(bbox), res)
    for new, ref in zip((mesh.points, mesh.values, mesh.gradients), full):
        assert np.array_equal(new, ref)
    assert mesh.dropped == full[3]
    assert np.all(mesh.values <= 1e-8)


class TestGradientMin:
    def test_positive_and_stable_under_refinement(self, crown16, star16):
        coarse = nodal_mesh(crown16, star16, 2.5, 48)
        fine = nodal_mesh(crown16, star16, 2.5, 96)
        g_coarse = gradient_min_on_nodal(coarse, star16)
        g_fine = gradient_min_on_nodal(fine, star16)
        assert g_coarse > 0.0
        assert g_fine == pytest.approx(g_coarse, abs=1e-6)

    def test_polish_never_increases(self, crown16, star16):
        mesh = nodal_mesh(crown16, star16, 2.5, 48)
        raw = mesh.gradients.min()
        polished = gradient_min_on_nodal(mesh, star16)
        assert polished <= raw + 1e-15

    def test_polished_minimum_independent_of_resolution(self, crown16, star16, mesh48):
        fine = nodal_mesh(crown16, star16, 2.5, 96)
        g_coarse = gradient_min_on_nodal(mesh48, star16)
        g_fine = gradient_min_on_nodal(fine, star16)
        assert abs(g_fine - g_coarse) <= 1e-12

    def test_polished_values_are_gradients_on_the_zero_set(self, crown16, star16, mesh48):
        # the polish evaluates derivs last at the point it stops at
        seen = []

        def derivs(z):
            seen.append(z.copy())
            return _bubble_derivs(z, star16.bubbles)

        order = np.argsort(mesh48.gradients)[:_POLISH_CANDIDATES]
        for idx in order:
            start = mesh48.points[idx].copy()
            val = _polish_min(derivs, mesh48.points[idx])
            z = seen[-1]
            assert np.array_equal(mesh48.points[idx], start)
            assert abs(u_star(z, crown16)) <= 1e-12
            assert val == np.linalg.norm(_bubble_derivs(z, crown16._bubbles)[1])
            assert val == pytest.approx(gradient_norms(star16, z)[0], rel=1e-8)

    def test_failed_start_gives_inf(self, star16):
        # from a start far outside the zero set the Newton steps run off to
        # infinity, and the start does not converge within the step budget
        derivs = lambda z: _bubble_derivs(z, star16.bubbles)
        assert _polish_min(derivs, np.array([40.0, 30.0, 20.0])) == np.inf

    def test_stalled_start_off_the_zero_set_gives_inf(self):
        # a field so steep that the Newton step to u = 0 is below the step
        # bound: the polish stops, but at |u| = 1e-3, off the zero set
        def steep(z):
            return 1e-3, np.array([1e20, 0.0, 0.0]), np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3))

        assert _polish_min(steep, np.zeros(3)) == np.inf

    def test_polishes_any_bubble_sum(self, crown16):
        # (1 + |z|^2)^{-1/2} - (0.1 + |z - x|^2)^{-1/2} / 2, x = (0.2, 0, 0):
        # its zero set is a closed surface around x, and |grad u| on it is
        # least where it crosses the axis at t = 11/15
        x = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])

        def fn(a):
            return ((1.0 + np.sum(a * a, axis=-1)) ** -0.5
                    - 0.5 * (0.1 + np.sum((a - x[1]) ** 2, axis=-1)) ** -0.5)

        pair = ProfileHandle(fn=fn, bubbles=(
            x, np.array([1.0, 0.1]), np.array([1.0, -0.5])))
        t = 11.0 / 15.0
        exact = (0.5 * (t - 0.2) * (0.1 + (t - 0.2) ** 2) ** -1.5
                 - t * (1.0 + t * t) ** -1.5)
        for res in (16, 32):
            mesh = nodal_mesh(crown16, pair, 1.0, res)
            got = gradient_min_on_nodal(mesh, pair)
            assert got < mesh.gradients.min() - 1e-4
            assert got == pytest.approx(exact, rel=1e-14)
