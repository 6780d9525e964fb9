import logging
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from necklace import nodal
from necklace.crown import (
    _BLOCK,
    ProfileHandle,
    _bubble_derivs,
    build_crown,
    u_star,
    u_star_profile,
)
from necklace.errors import DomainError, NotFoundError
from necklace.nodal import (
    _BATCH,
    _BRICKS,
    _POLISH_CANDIDATES,
    _SIGN_MARGIN,
    RES_MAX,
    _axis_bounds,
    _certified_signs,
    _certify,
    _edge_bounds,
    _polish,
    gradient_min_on_nodal,
    gradient_norms,
    nodal_mesh,
    radial_nodal_root,
)

from conftest import bubble_derivs_one, talenti_profile


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
        (1.0, np.nan, 0.0), (1.0, 0.0, np.nan), (1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
        ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), (1e308, 1e308, 0.0), (1e151, 0.0, 0.0),
    ])
    def test_degenerate_direction(self, crown16, star16, direction):
        # checked before its norm: no IndexError for a 2-vector, and no
        # overflow warning (an error in this suite) for huge coordinates
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
        ((-2.5, 2.5),) * 3, (-2.5, 2.5), np.array(2.5), np.array([2.5]),
        "2.5", True, np.bool_(True), pytest.param(10**400, id="int1e400"),
    ])
    def test_bbox_nonfinite_or_reversed(self, crown16, star16, bbox):
        # the box is a half-width alone: a pair, even of a valid cube, an
        # array, a string or a bool is a DomainError, not a TypeError
        with pytest.raises(DomainError):
            nodal_mesh(crown16, star16, bbox, 16)

    def test_resolution_above_res_max(self, crown16, star16):
        # refused before any grid array is made
        with pytest.raises(DomainError, match=f"resolution must be at most {RES_MAX}, "):
            nodal_mesh(crown16, star16, 2.5, RES_MAX + 1)
        with pytest.raises(DomainError):
            nodal_mesh(crown16, star16, 2.5, 100_000)

    def test_scalar_bbox_normalized(self, crown16, star16):
        # a half-width of any real type is its float
        ref = nodal_mesh(crown16, star16, 2.0, 16)
        assert len(ref) > 0
        for bbox in (2, np.int64(2), np.float32(2.0), Fraction(2)):
            mesh = nodal_mesh(crown16, star16, bbox, 16)
            assert np.array_equal(mesh.points, ref.points)

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


def _old_mesh(profile, half, res):
    """nodal_mesh as it was before its halvings were certified: a full scan
    of the cube [-half, half]^3, then each halving evaluates the midpoint of
    every row that still moves.  Returns the mesh's points, values,
    gradients and dropped count, and the rows each halving evaluated."""
    xs = ys = zs = np.linspace(-half, half, res)
    axes = [xs] * 3
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


def _recording(profile, monkeypatch):
    """``profile`` with a field that records each call's point count and
    whether all its points share one z, as the grid scan's calls do, with
    nodal_mesh's steps patched to record the markers "batch" and "refined"
    around the refinement of a batch of crossings, "bisect" and "bisected"
    around its bisection and "grads" before its gradient norms."""
    calls = []

    def fn(a):
        a3 = np.reshape(a, (-1, 3))
        calls.append((len(a3), bool(np.all(a3[:, 2] == a3[0, 2]))))
        return profile.fn(a)

    def marked(name, step, after=None):
        def call(*args):
            calls.append(name)
            out = step(*args)
            if after:
                calls.append(after)
            return out
        return call

    monkeypatch.setattr(nodal, "_refine", marked("batch", nodal._refine, "refined"))
    monkeypatch.setattr(nodal, "_bisect", marked("bisect", nodal._bisect, "bisected"))
    monkeypatch.setattr(nodal, "gradient_norms", marked("grads", nodal.gradient_norms))
    return replace(profile, fn=fn), calls


def _split(calls):
    """The positions in ``calls`` (see _recording) of the scan's calls, which
    are the calls outside the batches, and each batch's calls and markers
    between its "batch" and "refined"."""
    scan, batches, inside = [], [], False
    for i, c in enumerate(calls):
        if c in ("batch", "refined"):
            inside = c == "batch"
            if inside:
                batches.append([])
        elif inside:
            batches[-1].append(c)
        else:
            scan.append(i)
    return scan, batches


def _phases(calls, record):
    """The point counts of ``calls``, a nodal_mesh run's profile calls and
    markers (see _recording): the scan's one-slab calls and, per batch of
    crossings, the lists of its crossing ends', halvings', final values'
    and gradient stencils' calls.  Each phase's total over the batches is
    the DEBUG ``record``'s."""
    _, scanned, _, _, ends, _, halvings, _, finals, _, _ = record.args
    at, parts = _split(calls)
    scan = [calls[i] for i in at]
    assert all(slab for _, slab in scan)
    batches = []
    for part in parts:
        if "grads" not in part:
            part.append("grads")
        cuts = [-1, part.index("bisect"), part.index("bisected"), part.index("grads"), len(part)]
        batches.append([[n for n, _ in part[a + 1:b]] for a, b in zip(cuts, cuts[1:])])
    totals = [sum(sum(batch[i]) for batch in batches) for i in range(3)]
    assert [sum(n for n, _ in scan)] + totals == [scanned, ends, halvings, finals]
    return [n for n, _ in scan], batches


def _slabs(monkeypatch):
    """A list to which each nodal_mesh batch appends, per chunk of its
    crossings in order, the z slab whose scan found it and its length."""
    slabs, refine = [], nodal._refine

    def call(profile, pending, coords):
        slabs.append([(k + (kind == 2), len(f)) for f, k, kind, _, _ in pending])
        return refine(profile, pending, coords)

    monkeypatch.setattr(nodal, "_refine", call)
    return slabs


def _joined(batches):
    """The per-batch phases of _phases joined over the batches."""
    return [sum(phase, []) for phase in zip(*batches)]


def _certificate_counts(profile, half, res):
    """The grid points of the cube [-half, half]^3 whose sign the scan's
    certificate leaves open, and the ends of sign-changing grid edges whose
    sign it settles."""
    axis = np.linspace(-half, half, res)
    sign = np.sign(profile.fn(np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)))
    known = np.stack([layer for layer in _certified_signs(axis, profile.bubbles)
                      for _ in range(_BRICKS[-1])][:res], axis=-1) != 0
    ends = 0
    for ax in range(3):
        first, rest = range(res - 1), range(1, res)
        cross = np.take(sign, first, axis=ax) * np.take(sign, rest, axis=ax) < 0
        ends += int(np.count_nonzero(cross & np.take(known, first, axis=ax)))
        ends += int(np.count_nonzero(cross & np.take(known, rest, axis=ax)))
    return int(np.count_nonzero(~known)), ends


def test_halvings_evaluate_only_uncertified_moving_rows(crown16, star16, caplog,
                                                        monkeypatch):
    # the mesh evaluates the crossing ends whose sign the scan certified,
    # then per halving the rows whose midpoint still moves and whose sign
    # the interpolation bounds leave open: with the certified ones they are
    # the rows the old loop evaluated, and under half of rows x halvings.
    # The final points' values are the ones last evaluated there
    caplog.set_level(logging.DEBUG, logger="necklace.nodal")
    recording, calls = _recording(star16, monkeypatch)
    slabs = _slabs(monkeypatch)
    mesh = nodal_mesh(crown16, recording, 2.5, 96)
    [record] = caplog.records
    scan, batches = _phases(calls, record)
    ends, halvings, finals, grads = _joined(batches)
    rows = len(mesh) + mesh.dropped
    assert record.args[3] == rows
    # a batch is refined once its crossings reach _BATCH, or after the last
    # slab, and holds every crossing of its slabs
    sizes = [sum(n for _, n in batch) for batch in slabs]
    assert len(batches) == len(slabs) > 1 and sum(sizes) == rows
    assert all(size >= _BATCH for size in sizes[:-1])
    assert all(size - sum(n for k, n in batch if k == batch[-1][0]) < _BATCH
               for size, batch in zip(sizes, slabs))
    assert all(a[-1][0] < b[0][0] for a, b in zip(slabs, slabs[1:]))
    assert (sum(scan), sum(ends)) == _certificate_counts(star16, 2.5, 96)
    assert (sum(ends), sum(finals)) == (32, 0)
    assert all(len(batch[0]) <= 2 for batch in batches)
    assert record.args[4:6] == (32, 2 * rows - 32)
    assert record.args[8:10] == (0, rows)
    assert sum(grads) == 6 * len(mesh) and max(grads) <= 6 * (_BLOCK // 6)
    evaluated, certified = record.args[6:8]
    assert sum(halvings) == evaluated
    assert all(max(batch[1]) <= size for batch, size in zip(batches, sizes))
    old = _old_mesh(star16, 2.5, 96)[-1]
    assert evaluated + certified == sum(old)
    assert evaluated < 0.5 * rows * len(old)


def _moved(profile, shift):
    """``profile``'s bubble sum with every centre moved by ``shift``,
    evaluated term by term in blocks of 4096 points."""
    x, c, amp = profile.bubbles
    x = x + np.asarray(shift)

    def fn(a):
        pts = a.reshape(-1, 3)
        out = np.empty(len(pts))
        for i in range(0, len(pts), 4096):
            d = pts[i:i + 4096, None, :] - x
            out[i:i + 4096] = np.sum(amp / np.sqrt(c + np.sum(d * d, axis=-1)), axis=-1)
        return out.reshape(a.shape[:-1])

    return ProfileHandle(fn=fn, bubbles=(x, c, amp))


#: at half-width 1.3 the box's y faces cut the zero set: the last point of a
#: row of a slab and the first of the next row differ in sign at 12, 26 and
#: 36 such pairs for res 16, 33 and 48, yet no edge joins them (at 2.5, none).
#: "skew" moves the crown by -(0.15, 0.6, 0.25), so the half-width-2.3 cube
#: is off-centre on it, and no grid plane is a plane of its symmetry
@pytest.mark.parametrize("bbox, shift", [
    (2.5, None), (2.3, (-0.15, -0.6, -0.25)), (1.3, None),
], ids=["cube", "skew", "yface"])
@pytest.mark.parametrize("res", [16, 33, 48, 96])
def test_mesh_equals_old_bisection(crown16, star16, res, bbox, shift):
    profile = star16 if shift is None else _moved(star16, shift)
    old = _old_mesh(profile, bbox, res)
    mesh = nodal_mesh(crown16, profile, bbox, res)
    assert len(mesh) > 0
    for new, ref in zip((mesh.points, mesh.values, mesh.gradients), old):
        assert np.array_equal(new, ref)
    assert mesh.dropped == old[3]


def test_mesh_is_logged(crown16, star16, caplog, monkeypatch):
    # the scan count and the crossing ends evaluated are the certificate's,
    # the halvings' total is the old loop's, and every profile call is
    # counted once
    caplog.set_level(logging.DEBUG, logger="necklace.nodal")
    recording, calls = _recording(star16, monkeypatch)
    mesh = nodal_mesh(crown16, recording, 2.5, 48)
    [record] = caplog.records
    scan, batches = _phases(calls, record)
    ends, halvings, finals, grads = _joined(batches)
    scanned, ended = _certificate_counts(star16, 2.5, 48)
    rows = len(mesh) + mesh.dropped
    evaluated, final = sum(halvings), sum(finals)
    certified = sum(_old_mesh(star16, 2.5, 48)[-1]) - evaluated
    assert sum(scan) == scanned and sum(ends) == ended
    assert sum(grads) == 6 * len(mesh)
    assert all(len(batch[2]) <= 1 for batch in batches)
    assert 0 < scanned < 48**3 and evaluated > 0 and certified > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"nodal_mesh res 48: scan evaluated {scanned} of {48**3} points, "
        f"{rows} crossings, ends evaluated {ended} and reused {2 * rows - ended}, "
        f"halvings evaluated {evaluated} and certified {certified}, final values "
        f"evaluated {final} and reused {rows - final}, {mesh.dropped} dropped"
    ]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    caplog.clear()
    nodal_mesh(crown16, talenti_profile(), 2.5, 16)
    assert [r.getMessage() for r in caplog.records] == [
        f"nodal_mesh res 16: scan evaluated 0 of {16**3} points, 0 crossings, "
        "ends evaluated 0 and reused 0, halvings evaluated 0 and certified 0, "
        "final values evaluated 0 and reused 0, 0 dropped"
    ]
    # a DEBUG record only, on a logger the package gives no handler
    caplog.clear()
    caplog.set_level(logging.INFO, logger="necklace.nodal")
    nodal_mesh(crown16, star16, 2.5, 16)
    assert caplog.records == []
    assert logging.getLogger("necklace.nodal").handlers == []


def test_batches_are_refined_during_the_scan(crown16, star16, caplog, monkeypatch):
    # a batch is refined as soon as the scan has found it: with batches of
    # 1000 crossings at res 96 the first is refined before the scan's last
    # slab, and the calls' totals are still the DEBUG record's
    caplog.set_level(logging.DEBUG, logger="necklace.nodal")
    monkeypatch.setattr(nodal, "_BATCH", 1000)
    recording, calls = _recording(star16, monkeypatch)
    nodal_mesh(crown16, recording, 2.5, 96)
    scan, batches = _split(calls)
    _phases(calls, caplog.records[0])
    assert len(batches) > 1 and calls.index("batch") < scan[-1]


#: per resolution, batch sizes with one crossing a batch, a few, a partial
#: last batch, and one batch above the crossings (None).  A batch of 1 takes
#: ~3 ms, so the smallest run at res 16 only
@pytest.mark.parametrize("res, batches", [
    (16, (1, 7, None)), (33, (100, 4096, None)), (96, (1000, 4096, None)),
])
def test_mesh_does_not_depend_on_batch(crown16, star16, caplog, monkeypatch, res, batches):
    # nodal_mesh refines the crossings _BATCH at a time; a row's points,
    # values and gradients do not depend on its batch, and neither does any
    # count of the DEBUG record
    caplog.set_level(logging.DEBUG, logger="necklace.nodal")
    ref = nodal_mesh(crown16, star16, 2.5, res)
    for batch in batches:
        monkeypatch.setattr(nodal, "_BATCH", batch or len(ref) + ref.dropped + 1)
        mesh = nodal_mesh(crown16, star16, 2.5, res)
        for new, old in zip((mesh.points, mesh.values, mesh.gradients),
                            (ref.points, ref.values, ref.gradients)):
            assert np.array_equal(new, old)
        assert mesh.dropped == ref.dropped
    texts = [r.getMessage() for r in caplog.records]
    assert len(texts) == 1 + len(batches) and len(set(texts)) == 1


def test_batches_bound_the_memory(crown16, star16, monkeypatch):
    # after the scan the working memory is one batch's: a res-192 mesh (six
    # batches) peaks at under 60% of the same mesh refined in one batch
    def peak():
        tracemalloc.start()
        try:
            mesh = nodal_mesh(crown16, star16, 2.5, 192)
            return tracemalloc.get_traced_memory()[1], len(mesh) + mesh.dropped
        finally:
            tracemalloc.stop()

    batched, rows = peak()
    assert rows > 5 * _BATCH
    monkeypatch.setattr(nodal, "_BATCH", rows + 1)
    assert batched <= 0.6 * peak()[0]


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


def _certified_signs_two_bounds(axis, bubbles, sizes=_BRICKS):
    """The certificate as the package first made it, the oracle of
    _certified_signs: both bounds of every open brick, each a sum of its
    three axes' parts."""
    centres, c, amp = bubbles
    n = len(axis)
    levels = []
    for size in sizes:
        (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = (
            _axis_bounds(axis, centres[:, i], amp, size) for i in range(3))
        levels.append((size, (z_lo + c, x_lo, y_lo), (z_hi + c, x_hi, y_hi)))
    for z0 in range(0, n, sizes[0]):
        brick, parent = np.zeros((1,) + (-(-n // sizes[0]),) * 2, np.int8), sizes[0]
        for size, lower, upper in levels:
            if size < parent:
                r, nz, nb = parent // size, -(-min(sizes[0], n - z0) // size), -(-n // size)
                brick = brick.repeat(r, 0)[:nz].repeat(r, 1)[:, :nb].repeat(r, 2)[:, :, :nb]
                parent = size
            at = np.nonzero(brick == 0)
            for lo in range(0, len(at[0]), nodal._CHUNK):
                z, x, y = (v[lo:lo + nodal._CHUNK] for v in at)
                zk = z + z0 // size
                low = np.power(lower[0][zk] + lower[1][x] + lower[2][y], -0.5) @ amp
                high = np.power(upper[0][zk] + upper[1][x] + upper[2][y], -0.5) @ amp
                brick[z, x, y] = (low > _SIGN_MARGIN).view(np.int8) - (
                    high < -_SIGN_MARGIN).view(np.int8)
        for layer in brick:
            yield layer.repeat(parent, 0).repeat(parent, 1)[:n, :n]


class TestCertifiedScan:
    @pytest.mark.parametrize("res", [48])
    def test_same_mesh_as_full_scan(self, crown16, star16, res, caplog, monkeypatch):
        # the certified scan skips the nodes whose sign the bubbles settle,
        # yet gives the mesh of a full scan and full bisection
        caplog.set_level(logging.DEBUG, logger="necklace.nodal")
        recording, calls = _recording(star16, monkeypatch)
        certified = nodal_mesh(crown16, recording, 2.5, res)
        full = _old_mesh(star16, 2.5, res)
        assert len(certified) > 0
        assert 0 < sum(_phases(calls, caplog.records[0])[0]) < (res + 1) ** 3
        for new, ref in zip((certified.points, certified.values, certified.gradients), full):
            assert np.array_equal(new, ref)
        assert certified.dropped == full[3]

    def test_certificate_is_sound(self, crown16, mesh48):
        # cube grids of several spacings around a ring centre, the origin, a
        # point of the zero set or anywhere in the box, as u_star's bubbles
        # moved by minus that anchor around a grid at the origin: one brick
        # of the first size centred on the anchor, and a grid placed at
        # random whose length leaves partial bricks of every size at the
        # ends.  Each brick size alone, and the sizes coarse to fine
        rng = np.random.default_rng(11)
        x, c, amp = crown16._bubbles
        counts = {sizes: {1.0: 0, -1.0: 0, 0.0: 0}
                  for sizes in [(size,) for size in _BRICKS] + [_BRICKS]}
        for trial in range(64):
            h = (1e-3, 0.01, 0.05, 0.2)[trial % 4]
            anchor = (x[rng.integers(1, 17)], np.zeros(3), rng.uniform(-2.0, 2.0, 3),
                      mesh48.points[rng.integers(len(mesh48))])[trial // 4 % 4]
            bubbles = (x - anchor, c, amp)
            # n % 8 runs through 1, 3, 5, 7 (a partial brick of each size)
            # and 2, 6 (of sizes 8 and 4) and 4 (of size 8)
            n = 8 * (1 + trial % 3) + (1, 2, 3, 4, 5, 6, 7)[trial % 7]
            for axis in (h * (np.arange(_BRICKS[0]) - 0.5 * (_BRICKS[0] - 1)),
                         h * (np.arange(n) - rng.uniform(0, n - 1))):
                grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
                r2 = np.sum((grid[..., None, :] - bubbles[0]) ** 2, axis=-1)
                sign = np.sign(np.sum(amp / np.sqrt(c + r2), axis=-1))
                for sizes, count in counts.items():
                    depth = sizes[-1]
                    layers = list(_certified_signs(axis, bubbles, sizes))
                    assert len(layers) == -(-len(axis) // depth)
                    oracle = list(_certified_signs_two_bounds(axis, bubbles, sizes))
                    assert np.array_equal(layers, oracle)
                    for k, layer in enumerate(layers):
                        assert layer.shape == sign.shape[:2]
                        known = layer != 0.0
                        for kz in range(k * depth, min((k + 1) * depth, len(axis))):
                            assert np.array_equal(sign[:, :, kz][known], layer[known])
                        for v in count:
                            count[v] += int(np.count_nonzero(layer == v))
        for count in counts.values():
            assert min(count.values()) > 1000

    def test_lower_bound_first_keeps_every_layer(self, star16):
        # at res 96 every layer is the two-bound certificate's, and some
        # bricks are certified each way
        axis = np.linspace(-2.5, 2.5, 96)
        layers = np.array(list(_certified_signs(axis, star16.bubbles)))
        oracle = np.array(list(_certified_signs_two_bounds(axis, star16.bubbles)))
        assert np.array_equal(layers, oracle)
        assert {-1, 0, 1} <= set(np.unique(layers).tolist())

    def test_axis_bounds(self, crown16):
        # per brick of each size, the far bound is the largest squared
        # coordinate distance over the brick's points and the near bound at
        # most the smallest: the term of a bubble with A > 0 is lowest far
        # away, one with A < 0 closest in
        rng = np.random.default_rng(5)
        x, _c, amp = crown16._bubbles
        for size in _BRICKS:
            for n in (size, 2 * size + 1, 3 * size - 1):
                for axis in (np.linspace(-1.2, 1.3, n), np.sort(rng.uniform(-1.5, 1.5, n))):
                    for ax in range(3):
                        lo, hi = _axis_bounds(axis, x[:, ax], amp, size)
                        assert lo.shape == hi.shape == (-(-n // size), 17)
                        for b in range(len(lo)):
                            d = (axis[b * size:(b + 1) * size, None] - x[:, ax]) ** 2
                            far = np.where(amp > 0, lo[b], hi[b])
                            near = np.where(amp > 0, hi[b], lo[b])
                            assert np.array_equal(far, d.max(axis=0))
                            assert np.all(near <= d.min(axis=0))
                            inside = (axis[b * size] <= x[:, ax]) & (
                                x[:, ax] <= axis[min((b + 1) * size, n) - 1])
                            assert np.all(near[inside] == 0.0)
                            assert np.array_equal(near[~inside], d.min(axis=0)[~inside])

    def test_well_inside_a_brick_is_not_certified(self):
        # a broad positive bubble with a narrow negative well at the origin:
        # a brick's corners are positive, the points next to the well not.
        # No brick size certifies them, and split into bricks of 2 points
        # each brick holds a point next to the well
        bubbles = (np.zeros((2, 3)), np.array([1.0, 1e-4]), np.array([1.0, -0.1]))
        axis = np.array([-0.3, -0.01, 0.01, 0.3])
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        r2 = np.sum(grid * grid, axis=-1)[..., None]
        vals = np.sum(bubbles[2] / np.sqrt(bubbles[1] + r2), axis=-1)
        assert vals[0, 0, 0] > 0.0 > vals[1, 1, 1]
        for sizes in [(size,) for size in _BRICKS] + [_BRICKS]:
            layers = list(_certified_signs(axis, bubbles, sizes))
            assert len(layers) == -(-4 // sizes[-1]) and not np.any(layers)

    @pytest.mark.parametrize("amp, sign", [
        (0.9 * _SIGN_MARGIN, 0.0), (-0.9 * _SIGN_MARGIN, 0.0),
        (1.1 * _SIGN_MARGIN, 1.0), (-1.1 * _SIGN_MARGIN, -1.0),
    ])
    def test_margin(self, amp, sign):
        # a bubble of height amp: certified only where it clears the margin
        bubbles = (np.zeros((1, 3)), np.ones(1), np.array([amp]))
        axis = np.linspace(-1e-3, 1e-3, _BRICKS[0])
        layers = list(_certified_signs(axis, bubbles))
        assert len(layers) == _BRICKS[0] // _BRICKS[-1]
        assert np.all(np.array(layers) == sign)

    def test_scan_evaluates_under_a_quarter(self, crown16, star16, caplog, monkeypatch):
        # coarse to fine, the scan evaluates 4.7% of the grid
        caplog.set_level(logging.DEBUG, logger="necklace.nodal")
        recording, calls = _recording(star16, monkeypatch)
        mesh = nodal_mesh(crown16, recording, 2.5, 96)
        assert len(mesh) > 0
        assert 0 < sum(_phases(calls, caplog.records[0])[0]) < 0.06 * 96**3

    def test_talenti_scan_evaluates_nothing(self, crown16, monkeypatch):
        recording, calls = _recording(talenti_profile(), monkeypatch)
        mesh = nodal_mesh(crown16, recording, 2.5, 48)
        assert len(mesh) == 0
        assert calls == []

    def test_largest_bbox_runs_without_warnings(self, crown16, star16):
        half = 0.999999 * np.sqrt(np.finfo(float).max / 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prof in (star16, talenti_profile()):
                assert len(nodal_mesh(crown16, prof, half, 16)) == 0


#: a half-width: any float or an edge value (past sqrt(max / 3) the field's
#: squared distances overflow)
_HALF = st.one_of(st.floats(0.2, 3.0), st.floats(), st.sampled_from(
    [np.nan, np.inf, -np.inf, 0.0, 1e150, -1e150, 7.7e153, -7.7e153, 1e300]))


@settings(max_examples=80)
@given(_HALF, st.integers(16, 24))
def test_mesh_does_not_depend_on_bubbles(crown16, star16, bbox, res):
    # the certified scan and halvings give the mesh of a full scan and full
    # bisection, with no warning either way; a box nodal_mesh rejects is no
    # example, and the same box as three (lo, hi) pairs is always rejected
    with pytest.raises(DomainError):
        nodal_mesh(crown16, star16, ((-bbox, bbox),) * 3, res)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mesh = nodal_mesh(crown16, star16, bbox, res)
        except DomainError:
            reject()
        full = _old_mesh(star16, bbox, res)
    for new, ref in zip((mesh.points, mesh.values, mesh.gradients), full):
        assert np.array_equal(new, ref)
    assert mesh.dropped == full[3]
    assert np.all(mesh.values <= 1e-8)


def _polish_min(derivs, start):
    """The polish of one start as the package made it, start by start: the
    oracle of _polish, with ``derivs`` of a single point."""
    z = np.array(start, dtype=float)
    u, g, hess, tg = derivs(z)
    lam = float(g @ hess @ g) / float(g @ g)
    jac = np.zeros((4, 4))
    converged = False
    for _ in range(nodal._NEWTON_ITERS):
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


def _steep_or_singular(bubbles):
    """Stacked derivatives of ``bubbles`` (of nothing for None) but at two
    kinds of marked points: z1 = 1000 has g = (1, 0, 0) and H = T[g] = 0,
    so its Jacobian is singular; z1 = 2000, and every point for None, sees
    u = 1e-3 with g = (1e20, 0, 0), so steep that its Newton step is below
    the step bound, and the polish stops off the zero set."""
    def derivs(z):
        if bubbles is None:
            u, g, hess, tg = (np.zeros((len(z),) + s) for s in ((), (3,), (3, 3), (3, 3)))
        else:
            u, g, hess, tg = _bubble_derivs(z, bubbles)
        singular = z[:, 0] == 1000.0
        steep = (z[:, 0] == 2000.0) | (bubbles is None)
        u[singular], g[singular], hess[singular], tg[singular] = 0.5, (1.0, 0.0, 0.0), 0.0, 0.0
        u[steep], g[steep], tg[steep] = 1e-3, (1e20, 0.0, 0.0), 0.0
        hess[steep] = np.diag([1.0, 2.0, 3.0])
        return u, g, hess, tg

    return derivs


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
        # a start's value is |g| at the point its polish stops at, the last
        # one it evaluates derivs at
        seen = []

        def derivs(z):
            seen.append(z.copy())
            return bubble_derivs_one(z, star16.bubbles)

        starts = mesh48.points[np.argsort(mesh48.gradients)[:_POLISH_CANDIDATES]]
        kept = starts.copy()
        got = _polish(lambda z: _bubble_derivs(z, star16.bubbles), starts)
        assert np.array_equal(starts, kept)
        for start, value in zip(starts, got):
            assert value == _polish_min(derivs, start)
            z = seen[-1]
            assert abs(u_star(z, crown16)) <= 1e-12
            assert value == np.linalg.norm(bubble_derivs_one(z, crown16._bubbles)[1])
            assert value == pytest.approx(gradient_norms(star16, z)[0], rel=1e-8)

    @pytest.mark.parametrize("res, shift", [
        (48, None), (96, None), (192, None), (48, (-0.15, -0.6, -0.25))])
    def test_batch_equals_serial_polish(self, crown16, star16, res, shift):
        # each start's value, and so the minimum, has the bits of polishing
        # it alone with the single-point derivatives
        profile = star16 if shift is None else _moved(star16, shift)
        mesh = nodal_mesh(crown16, profile, 2.5, res)
        starts = mesh.points[np.argsort(mesh.gradients)[:_POLISH_CANDIDATES]]
        got = _polish(lambda z: _bubble_derivs(z, profile.bubbles), starts)
        want = [_polish_min(lambda z: bubble_derivs_one(z, profile.bubbles), z) for z in starts]
        assert got.tolist() == want
        assert np.isfinite(got).sum() > _POLISH_CANDIDATES // 2
        assert gradient_min_on_nodal(mesh, profile) == min([mesh.gradients.min()] + want)

    def test_failed_start_gives_inf(self, star16):
        # from a start far outside the zero set the Newton steps run off to
        # infinity, and the start does not converge within the step budget
        derivs = lambda z: _bubble_derivs(z, star16.bubbles)
        assert _polish(derivs, np.array([[40.0, 30.0, 20.0]])).tolist() == [math.inf]

    def test_stalled_start_off_the_zero_set_gives_inf(self):
        # a field so steep that the Newton step to u = 0 is below the step
        # bound: the polish stops, but at |u| = 1e-3, off the zero set
        assert _polish(_steep_or_singular(None), np.zeros((1, 3))).tolist() == [math.inf]

    def test_singular_and_stalled_starts_leave_the_others_alone(self, star16, mesh48):
        # among the mesh's starts, one whose Jacobian is singular, which
        # fails the stack's solve, and one that stalls at |u| = 1e-3: both
        # give inf, and every other start the bits of its serial polish
        derivs = _steep_or_singular(star16.bubbles)
        starts = mesh48.points[np.argsort(mesh48.gradients)[:_POLISH_CANDIDATES]]
        starts = np.insert(starts, [3, 10], [[1000.0, 0.0, 0.0], [2000.0, 0.0, 0.0]], axis=0)
        got = _polish(derivs, starts)
        one = lambda z: tuple(v[0] for v in derivs(z[None]))
        want = [_polish_min(one, z) for z in starts]
        assert got.tolist() == want
        assert got[3] == got[11] == math.inf and np.isfinite(np.delete(got, [3, 11])).any()

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
