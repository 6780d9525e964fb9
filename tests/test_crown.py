import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from necklace.crown import (
    CrownParams,
    _BLOCK,
    M_MAX,
    _sq_norm,
    TALENTI_AMP,
    ProfileHandle,
    _bubble_derivs,
    _fd_gradient,
    build_crown,
    fd_gradient,
    psi_d1,
    psi_d11,
    q_mid_lower,
    talenti_profile,
    u_bubble,
    u_star,
    u_star_profile,
)
from necklace.errors import DomainError, NearPoleWarning
from necklace.geometry import Point3
from necklace.trigsums import csc_full_sum


@pytest.fixture(scope="module")
def crown16():
    return build_crown(16)


class TestBuildCrown:
    def test_rejects_bad_m(self):
        for m in (7, 6, 15, 0):
            with pytest.raises(DomainError):
                build_crown(m)

    def test_rejects_m_above_bound(self):
        for m in (M_MAX + 2, 10**8):
            with pytest.raises(DomainError, match=f"at most {M_MAX}"):
                build_crown(m)

    @settings(max_examples=100)
    @given(st.one_of(st.integers(-10, M_MAX + 10), st.sampled_from([8, M_MAX])))
    def test_finite_or_domain_error(self, m):
        # m even in 8..M_MAX gives a finite ring; any other m raises DomainError
        try:
            p = build_crown(m)
        except DomainError:
            assert m < 8 or m % 2 or m > M_MAX
            return
        assert p == CrownParams(m) and len(p.xi) == m
        assert all(map(math.isfinite, (p.d, p.mu, p.ring_radius)))
        assert 0.0 < p.mu < 1.0 and np.isfinite(p.centers_array()).all()

    def test_parameters(self, crown16):
        m = 16
        d = math.sqrt(2.0) * m * math.log(m) / csc_full_sum(m)
        assert crown16.d == pytest.approx(d, rel=1e-14)
        assert crown16.mu == pytest.approx(d * d / (m * math.log(m)) ** 2, rel=1e-14)
        assert crown16.ring_radius == pytest.approx(
            math.sqrt(1.0 - crown16.mu**2), rel=1e-15
        )
        centers = crown16.centers_array()
        assert centers.shape == (16, 3)
        assert np.allclose(np.linalg.norm(centers, axis=1), crown16.ring_radius)

    def test_first_center_on_x_axis(self, crown16):
        assert crown16.xi[0].z2 == 0.0
        assert crown16.xi[0].z3 == 0.0


class TestBubbles:
    def test_peak_value(self):
        assert u_bubble(Point3(0.0, 0.0, 0.0)) == pytest.approx(3.0**0.25)

    def test_kelvin_invariance(self, crown16):
        rng = np.random.default_rng(11)
        z = rng.uniform(-2, 2, (200, 3))
        z = z[np.linalg.norm(z, axis=1) > 0.1]
        inv = z / np.sum(z * z, axis=1, keepdims=True)
        w = 1.0 / np.linalg.norm(z, axis=1)
        assert np.max(np.abs(u_bubble(z) - w * u_bubble(inv))) < 1e-13
        assert np.max(np.abs(u_star(z, crown16) - w * u_star(inv, crown16))) < 1e-12

    def test_negative_near_core(self):
        p = build_crown(64)
        z = p.xi[0].as_array() * (1.0 + 0.01 / 64 / np.linalg.norm(p.xi[0].as_array()))
        assert u_star(z, p) < 0.0

    def test_symmetries(self, crown16):
        rng = np.random.default_rng(12)
        z = rng.uniform(-2, 2, (500, 3))
        flipped = z * np.array([1.0, 1.0, -1.0])
        assert np.max(np.abs(u_star(z, crown16) - u_star(flipped, crown16))) < 1e-12
        ang = 2 * math.pi / 16
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        assert np.max(np.abs(u_star(z, crown16) - u_star(z @ rot.T, crown16))) < 1e-12

    def test_profile_bubbles_describe_fn(self, crown16):
        # the direct sum over the profile's (x, c, A) is its field, at points
        # anywhere and next to the ring centres
        z = np.vstack([_points((300, 3)), _near_ring(300, 3)])
        for prof in (u_star_profile(crown16), talenti_profile()):
            x, c, amp = prof.bubbles
            r2 = np.sum((z[:, None, :] - x) ** 2, axis=-1)
            direct = (amp / np.sqrt(c + r2)).sum(axis=-1)
            assert np.max(np.abs(prof.fn(z) - direct)) < 1e-9
            assert not any(arr.flags.writeable for arr in prof.bubbles)

    def test_profile_rejects_bad_bubbles(self, crown16):
        # a profile is its bubbles: the handle checks them once, when it is
        # built, and keeps the arrays it is given
        x, c, amp = crown16._bubbles
        bad = [
            None, (), (x, c), (x, c, amp, amp), [x, c, amp],
            (x.tolist(), c, amp), (x.astype(str), c, amp), (x + 0j, c, amp),
            (x[:, :2], c, amp), (x.T, c, amp), (x[1:], c, amp), (x, c[1:], amp),
            (x, c, amp[1:]), (x, c[:, None], amp), (x.reshape(-1), c, amp),
            (x[:0], c[:0], amp[:0]), (np.zeros(3), np.ones(()), np.ones(())),
        ]
        for k, at in enumerate([(3, 1), 5, 0]):
            for v in (np.nan, np.inf, -np.inf):
                b = [x, c, amp]
                b[k] = b[k].copy()
                b[k][at] = v
                bad.append(tuple(b))
        for v in (0.0, -0.0, -1e-300, -1.0):
            c_bad = c.copy()
            c_bad[4] = v
            bad.append((x, c_bad, amp))
        for b in bad:
            with pytest.raises(DomainError):
                ProfileHandle(fn=u_bubble, bubbles=b)
        with pytest.raises(DomainError):
            dataclasses.replace(u_star_profile(crown16), bubbles=None)
        with pytest.raises(TypeError):
            ProfileHandle(fn=u_bubble)
        # one bubble, integer arrays and the least positive c pass, uncopied
        ok = (np.zeros((1, 3), dtype=int), np.array([5e-324]), np.array([2]))
        assert all(got is arr for got, arr in zip(
            ProfileHandle(fn=u_bubble, bubbles=ok).bubbles, ok))


def _u_star_reference(z, p):
    """u_star as one unblocked array expression over all points at once."""
    arr = z.as_array() if isinstance(z, Point3) else np.asarray(z, dtype=float)
    centers = p.centers_array()
    dist2 = (
        np.sum(arr * arr, axis=-1)[..., None]
        + (1.0 - p.mu * p.mu)
        - 2.0 * (arr @ centers.T)
    )
    ring = TALENTI_AMP * math.sqrt(p.mu) * np.sum(
        (p.mu * p.mu + np.maximum(dist2, 0.0)) ** -0.5, axis=-1
    )
    val = TALENTI_AMP / np.sqrt(1.0 + np.sum(arr * arr, axis=-1)) - ring
    return float(val) if np.ndim(val) == 0 else val


def _points(shape, seed=21):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, shape)


def _near_ring(n, seed):
    """Points within ~0.01 of the m=16 ring centers, where |z - xi_j|^2
    cancels most and a changed rounding of the matmul shows in u_star."""
    rng = np.random.default_rng(seed)
    centers = build_crown(16).centers_array()
    return centers[rng.integers(0, 16, n)] + rng.normal(0.0, 0.01, (n, 3))


_WIDE = _points((2 * _BLOCK + 5, 6))


class TestUStarBlocks:
    @pytest.mark.parametrize("z", [
        Point3(0.3, -0.2, 0.1),
        _points(3),
        _points((1, 3)),
        _points((_BLOCK - 1, 3)),
        _points((_BLOCK, 3)),
        _points((_BLOCK + 1, 3)),
        _points((2 * _BLOCK + 1, 3)),
        _points((2 * _BLOCK + 5, 3)),
        _points((96, 96, 3)),
        np.asfortranarray(_points((_BLOCK + 7, 3))),
        np.asfortranarray(_points((40, 60, 3))),
        _WIDE[::2, 1:4],
        _WIDE[::-3, ::-2],
    ], ids=["point3", "3", "1x3", "block-1", "block", "block+1", "2block+1",
            "2block+5", "96x96", "fortran", "fortran-3d", "strided",
            "reversed"])
    def test_bit_identical(self, crown16, z):
        got = u_star(z, crown16)
        ref = _u_star_reference(z, crown16)
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref)

    def test_trailing_rows(self, crown16):
        # a lone last row in its own block would take BLAS's matrix-vector
        # path, which rounds differently from the batch
        for seed in range(16):
            for n in (_BLOCK + 1, 2 * _BLOCK + 1):
                z = _near_ring(n, seed)
                assert np.array_equal(u_star(z, crown16), _u_star_reference(z, crown16))

    def test_lone_row_matches_batch(self, crown16):
        # a one-row call must not take BLAS's matrix-vector path, whose
        # rounding differs from the matrix-matrix product of a batch
        z = _near_ring(2049, 3)
        batch = u_star(z, crown16)
        for i in range(20):
            assert u_star(z[i], crown16) == batch[i]
            assert u_star(z[i:i + 1], crown16)[0] == batch[i]
            assert u_star(z[i:i + 2], crown16)[0] == batch[i]

    @settings(max_examples=200)
    @given(hnp.arrays(
        np.float64,
        st.one_of(st.tuples(st.integers(0, 40), st.just(3)),
                  st.tuples(st.integers(0, 8), st.integers(0, 8), st.just(3))),
        elements=st.one_of(
            st.floats(-1e150, 1e150, allow_subnormal=True),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             -1e-310, 1e150, -1e150, 9.999999999999999e149]),
        ),
    ), st.booleans())
    def test_sq_norm_is_np_sum(self, y, fortran):
        # the column adds give np.sum's bits, in either memory order
        if fortran:
            y = np.asfortranarray(y)
        got, ref = _sq_norm(y), np.sum(y * y, axis=-1)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_empty(self, crown16):
        got = u_star(np.empty((0, 3)), crown16)
        assert isinstance(got, np.ndarray)
        assert got.shape == (0,)

    def test_corrected_profile_points(self, crown16):
        # points around the ring and the unit-circle poles of the correction,
        # kept off the poles themselves
        rng = np.random.default_rng(22)
        units = crown16.unit_centers_array()
        z = units[rng.integers(0, 16, 3000)] + rng.normal(0.0, 0.05, (3000, 3))
        z = z[np.min(np.linalg.norm(z[:, None] - units, axis=-1), axis=-1) > 1e-3]
        assert np.array_equal(u_star(z, crown16), _u_star_reference(z, crown16))
        # the corrected field u_star + psi_d1 is finite off the poles
        assert np.isfinite(u_star(z, crown16) + psi_d1(z, crown16)).all()

    @pytest.mark.parametrize("shape", [(2,), (4, 2), (3, 6), ()])
    def test_rejects_bad_trailing_axis(self, crown16, shape):
        with pytest.raises(DomainError):
            u_star(np.zeros(shape), crown16)


def _derivs_mp(z, p):
    """u_star, its gradient g, Hessian and T[g] summed bubble by bubble in
    mpmath at 30 digits, from the same float centres, c and A."""
    x, c, amp = p._bubbles
    with mp.workdps(30):
        z = mp.matrix(z.tolist())
        bubbles = [(r, ci + (r.T * r)[0], ai) for r, ci, ai in
                   ((z - mp.matrix(xi), ci, ai)
                    for xi, ci, ai in zip(x.tolist(), c.tolist(), amp.tolist()))]
        u, g = mp.mpf(0), mp.zeros(3, 1)
        hess, tg = mp.zeros(3, 3), mp.zeros(3, 3)
        eye = mp.eye(3)
        for r, s, a in bubbles:
            u += a * s**-0.5
            g += -a * s**-1.5 * r
            hess += -a * (s**-1.5 * eye - 3 * s**-2.5 * (r * r.T))
        for r, s, a in bubbles:
            rg = (r.T * g)[0]
            tg += a * (3 * s**-2.5 * (rg * eye + r * g.T + g * r.T)
                       - 15 * s**-3.5 * rg * (r * r.T))
        return (float(u), np.array(g.tolist(), dtype=float).ravel(),
                np.array(hess.tolist(), dtype=float),
                np.array(tg.tolist(), dtype=float))


def _derivs_points(p):
    """The origin, points 2-4 mu from a ring centre, and seeded points in
    [-2, 2]^3."""
    rng = np.random.default_rng(31)
    dirs = rng.normal(size=(6, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    near = [p.xi[3 * k].as_array() + (2 + k % 3) * p.mu * d for k, d in enumerate(dirs)]
    return [np.zeros(3)] + near + list(rng.uniform(-2.0, 2.0, (8, 3)))


class TestUStarDerivs:
    def test_against_mpmath(self, crown16):
        for z in _derivs_points(crown16):
            u, g, hess, tg = _bubble_derivs(z, crown16._bubbles)
            u_ref, g_ref, hess_ref, tg_ref = _derivs_mp(z, crown16)
            # grad u vanishes at the origin by symmetry; the scale there is 1
            scale = max(np.linalg.norm(g_ref), 1.0)
            assert abs(u - u_ref) <= 1e-13 * scale
            assert np.abs(g - g_ref).max() <= 1e-13 * scale
            assert np.abs(hess - hess_ref).max() <= 1e-12 * np.abs(hess_ref).max()
            assert np.abs(tg - tg_ref).max() <= 1e-12 * max(np.abs(tg_ref).max(), 1.0)

    def test_third_derivative_is_hessian_difference(self, crown16):
        centers = crown16.centers_array()
        # T[g] = |g| T[g/|g|]; the origin, where g = 0, is left out
        for z in _derivs_points(crown16)[1:]:
            _, g, _, tg = _bubble_derivs(z, crown16._bubbles)
            gnorm = np.linalg.norm(g)
            v = g / gnorm
            h = 1e-4 * min(1.0, np.min(np.linalg.norm(z - centers, axis=1)))
            diff = (_bubble_derivs(z + h * v, crown16._bubbles)[2]
                    - _bubble_derivs(z - h * v, crown16._bubbles)[2]) * (gnorm / (2.0 * h))
            assert np.abs(diff - tg).max() <= 1e-6 * max(np.abs(tg).max(), gnorm)

    def test_against_finite_differences(self, crown16):
        prof = u_star_profile(crown16)
        for z in _points((12, 3), seed=34):
            u, g, hess, _ = _bubble_derivs(z, crown16._bubbles)
            assert u == pytest.approx(u_star(z, crown16), abs=1e-14)
            # the central differences' round-off floors: eps/h at h = 1e-6
            # for the gradient, eps/h^2 at h = 1e-4 for the Hessian
            fd_g, fd_h = fd_gradient(prof.fn, z), _fd_hessian_loop(prof.fn, z)
            assert np.abs(fd_g - g).max() <= 1e-8 * max(np.abs(g).max(), 1.0)
            assert np.abs(fd_h - hess).max() <= 1e-6 * max(np.abs(hess).max(), 1.0)

    def test_second_and_third_derivatives_are_symmetric(self, crown16):
        _, _, hess, tg = _bubble_derivs(np.array([0.5, 0.2, -0.1]), crown16._bubbles)
        assert np.array_equal(hess, hess.T)
        assert np.array_equal(tg, tg.T)

    @pytest.mark.parametrize("shape", [(2,), (1, 3), (17, 3)])
    def test_rejects_anything_but_one_point(self, crown16, shape):
        with pytest.raises(DomainError):
            _bubble_derivs(np.zeros(shape), crown16._bubbles)

    def test_profile_carries_derivs(self, crown16):
        # a profile's derivatives are those of its bubbles, the only field
        # that states its structure
        assert [f.name for f in dataclasses.fields(ProfileHandle)] == ["fn", "bubbles"]
        assert u_star_profile(crown16).bubbles is crown16._bubbles
        for z in _points((6, 3), seed=35):
            u, g, _, _ = _bubble_derivs(z, talenti_profile().bubbles)
            assert u == pytest.approx(u_bubble(z), rel=1e-15)
            assert np.allclose(g, -u_bubble(z) ** 3 / np.sqrt(3.0) * z, rtol=1e-14, atol=0.0)
        assert not any(a.flags.writeable for a in crown16._bubbles)


def _psi_d1_mid_closed(p):
    """Closed cosecant form of psi_d1 at the ring midpoint direction
    (cos(pi/m), sin(pi/m), 0)."""
    m = p.m
    total = 0.0
    for j in range(1, m // 2 + 1):
        a = (2 * j - 3) * math.pi / m
        total += (1.0 - 2.0 * math.cos(a) ** 2) / abs(math.sin(a))
        total += 1.0 / math.sin((2 * j - 1) * math.pi / (2 * m))
    return TALENTI_AMP * math.sqrt(p.mu) * total


class TestCorrection:
    def test_origin_value(self):
        assert psi_d11(Point3(0.0, 0.0, 0.0)) == pytest.approx(math.sqrt(2.0))

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            psi_d11(Point3(1.0, 0.0, 0.0))

    def test_pole_coefficient(self):
        for sgn in (1.0, -1.0):
            z = np.array([sgn * (1.0 + 1e-3), 0.0, 0.0])
            assert psi_d11(z) * 1e-3 == pytest.approx(-1.0, abs=1e-2)

    def test_linearized_equation(self):
        # the correction solves the linearization at the bubble away from
        # its two unit poles
        rng = np.random.default_rng(13)
        h = 1e-3
        eye = np.eye(3)
        checked = 0
        while checked < 30:
            z = rng.uniform(-1.8, 1.8, 3)
            if (np.linalg.norm(z - [1, 0, 0]) < 0.4
                    or np.linalg.norm(z + [1, 0, 0]) < 0.4):
                continue
            lap = -90.0 * psi_d11(z)
            for ax in range(3):
                lap += 16.0 * (psi_d11(z + h * eye[ax]) + psi_d11(z - h * eye[ax]))
                lap -= psi_d11(z + 2 * h * eye[ax]) + psi_d11(z - 2 * h * eye[ax])
            lap /= 12.0 * h * h
            assert abs(lap + 5.0 * u_bubble(z) ** 4 * psi_d11(z)) < 1e-5
            checked += 1

    @pytest.mark.parametrize("shape", [(2,), (4, 2), (3, 6), ()])
    def test_rejects_bad_trailing_axis(self, crown16, shape):
        with pytest.raises(DomainError, match="trailing axis"):
            psi_d11(np.full(shape, 0.3))
        with pytest.raises(DomainError, match="trailing axis"):
            psi_d1(np.full(shape, 0.3), crown16)

    def test_psi_d1_near_pole_warns(self, crown16):
        target = np.array([1.0 + 5e-7, 0.0, 0.0])
        with pytest.warns(NearPoleWarning):
            psi_d1(target, crown16)

    def test_midpoint_closed_form(self, crown16):
        ang = math.pi / 16
        direction = np.array([math.cos(ang), math.sin(ang), 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = psi_d1(direction, crown16)
        assert val == pytest.approx(_psi_d1_mid_closed(crown16), rel=1e-10)

    @pytest.mark.parametrize("m", [64, 128, 256])
    def test_midpoint_lower_bound(self, m):
        rep = q_mid_lower(build_crown(m))
        assert rep.value > 0.0
        assert rep.value >= 0.5 * rep.lower_bound


#: a coordinate: near the unit poles, any float, or an edge value around
#: the 1e150 bound and where (1 + |z|^2)^2 overflows
_PSI_COORD = st.one_of(
    st.floats(-2.0, 2.0), st.floats(),
    st.sampled_from([0.0, 1.0, -1.0, 1e77, 1e150, -1e150, 1.0000000000000002e150,
                     1e200, math.nan, math.inf, -math.inf]),
)


def _assert_finite_or_domain_error(call, z):
    # an in-range point gives a finite value or, at a pole, DomainError;
    # anything else raises DomainError, and no RuntimeWarning escapes
    in_range = bool(np.isfinite(z).all() and (np.abs(z) <= 1e150).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", NearPoleWarning)
        try:
            val = call(z)
        except DomainError as err:
            assert not in_range or "pole" in str(err)
            return
    assert in_range
    assert np.isfinite(val).all()


@settings(max_examples=300)
@given(st.lists(st.tuples(_PSI_COORD, _PSI_COORD, _PSI_COORD), min_size=1,
                max_size=3), st.booleans())
def test_psi_d11_finite_or_domain_error(points, single):
    z = np.array(points[0] if single else points, dtype=float)
    _assert_finite_or_domain_error(psi_d11, z)


@settings(max_examples=150)
@given(st.lists(st.tuples(_PSI_COORD, _PSI_COORD, _PSI_COORD), min_size=1,
                max_size=3), st.booleans())
def test_psi_d1_finite_or_domain_error(crown16, points, single):
    z = np.array(points[0] if single else points, dtype=float)
    _assert_finite_or_domain_error(lambda arr: psi_d1(arr, crown16), z)


@settings(max_examples=300)
@given(st.lists(st.tuples(_PSI_COORD, _PSI_COORD, _PSI_COORD), min_size=1,
                max_size=3), st.booleans())
def test_u_bubble_finite_or_domain_error(points, single):
    z = np.array(points[0] if single else points, dtype=float)
    _assert_finite_or_domain_error(u_bubble, z)


@settings(max_examples=300)
@given(st.lists(st.tuples(_PSI_COORD, _PSI_COORD, _PSI_COORD), min_size=1,
                max_size=3), st.booleans())
def test_u_star_finite_or_domain_error(crown16, points, single):
    z = np.array(points[0] if single else points, dtype=float)
    _assert_finite_or_domain_error(lambda arr: u_star(arr, crown16), z)


@settings(max_examples=300)
@given(st.lists(st.tuples(_PSI_COORD, _PSI_COORD, _PSI_COORD), min_size=1,
                max_size=3), st.booleans())
def test_fd_gradient_finite_or_domain_error(crown16, points, single):
    # in-range points give a finite gradient; any other raises DomainError,
    # and no RuntimeWarning escapes
    z = np.array(points[0] if single else points, dtype=float)
    in_range = bool(np.isfinite(z).all() and (np.abs(z) <= 1e150).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            grad = fd_gradient(u_star_profile(crown16).fn, z)
        except DomainError:
            assert not in_range
            return
    assert in_range
    assert grad.shape == z.shape and np.isfinite(grad).all()


class TestFiniteDifferences:
    def test_gradient_and_hessian_on_quadratic(self):
        A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 4.0]])
        b = np.array([1.0, -2.0, 0.5])
        f = lambda y: 0.5 * np.einsum("...i,ij,...j->...", y, A, y) + y @ b
        x = np.array([0.3, 0.7, -0.2])
        assert fd_gradient(f, x) == pytest.approx(A @ x + b, abs=1e-8)
        assert _fd_hessian_loop(f, x) == pytest.approx(A, abs=1e-6)


def _fd_hessian_loop(profile, point, h=1e-4):
    """The one-point-per-call central-difference Hessian."""
    eye = np.eye(3)
    f0 = float(np.asarray(profile(point)))
    hess = np.empty((3, 3))
    for i in range(3):
        fp = float(np.asarray(profile(point + h * eye[i])))
        fm = float(np.asarray(profile(point - h * eye[i])))
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
        for j in range(i + 1, 3):
            fpp = float(np.asarray(profile(point + h * eye[i] + h * eye[j])))
            fpm = float(np.asarray(profile(point + h * eye[i] - h * eye[j])))
            fmp = float(np.asarray(profile(point - h * eye[i] + h * eye[j])))
            fmm = float(np.asarray(profile(point - h * eye[i] - h * eye[j])))
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return hess


class TestFiniteDifferenceBatching:
    def test_gradient_matches_loop(self, crown16):
        prof = u_star_profile(crown16)
        h, eye = 1e-6, np.eye(3)
        for z in _near_ring(12, 6):
            loop = [(prof.fn(z + h * e) - prof.fn(z - h * e)) / (2.0 * h) for e in eye]
            assert np.array_equal(fd_gradient(prof.fn, z), loop)

    def test_gradient_rows_match_lone_points(self, crown16):
        """(N, 3) points over three chunks, with a scalar and a per-point
        step, give each row the gradient of its point alone."""
        prof = u_star_profile(crown16)
        pts = _near_ring(2 * (_BLOCK // 6) + 5, 7)
        steps = np.linspace(1e-6, 1e-5, len(pts))
        rows = fd_gradient(prof.fn, pts)
        assert rows.shape == pts.shape
        assert np.array_equal(rows, [fd_gradient(prof.fn, z) for z in pts])
        assert np.array_equal(_fd_gradient(prof.fn, pts, steps),
                              [_fd_gradient(prof.fn, z, h) for z, h in zip(pts, steps)])
