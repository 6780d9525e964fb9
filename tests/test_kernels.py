import math
import warnings
from functools import lru_cache
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from necklace import kernels
from necklace.crown import (
    _COORD_MAX,
    ProfileHandle,
    build_crown,
    psi_d1,
    u_star,
    u_star_profile,
)
from necklace.errors import AccuracyError, DomainError, UnsupportedError
from necklace.geometry import (
    Point3,
    SectorConfig,
    rotation_matrix,
    sector_images,
)
from necklace.kernels import (
    KernelReport,
    PlacedBubble,
    _a_gamma_quad,
    _check_w_sums,
    _gamma_bb_closed,
    _h0e_bb_closed,
    full_kernels,
    gamma_bb,
    gamma_direct,
    h0e,
    h0e_bb,
    kernel_grad,
    kernel_hess,
    place_bubble,
    s_hat,
    t_a,
)
from necklace.trigsums import N_MAX, SumSpec, _sin2_float, sum_direct

CFG = SectorConfig(K=32)


def _b_point(b_abs, alpha_b):
    return Point3(b_abs * math.cos(alpha_b), b_abs * math.sin(alpha_b), 0.0)


def _bubble(b_abs=0.97, alpha_b=0.01, eps=1e-4, w_abs=1.0, alpha_w=0.02):
    return PlacedBubble(
        eps=eps, a=0.0, q_hat=1.0, w_abs=w_abs, alpha_w=alpha_w,
        b_abs=b_abs, alpha_b=alpha_b, beta_hat=alpha_w,
    )


class TestPlacedBubble:
    def test_validation(self):
        with pytest.raises(DomainError):
            _bubble(eps=0.0)
        with pytest.raises(DomainError):
            _bubble(b_abs=1.0)
        with pytest.raises(DomainError):
            _bubble(b_abs=0.0)
        with pytest.raises(DomainError):
            PlacedBubble(eps=1e-4, a=0.0, q_hat=1.0, w_abs=1.0, alpha_w=0.1,
                         b_abs=0.9, alpha_b=0.0, beta_hat=0.2)
        with pytest.raises(DomainError):
            PlacedBubble(eps=1e-4, a=0.0, q_hat=1.0, w_abs=1.0, alpha_w=0.0,
                         b_abs=0.9, alpha_b=0.0, beta_hat=0.0,
                         W=np.array([[0.0, 1.0, 0.0],
                                     [0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0]]))
        # symmetric only to round-off: the allclose fallback accepts it
        PlacedBubble(eps=1e-4, a=0.0, q_hat=1.0, w_abs=1.0, alpha_w=0.0,
                     b_abs=0.9, alpha_b=0.0, beta_hat=0.0,
                     W=np.array([[0.0, 1.0, 0.0],
                                 [1.0 + 1e-12, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_eps(self, eps):
        with pytest.raises(DomainError):
            _bubble(eps=eps)

    @pytest.mark.parametrize("name,bad", [
        (name, bad)
        for name in ["a", "q_hat", "w_abs", "alpha_w", "beta_hat",
                     "alpha_w_beta_hat", "b_abs", "alpha_b", "theta_star",
                     "W_diag", "W_offdiag"]
        for bad in [math.nan, math.inf, -math.inf]
    ] + [("w_abs", 0.0), ("w_abs", -1.0)])
    def test_rejects_nonfinite_field(self, name, bad):
        fields = dict(eps=1e-4, a=0.0, q_hat=1.0, w_abs=1.0, alpha_w=0.02,
                      b_abs=0.97, alpha_b=0.01, beta_hat=0.02)
        if name == "alpha_w_beta_hat":
            fields.update(alpha_w=bad, beta_hat=bad)
        elif name.startswith("W_"):
            W = np.eye(3)
            W[0, 0 if name == "W_diag" else 1] = bad
            W[1, 0] = W[0, 1]
            fields["W"] = W
        else:
            fields[name] = bad
        with pytest.raises(DomainError):
            PlacedBubble(**fields)

    def test_derived_quantities(self):
        A = _bubble(b_abs=0.8, alpha_b=0.05)
        assert A.d == pytest.approx((1 - 0.64) / 1.6)
        bp = A.b_point.as_array()
        assert np.hypot(bp[0], bp[1]) == pytest.approx(0.8)
        assert math.atan2(bp[1], bp[0]) == pytest.approx(0.05)
        assert np.linalg.norm(A.w_vec) == pytest.approx(A.w_abs)

    def test_place_bubble_scalars(self):
        crown = build_crown(16)
        prof = u_star_profile(crown)
        xi = Point3(0.6038943129964425, 0.0, 0.0)
        A = place_bubble(1e-5, 0.0, 0.97, 0.0, 0.0, prof, xi)
        assert abs(A.q_hat) < 1e-8
        assert A.w_abs > 0.0
        assert np.allclose(A.W, A.W.T)
        # shifting along the gradient direction changes q_hat linearly
        B = place_bubble(1e-5, 1e-4, 0.97, 0.0, 0.0, prof, xi)
        assert B.q_hat == pytest.approx(1e-4 * A.w_abs, rel=1e-3)

    @pytest.mark.parametrize("field", [
        lambda arr, p: u_star(arr, p) + psi_d1(arr, p),
        u_star,
    ], ids=["corrected", "bubbles_none"])
    def test_place_bubble_needs_bubbles(self, field):
        # a profile without bubbles never reaches place_bubble: its handle
        # raises when built, before the field is evaluated even once
        p = build_crown(16)
        calls = []

        def fn(arr):
            calls.append(arr)
            return field(arr, p)

        with pytest.raises(DomainError):
            place_bubble(1e-5, 0.0, 0.97, 0.0, 0.0,
                         ProfileHandle(fn=fn, bubbles=None),
                         Point3(0.6038943129964425, 0.0, 0.0))
        assert calls == []


class TestGamma:
    def test_symmetric_in_arguments(self):
        z = Point3(0.7, 0.05, 0.1)
        p = Point3(0.8, -0.03, -0.2)
        assert gamma_direct(z, p, CFG) == pytest.approx(
            gamma_direct(p, z, CFG), rel=1e-12
        )

    def test_coincident_image_rejected(self):
        z = Point3(0.9, 0.0, 0.0)
        # p equal to the first non-identity image of z
        mats, _ = sector_images(CFG.K)
        p = Point3.from_array(mats[1] @ z.as_array())
        with pytest.raises(DomainError):
            gamma_direct(z, p, CFG)

    def test_near_coincident_image_accepted(self):
        # 5e-13 from the first image of z is not a coincidence: the value is
        # about 1/5e-13
        cfg = SectorConfig(64)
        z = Point3(0.9, 0.0, 0.0)
        mats, _ = sector_images(cfg.K)
        p = Point3.from_array(mats[1] @ z.as_array() + np.array([0.0, 0.0, 5e-13]))
        assert gamma_direct(z, p, cfg) == pytest.approx(2e12, rel=1e-9)

    def test_huge_points_rejected(self):
        # past _COORD_MAX the squared distances overflow; up to it they do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                gamma_direct(Point3(1e200, 0, 0), Point3(0.8, 0, 0), SectorConfig(32))
            with pytest.raises(DomainError):
                gamma_direct(Point3(0.8, 0, 0), Point3(0, -1e151, 0), CFG)
            for z, p in [(Point3(1e150, 0, 0), Point3(0.8, 0, 0)),
                         (Point3(0, 0, -1e150), Point3(1e150, 0, 0)),
                         (Point3(0.8, 0, 0), Point3(0, 1e150, 0))]:
                assert math.isfinite(gamma_direct(z, p, CFG))

    def test_diagonal_report(self):
        rep = gamma_bb(_b_point(0.96, 0.04 * CFG.theta0), CFG)
        assert isinstance(rep, KernelReport)
        assert rep.abs_err_dc < 1e-11
        assert rep.abs_err_ca < abs(rep.closed_form) * 0.01

    def test_report_errors_derived(self):
        rep = KernelReport(1.0, 0.75, 0.5)
        assert (rep.abs_err_dc, rep.abs_err_ca) == (0.25, 0.25)

    def test_diagonal_exact_at_zero_angle(self):
        rep = gamma_bb(_b_point(0.93, 0.0), CFG)
        assert rep.closed_form == pytest.approx(rep.asymptotic, rel=1e-13)

    def test_even_in_alpha_b(self):
        a = 0.2 * CFG.theta0
        plus = gamma_bb(_b_point(0.95, a), CFG).closed_form
        minus = gamma_bb(_b_point(0.95, -a), CFG).closed_form
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            gamma_bb(_b_point(0.4, 0.0), CFG)
        with pytest.raises(DomainError):
            gamma_bb(_b_point(0.9, 0.51 * CFG.theta0), CFG)
        with pytest.raises(DomainError):
            gamma_bb(Point3(0.9, 0.0, 0.1), CFG)


class TestH0:
    def test_value(self):
        z = Point3(0.3, 0.1, -0.2)
        p = Point3(-0.4, 0.2, 0.5)
        mats, signs = sector_images(CFG.K)
        pv = p.as_array()
        rad = [1 - 2 * v @ pv + (v @ v) * (pv @ pv) for v in mats @ z.as_array()]
        expected = math.fsum(s * r**-0.5 for s, r in zip(signs.tolist(), rad))
        assert h0e(z, p, CFG) == pytest.approx(expected)

    def test_rejects_boundary_diagonal(self):
        # the identity image of q is q's own Kelvin image
        q = Point3(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            h0e(q, q, CFG)

    @pytest.mark.parametrize("b", [0.999999999, 0.9999999999])
    def test_radicand_lost_to_round_off(self, b):
        # (1 - b^2)^2 > 0 cancels to 0: inside the domain, a numerical failure
        q = Point3(b, 0.0, 0.0)
        with pytest.raises(AccuracyError, match="round-off"):
            h0e(q, q, CFG)

    def test_extension_alternates(self):
        z = Point3(0.85, 0.02, 0.0)
        p = Point3(0.8, -0.01, 0.05)
        val = h0e(z, p, CFG)
        assert np.isfinite(val)
        # the extension of a first-slot-even function picks up h0 itself
        # as the identity-image term
        assert abs(val) < 2.0 * CFG.K * _ref_h0(z.as_array(), p.as_array())

    def test_diagonal_report(self):
        rep = h0e_bb(_b_point(0.97, 0.1 * CFG.theta0), CFG)
        assert rep.abs_err_dc < 1e-11
        assert rep.abs_err_ca < abs(rep.closed_form) * 0.05

    def test_diagonal_exact_at_zero_angle(self):
        rep = h0e_bb(_b_point(0.97, 0.0), CFG)
        assert rep.closed_form == pytest.approx(rep.asymptotic, rel=1e-13)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            h0e_bb(_b_point(1.5, 0.0), CFG)
        with pytest.raises(DomainError):
            h0e_bb(_b_point(0.9, 1.1 * CFG.theta0), CFG)


class TestDerivatives:
    @pytest.mark.parametrize("kind", ["gamma", "h0e"])
    @pytest.mark.parametrize("slot", ["z", "p"])
    def test_grad_direct_vs_closed(self, kind, slot):
        A = _bubble(b_abs=0.965, alpha_b=0.1 * CFG.theta0, alpha_w=0.07)
        rep = kernel_grad(kind, slot, A, CFG)
        assert rep.abs_err_dc < 1e-4

    @pytest.mark.parametrize("kind", ["gamma", "h0e"])
    def test_hess_direct_vs_closed(self, kind):
        A = _bubble(b_abs=0.965, alpha_b=0.1 * CFG.theta0, alpha_w=0.07)
        rep = kernel_hess(kind, A, CFG)
        assert rep.abs_err_dc < 1e-3

    def test_hess_direct_ignores_closed_form(self, monkeypatch):
        A = _bubble(b_abs=0.965, alpha_b=0.1 * CFG.theta0, alpha_w=0.07)
        real = kernels._w_sums
        real.cache_clear()
        before = kernel_hess("gamma", A, CFG)
        # the shared evaluation's Newtonian part shifted, its cache cleared
        real.cache_clear()
        monkeypatch.setattr(kernels, "_w_sums", lambda *args: (
            tuple(v + 1.0 for v in real(*args)[0]), real(*args)[1]))
        after = kernel_hess("gamma", A, CFG)
        assert after.closed_form == before.closed_form + 1.0
        assert after.direct == before.direct

    def test_bad_slot(self):
        with pytest.raises(DomainError):
            kernel_grad("gamma", "q", _bubble(), CFG)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            kernel_grad("newton", "z", _bubble(), CFG)

    def test_grad_scales_linearly_in_w(self):
        A1 = _bubble(w_abs=1.0)
        A2 = _bubble(w_abs=2.5)
        r1 = kernel_grad("gamma", "p", A1, CFG)
        r2 = kernel_grad("gamma", "p", A2, CFG)
        assert r2.closed_form == pytest.approx(2.5 * r1.closed_form, rel=1e-12)

    def test_hess_scales_quadratically_in_w(self):
        A1 = _bubble(w_abs=1.0)
        A2 = _bubble(w_abs=2.0)
        r1 = kernel_hess("h0e", A1, CFG)
        r2 = kernel_hess("h0e", A2, CFG)
        assert r2.closed_form == pytest.approx(4.0 * r1.closed_form, rel=1e-12)


class TestPlacedBubbleField:
    def test_singular_at_placement(self):
        A = place_bubble(1e-6, 0.0, 0.97, 0.01, 0.02, u_star_profile(build_crown(16)),
                         Point3(0.6038943129964425, 0.0, 0.0))
        # a point whose first tail image is the placement point b
        mats = sector_images(CFG.K)[0]
        z = Point3.from_array(mats[1].T @ A.b_point.as_array())
        with pytest.raises(DomainError, match="placement point"):
            t_a(z, A, CFG)

    def test_needs_a_placed_bubble(self):
        # the stored scalars alone do not define q_a: its profile does
        A = _bubble()
        with pytest.raises(UnsupportedError):
            t_a(Point3(0.3, 0.25, 0.1), A, CFG)

    def test_batched_image_sum_matches_per_image_loop(self):
        # t_a makes one profile call for all its images; each image's term
        # must still be the value of the one-image code
        def one_image(u, A):
            r = u - A.b_point.as_array()
            rn = float(np.linalg.norm(r))
            inner = A.eps * (rotation_matrix(A.beta) @ r) / rn**2 + A.xi_hat.as_array()
            return math.sqrt(A.eps) / rn * float(A.profile.fn(inner))

        crown = build_crown(16)
        prof = u_star_profile(crown)
        xi = Point3(0.6038943129964425, 0.0, 0.0)
        K = 64
        cfg = SectorConfig(K)
        # a rotated frame (beta_hat = 0.3) and an off-axis placement
        A = place_bubble(K**-3.0, 0.0, 0.985, 0.01, 0.3, prof, xi)
        mats, signs = sector_images(K)
        rng = np.random.default_rng(7)
        t0 = math.pi / K
        for _ in range(40):
            r, ang = rng.uniform(0.05, 0.999), rng.uniform(-t0, t0)
            z = Point3(r * math.cos(ang), r * math.sin(ang), rng.uniform(-0.5, 0.5))
            images = list(zip(mats[1:] @ z.as_array(), (-signs[1:]).tolist()))
            direct = t_a(z, A, cfg).direct
            assert direct == math.fsum(s * one_image(u, A) for u, s in images)

    def test_bounded_point(self):
        # |r|^5 overflows past 1e61: t_a raises DomainError there, with no
        # RuntimeWarning, and is finite just under its bound
        A = place_bubble(64**-3.0, 0.0, 0.95, 0.0, 0.0, u_star_profile(build_crown(16)),
                         Point3(0.6038943129964425, 0.0, 0.0))
        cfg = SectorConfig(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1e62, 1e150, 1e200):
                with pytest.raises(DomainError, match="t_a takes"):
                    t_a(Point3(z, 0.0, 0.0), A, cfg)
            rep = t_a(Point3(0.0, 0.0, 0.999e61), A, cfg)
        assert all(math.isfinite(v) for v in (rep.direct, rep.closed_form, rep.asymptotic))

    def test_image_sum_report(self):
        crown = build_crown(16)
        prof = u_star_profile(crown)
        xi = Point3(0.6038943129964425, 0.0, 0.0)
        A = place_bubble(1e-6, 0.0, 0.97, 0.0, 0.0, prof, xi)
        rep = t_a(A.b_point, A, CFG)
        assert np.isfinite(rep.direct)
        # closed kernel expansion reproduces the direct image sum through
        # the retained orders
        assert rep.abs_err_dc < 100.0 * A.eps**2.5
        assert rep.abs_err_ca < abs(rep.closed_form)


_KERNEL_ENTRIES = {
    "gamma_direct_z": lambda pt: gamma_direct(pt, Point3(0.8, 0.0, 0.0), CFG),
    "gamma_direct_p": lambda pt: gamma_direct(Point3(0.8, 0.0, 0.0), pt, CFG),
    "h0_z": lambda pt: h0e(pt, Point3(0.3, 0.1, 0.0), CFG),
    "h0_p": lambda pt: h0e(Point3(0.3, 0.1, 0.0), pt, CFG),
    "h0e_z": lambda pt: h0e(pt, Point3(0.8, 0.0, 0.0), CFG),
    "h0e_p": lambda pt: h0e(Point3(0.8, 0.0, 0.0), pt, CFG),
    "gamma_bb": lambda pt: gamma_bb(pt, CFG),
    "h0e_bb": lambda pt: h0e_bb(pt, CFG),
    "t_a": lambda pt: t_a(pt, _bubble(), CFG),
}


@pytest.mark.parametrize("coord", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_KERNEL_ENTRIES))
def test_nonfinite_point_rejected(entry, bad, coord):
    xyz = [0.9, 0.01, 0.0]
    xyz[coord] = bad
    with pytest.raises(DomainError):
        _KERNEL_ENTRIES[entry](Point3(*xyz))


# ---------------------------------------------------------------------------
# the sector-image table against a plain per-image loop


#: reflection of the in-plane imaginary part, as a matrix
_CONJ_MATRIX = np.diag([1.0, -1.0, 1.0])


def _ref_images(K):
    """(matrix, sign) pairs of the alternating extension, identity first,
    built one image at a time as products of rotation_matrix and the
    conjugation matrix."""
    t0 = math.pi / K
    out = []
    for j in range(K // 2):
        out.append((rotation_matrix(4 * j * t0), 1.0))
        out.append((rotation_matrix((4 * j + 2) * t0) @ _CONJ_MATRIX, -1.0))
    return out


@pytest.mark.parametrize("K", [4, 6, 10, 32, 64, 126, 1000, 4096, 2**16])
def test_sector_images_bits_equal_matrix_products(K):
    # every entry, and the sign of every zero, of the per-image products
    mats, signs = sector_images(K)
    ref = _ref_images(K)
    want = np.array([M for M, _ in ref])
    assert np.array_equal(mats, want)
    assert np.array_equal(np.signbit(mats), np.signbit(want))
    assert signs.tolist() == [s for _, s in ref]


def _dot(a, b):
    return float(a @ b)


def _ref_gamma(z, p, K):
    zv, pv = z.as_array(), p.as_array()
    return math.fsum(-s / math.sqrt(_dot(M @ zv - pv, M @ zv - pv))
                     for M, s in _ref_images(K)[1:])


def _ref_h0(v, pv):
    return (1.0 - 2.0 * _dot(v, pv) + _dot(v, v) * _dot(pv, pv)) ** -0.5


def _ref_h0e(z, p, K):
    zv, pv = z.as_array(), p.as_array()
    return math.fsum(s * _ref_h0(M @ zv, pv) for M, s in _ref_images(K))


def _ref_newton_derivs(A, K):
    b, w = A.b_point.as_array(), A.w_vec
    gz, gp, hess = [], [], []
    for M, s in _ref_images(K)[1:]:
        r, mw = M @ b - b, M @ w
        rn = math.sqrt(_dot(r, r))
        gz.append(s * _dot(r, mw) / rn**3)
        gp.append(-s * _dot(r, w) / rn**3)
        hess.append(-s * (_dot(mw, w) / rn**3
                          - 3.0 * _dot(r, mw) * _dot(r, w) / rn**5))
    return math.fsum(gz), math.fsum(gp), math.fsum(hess)


def _ref_h0e_derivs(A, K):
    b, w = A.b_point.as_array(), A.w_vec
    gz, gp, hess = [], [], []
    for M, s in _ref_images(K):
        v, mw = M @ b, M @ w
        v2 = _dot(v, v)
        F = _ref_h0(v, b)
        dz = _dot(b - v2 * v, mw)
        dp = _dot(v - v2 * b, w)
        gz.append(s * F**3 * dz)
        gp.append(s * F**3 * dp)
        hess.append(s * (3.0 * F**5 * dz * dp
                         + F**3 * (_dot(mw, w) - 2.0 * _dot(v, mw) * _dot(b, w))))
    return math.fsum(gz), math.fsum(gp), math.fsum(hess)


@pytest.mark.parametrize("K", [4, 32, 256])
class TestSectorImages:
    def test_table(self, K):
        mats, signs = sector_images(K)
        assert mats.shape == (K, 3, 3) and signs.shape == (K,)
        assert np.array_equal(mats[0], np.eye(3))
        assert np.array_equal(signs, np.tile([1.0, -1.0], K // 2))
        assert np.allclose(mats @ mats.transpose(0, 2, 1), np.eye(3), atol=1e-15)
        assert np.array_equal(np.sign(np.linalg.det(mats)), signs)
        assert not (mats.flags.writeable or signs.flags.writeable)
        assert sector_images(K)[0] is mats

    def test_kernel_sums(self, K):
        cfg = SectorConfig(K)
        z = Point3(0.7, 0.05, 0.1)
        p = Point3(0.8, -0.03, -0.2)
        assert gamma_direct(z, p, cfg) == pytest.approx(_ref_gamma(z, p, K), rel=1e-14)
        assert h0e(z, p, cfg) == pytest.approx(_ref_h0e(z, p, K), rel=1e-14)

    def test_closed_forms(self, K):
        cfg = SectorConfig(K)
        A = _bubble(b_abs=0.965, alpha_b=0.1 * cfg.theta0, alpha_w=0.07)
        sums = kernels._w_sums(K, A.b_abs, A.alpha_b, A.w_abs, A.alpha_w)
        for got, ref in zip(sums, (_ref_newton_derivs(A, K), _ref_h0e_derivs(A, K))):
            assert got == pytest.approx(ref, rel=1e-14)


# ---------------------------------------------------------------------------
# the per-K tables and list sums against the loops they replaced


@pytest.mark.parametrize("K", [8, 64, 256, 1024, 8192])
def test_a_gamma_forms_bits_equal_one_row_product(K):
    # minimize_psi's grid takes its 81 forms from one call on the stack of
    # rows, and _a_gamma_quad its one form from the same routine: each
    # entry the bits of the 1-D alpha @ A @ alpha, on 50 000 seeded alpha
    # whose entries each have a magnitude from 1e-8 to 1.  A BLAS that
    # rounds the stack otherwise fails here first
    rng = np.random.default_rng(40 + K)
    alpha = rng.uniform(-1.0, 1.0, (50_000, 2)) * 10.0 ** rng.uniform(-8.0, 0.0, (50_000, 2))
    form = kernels.a_gamma(K)
    want = np.array([float(a @ form @ a) for a in alpha]).tobytes()
    assert kernels._a_gamma_forms(K, alpha).tobytes() == want
    assert kernels._a_gamma_forms(K, alpha.reshape(250, 200, 2)).tobytes() == want
    assert np.array([_a_gamma_quad(K, w, b) for w, b in alpha.tolist()]).tobytes() == want


@pytest.mark.parametrize("e", [-0.5, -1.5, -2.5, 2.0, 3.0, 5.0])
def test_float_power_is_libm_pow(e):
    # the sums and kernels take C's pow from np.float_power's float64 loop,
    # at every exponent they pass; a NumPy that vectorises that loop, as
    # np.power's runs SVML, fails here first.  The bases: the sin^2(j pi/n)
    # table at n = N_MAX, sums' bases from sin^2(pi/N_MAX) up to 1, the
    # kernels' 1e-3 to 4, and large bases up to half the largest whose
    # power is finite
    rng = np.random.default_rng(39)
    tiny = math.sin(math.pi / N_MAX) ** 2
    big = 1e300 if e < 0 else 0.5 * np.finfo(float).max ** (1.0 / e)
    a = np.concatenate([
        _sin2_float(N_MAX)[1:],
        np.exp(rng.uniform(math.log(tiny), 0.0, 70_000)),
        rng.uniform(1e-3, 4.0, 70_000),
        np.exp(rng.uniform(math.log(4.0), math.log(big), 70_000)),
    ])
    want = np.fromiter(map(math.pow, a.tolist(), repeat(e)), float, a.size)
    assert np.float_power(a, e).tobytes() == want.tobytes()


def test_np_sin_is_libm_sin():
    # the closed forms take sin((2j+1) theta0 - alpha_b) from np.sin, whose
    # bits there are math.sin's: on every odd angle of each even K <= 2 048
    # and of K = 2^12 ... 2^16, shifted by alpha_b at 0 and at and inside
    # +-theta0/2, and on 200 000 uniform angles in (0, pi)
    angles = [np.random.default_rng(39).uniform(0.0, math.pi, 200_000)]
    for K in [*range(4, 2049, 2), *(2**q for q in range(12, 17))]:
        t0 = math.pi / K
        odd = np.arange(1, K, 2) * t0
        angles += [odd - f * t0 for f in (0.0, 0.5, -0.5, 0.3, -0.1)]
    a = np.concatenate(angles)
    want = np.fromiter(map(math.sin, a.tolist()), float, a.size)
    assert np.sin(a).tobytes() == want.tobytes()


def _gamma_bb_closed_loop(babs, alpha_b, K):
    """_gamma_bb_closed with its angles and cosecants computed per term."""
    t0 = math.pi / K
    terms = [1.0 / math.sin((2 * j + 1) * t0 - alpha_b) for j in range(K // 2)]
    terms += [-1.0 / math.sin(2 * j * t0) for j in range(1, K // 2)]
    return math.fsum(terms) / (2.0 * babs)


def _h0e_bb_closed_loop(babs, alpha_b, K):
    """_h0e_bb_closed with its angles and sines computed per term."""
    t0 = math.pi / K
    d = (1.0 - babs * babs) / (2.0 * babs)
    terms = []
    for j in range(K // 2):
        terms.append((d * d + math.sin(2 * j * t0) ** 2) ** -0.5)
        terms.append(-((d * d + math.sin((2 * j + 1) * t0 - alpha_b) ** 2) ** -0.5))
    return math.fsum(terms) / (2.0 * babs)


@settings(max_examples=200)
@given(st.sampled_from([4, 6, 8, 32, 64, 126, 256, 1024]),
       st.one_of(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
                 st.sampled_from([0.5 + 2**-52, 0.97, 1.0 - 1e-9, 1.0 - 2**-53])),
       st.one_of(st.floats(-0.5, 0.5), st.sampled_from([-0.5, 0.5, 0.0, -0.0])))
def test_closed_forms_bits_equal_term_loops(K, babs, frac):
    # alpha_b from 0 to the bound theta0/2 of h0e's closed form, which
    # gamma's rejects
    cfg = SectorConfig(K)
    alpha_b = frac * cfg.theta0
    assert _h0e_bb_closed(babs, alpha_b, cfg) == _h0e_bb_closed_loop(babs, alpha_b, K)
    if abs(frac) == 0.5:
        with pytest.raises(DomainError):
            _gamma_bb_closed(babs, alpha_b, cfg)
    else:
        assert _gamma_bb_closed(babs, alpha_b, cfg) == _gamma_bb_closed_loop(babs, alpha_b, K)


def _tables_loop(K):
    """_closed_tables' three lists as per-term loops compute them."""
    t0 = math.pi / K
    return ([(2 * j + 1) * t0 for j in range(K // 2)],
            [-1.0 / math.sin(2 * j * t0) for j in range(1, K // 2)],
            [math.sin(2 * j * t0) ** 2 for j in range(K // 2)])


def test_closed_tables_bits_equal_term_loops():
    # the sines read from sector_images, and squared by pow as float ** does:
    # glibc 2.36's pow(x, 2) and x * x differ by an ulp at K = 1024, j = 395
    for K in [*range(4, 2049, 2), *(2**q for q in range(12, 17))]:
        got, want = kernels._closed_tables(K), _tables_loop(K)
        assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in want], K


@st.composite
def _edge_placement(draw):
    """K and a point b = |b| e^{i alpha} at an edge: |b| at or next to 1/2
    and 1, alpha on a reflection axis (an odd multiple of theta0), at the
    closed forms' bound +-theta0/2, or anywhere in the sector."""
    K = draw(st.sampled_from([4, 6, 32, 64]))
    t0 = math.pi / K
    babs = draw(st.one_of(
        st.sampled_from([1.0, 1.0 - 2**-53, 1.0 - 1e-15, 1.0 - 1e-12, 1.0 - 1e-9,
                         0.5, 0.5 + 2**-53, 1e-300]),
        st.floats(0.5, 1.0)))
    kind = draw(st.sampled_from(["axis", "bound", "free"]))
    if kind == "axis":
        alpha = (2 * draw(st.integers(-K // 2, K // 2 - 1)) + 1) * t0
    elif kind == "bound":
        alpha = draw(st.sampled_from([-0.5, 0.5])) * t0
    else:
        alpha = draw(st.floats(-t0, t0))
    return K, babs, alpha


_PROFILE = u_star_profile(build_crown(16))


@settings(max_examples=150)
@given(_edge_placement(), st.integers(0, 63), st.sampled_from([1, 3, 5]),
       st.one_of(st.floats(0.1, 10.0), st.just(1e-300)),
       st.floats(-0.1, 0.1))
def test_edge_inputs_raise_only_typed_errors(placement, image, k, gnorm, alpha_w):
    # coincident images: z is a point that the image of index ``image`` maps
    # onto b; the sums, kernels and image sum raise DomainError or
    # AccuracyError there, never ZeroDivisionError, ValueError or
    # OverflowError
    K, babs, alpha = placement
    cfg = SectorConfig(K)
    b = Point3(babs * math.cos(alpha), babs * math.sin(alpha), 0.0)
    z = Point3.from_array(sector_images(K)[0][image % K].T @ b.as_array())
    d = (1.0 - babs * babs) / (2.0 * babs)
    calls = [
        lambda: sum_direct(SumSpec("alt", k, K, d)),
        lambda: gamma_direct(b, b, cfg),
        lambda: gamma_direct(z, b, cfg),
        lambda: h0e(b, b, cfg),
        lambda: h0e(z, b, cfg),
        lambda: full_kernels(K, gnorm, babs, alpha, alpha_w),
        lambda: t_a(z, place_bubble(K**-3.0, 0.0, babs, alpha, alpha_w, _PROFILE,
                                    Point3(0.6038943129964425, 0.0, 0.0)), cfg),
    ]
    for call in calls:
        try:
            call()
        except (DomainError, AccuracyError):
            pass


@settings(max_examples=100)
@given(st.sampled_from([4, 64, 1024]), st.floats(0.51, 0.999), st.floats(-0.49, 0.49),
       st.one_of(st.floats(), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
       st.floats(-3.0, 3.0))
@example(64, 0.95, 0.0, 1e154, 0.0)
@example(64, 0.95, 0.0, math.nan, 0.0)
def test_full_kernels_finite_or_domain_error(K, babs, frac, gnorm, alpha_w):
    # a gnorm that is not finite and positive, or past the bound where the
    # w-derivative sums can overflow (above 1e100 here), is a DomainError;
    # any other gives finite kernels, and no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = full_kernels(K, gnorm, babs, frac * math.pi / K, alpha_w)
        except DomainError:
            assert not 0.0 < gnorm <= 1e100
            return
    assert all(map(math.isfinite, out))


@settings(max_examples=60)
@given(st.sampled_from([4, 32, 64, 1024]), st.floats(0.05, 0.999),
       st.floats(-0.49, 0.49), st.floats(-3.0, 3.0),
       st.one_of(st.floats(0.0, 300.0).map(lambda e: 10.0**e),
                 st.floats(1.0, 1.7e308)),
       st.sampled_from([("grad", "z"), ("grad", "p"), ("hess", None)]),
       st.sampled_from(["gamma", "h0e"]))
@example(32, 0.97, 0.01 * 32 / math.pi, 0.02, 1e200, ("hess", None), "gamma")
@example(32, 0.97, 0.01 * 32 / math.pi, 0.02, 1e200, ("grad", "z"), "h0e")
def test_kernel_derivatives_finite_or_domain_error(K, babs, frac, alpha_w, w_abs,
                                                   which, kind):
    # a |w| past the bound where the w-derivative sums can overflow is a
    # DomainError, as in full_kernels; below it the reports are finite, and
    # no warning escapes
    A = _bubble(b_abs=babs, alpha_b=frac * math.pi / K, alpha_w=alpha_w, w_abs=w_abs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if which[0] == "grad":
                rep = kernel_grad(kind, which[1], A, SectorConfig(K))
            else:
                rep = kernel_hess(kind, A, SectorConfig(K))
        except DomainError:
            assert w_abs > 1e100
            return
    assert all(map(math.isfinite, (rep.direct, rep.closed_form, rep.asymptotic)))


# ---------------------------------------------------------------------------
# any drawn point: rejected when non-finite, finite output or a typed error


_COORD = st.one_of(
    st.floats(),  # finite, nan and +-inf
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e155, 5e-324,
                     -5e-324, 1e-160, 0.0, -0.0]),
    st.floats(-1.0, 1.0),
    st.floats(-0.05, 0.05),
)


def _all_finite(out):
    if isinstance(out, KernelReport):
        out = (out.direct, out.closed_form, out.asymptotic)
    return bool(np.isfinite(out).all())


_POINT_CALLS = {
    "gamma_bb": lambda z: gamma_bb(z, CFG),
    "h0e_bb": lambda z: h0e_bb(z, CFG),
    "h0_z": lambda z: h0e(z, Point3(0.3, 0.1, 0.0), CFG),
    "h0_p": lambda z: h0e(Point3(0.3, 0.1, 0.0), z, CFG),
    "h0_zz": lambda z: h0e(z, z, CFG),
}


@settings(max_examples=300)
@given(_COORD, _COORD, _COORD)
def test_point_entries_finite_or_typed(z1, z2, z3):
    if not all(map(math.isfinite, (z1, z2, z3))):
        with pytest.raises(DomainError):
            Point3(z1, z2, z3)
        return
    z = Point3(z1, z2, z3)
    for name, call in _POINT_CALLS.items():
        try:
            out = call(z)
        except (DomainError, AccuracyError):
            continue
        assert _all_finite(out), (name, out)


#: any float: finite, tiny, huge, nan or +-inf
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]))


@st.composite
def _w_matrix(draw):
    """A 3x3 W: symmetric, drawn entry by entry, or of another shape."""
    upper = draw(st.lists(st.one_of(st.floats(-10.0, 10.0), _ANY_FLOAT), min_size=6, max_size=6))
    W = np.zeros((3, 3))
    W[np.triu_indices(3)] = upper
    W = W + np.triu(W, 1).T
    kind = draw(st.sampled_from(["symmetric", "skewed", "shape"]))
    if kind == "skewed":
        W[0, 1] = draw(_ANY_FLOAT)
    return W[:2] if kind == "shape" else W


@settings(max_examples=60)
@given(st.one_of(st.floats(1e-9, 1e-3), _ANY_FLOAT), _ANY_FLOAT, _ANY_FLOAT,
       st.one_of(st.floats(0.1, 10.0), _ANY_FLOAT), st.one_of(st.floats(-1.0, 1.0), _ANY_FLOAT),
       st.one_of(st.floats(0.5, 1.0), _ANY_FLOAT), st.one_of(st.floats(-0.1, 0.1), _ANY_FLOAT),
       st.booleans(), _w_matrix())
# a subnormal |b|, whose d overflowed, and a skewed W whose W - W.T overflowed
@example(1e-6, 0.0, 0.0, 1.0, 0.0, 5e-324, 0.0, True, np.eye(3))
@example(1e-6, 0.0, 0.0, 1.0, 0.0, 0.5, 0.0, True,
         np.array([[0.0, 1.7e308, 0.0], [-1.7e308, 0.0, 0.0], [0.0, 0.0, 0.0]]))
def test_placed_bubble_finite_or_domain_error(eps, a, q_hat, w_abs, alpha_w, b_abs, alpha_b,
                                              frame, W):
    # a PlacedBubble is built with finite derived values, or DomainError
    beta_hat = alpha_w if frame else alpha_w + 0.5
    try:
        A = PlacedBubble(eps, a, q_hat, w_abs, alpha_w, b_abs, alpha_b, beta_hat, W)
    except DomainError:
        return
    assert np.isfinite(A.b_point.as_array()).all() and np.isfinite(A.w_vec).all()
    assert math.isfinite(A.d) and math.isfinite(A.beta)


# ---------------------------------------------------------------------------
# the per-call kernel layer that the shared exact sums and the one-call
# stencils replaced, kept as bit-for-bit oracles


def _old_tail(K):
    mats, signs = sector_images(K)
    return mats[1:], -signs[1:]


def _old_pow(a, e):
    return np.fromiter(map(math.pow, a.tolist(), repeat(float(e))), float, a.size)


def _old_norm(r):
    return np.sqrt(np.vecdot(r, r))


def _old_h0_rad(v, pv):
    pp = np.vecdot(pv, pv)
    rad = 1.0 - 2.0 * np.vecdot(v, pv) + np.vecdot(v, v) * pp
    if np.any(rad <= 0.0):
        if np.any((rad <= 0.0) & np.all(v == pv / pp, axis=-1)):
            raise DomainError("h0 is singular at the Kelvin image of its second point")
        raise AccuracyError("the radicand of h0 cancelled to <= 0 in round-off")
    return rad


def _old_gamma_direct(z, p, K):
    if max(z.norm(), p.norm()) > _COORD_MAX:
        raise DomainError(f"gamma takes |z| and |p| up to {_COORD_MAX:g}")
    mats, signs = _old_tail(K)
    r = _old_norm(mats @ z.as_array() - p.as_array())
    if np.any(r < 1e-13):
        raise DomainError("evaluation point coincides with an image point")
    return math.fsum((signs / r).tolist())


def _old_h0e(z, p, K):
    nz, npn = z.norm(), p.norm()
    if max(nz, npn, nz * npn) > _COORD_MAX:
        raise DomainError(f"h0e takes |z|, |p| and |z||p| up to {_COORD_MAX:g}")
    mats, signs = sector_images(K)
    rad = _old_h0_rad(mats @ z.as_array(), p.as_array())
    return math.fsum((signs * _old_pow(rad, -0.5)).tolist())


def _old_newton_derivs(bv, w, K):
    mats, signs = _old_tail(K)
    mw = mats @ w
    r = mats @ bv - bv
    rn = _old_norm(r)
    rn3, rn5 = _old_pow(rn, 3), _old_pow(rn, 5)
    rw, rmw = np.vecdot(r, w), np.vecdot(r, mw)
    return (
        math.fsum((-signs * rmw / rn3).tolist()),
        math.fsum((signs * rw / rn3).tolist()),
        math.fsum((signs * (np.vecdot(mw, w) / rn3 - 3.0 * rmw * rw / rn5)).tolist()),
    )


def _old_h0e_derivs(bv, w, K):
    mats, signs = sector_images(K)
    v, mw = mats @ bv, mats @ w
    v2 = np.vecdot(v, v)[:, None]
    F = _old_pow(_old_h0_rad(v, bv), -0.5)
    F3, F5 = _old_pow(F, 3), _old_pow(F, 5)
    gz = np.vecdot(bv - v2 * v, mw)
    gp = np.vecdot(v - v2 * bv, w)
    return (
        math.fsum((signs * F3 * gz).tolist()),
        math.fsum((signs * F3 * gp).tolist()),
        math.fsum((signs * (3.0 * F5 * gz * gp + F3 * (
            np.vecdot(mw, w) - 2.0 * np.vecdot(v, mw) * np.vecdot(bv, w)))).tolist()),
    )


def _old_direct_fn(kind, K):
    if kind not in ("gamma", "h0e"):
        raise DomainError(f"unknown kernel kind {kind!r}")
    f = _old_gamma_direct if kind == "gamma" else _old_h0e
    return lambda zv, pv: f(Point3.from_array(zv), Point3.from_array(pv), K)


def _s_alt(k, n, x):
    """S_k(n, x), one direct alternating sum per call."""
    return sum_direct(SumSpec("alt", k, n, x))


def _old_kernel_grad(kind, slot, A, cfg):
    if slot not in ("z", "p"):
        raise DomainError(f"slot must be 'z' or 'p', got {slot!r}")
    f = _old_direct_fn(kind, cfg.K)
    _check_w_sums(cfg.K, A.w_abs, A.b_abs, A.alpha_b)
    bv, w = A.b_point.as_array(), A.w_vec
    what = w / np.linalg.norm(w)
    h = 1e-6
    if slot == "z":
        direct = A.w_abs * (f(bv + h * what, bv) - f(bv - h * what, bv)) / (2 * h)
    else:
        direct = A.w_abs * (f(bv, bv + h * what) - f(bv, bv - h * what)) / (2 * h)
    if kind == "gamma":
        closed = _old_newton_derivs(bv, w, cfg.K)[("z", "p").index(slot)]
        asym = -A.w_abs * s_hat(1, cfg.K) / (4.0 * A.b_abs**2)
    else:
        closed = _old_h0e_derivs(bv, w, cfg.K)[("z", "p").index(slot)]
        d = A.d
        s1, s3 = _s_alt(1, cfg.K, d), _s_alt(3, cfg.K, d)
        asym = A.w_abs / (4.0 * A.b_abs**2) * (-s1 + d * math.sqrt(1.0 + d * d) * s3)
    return KernelReport(direct, closed, asym)


def _old_mixed_second_difference(f, bv, what, h):
    return (
        f(bv + h * what, bv + h * what)
        - f(bv + h * what, bv - h * what)
        - f(bv - h * what, bv + h * what)
        + f(bv - h * what, bv - h * what)
    ) / (4.0 * h * h)


def _old_kernel_hess(kind, A, cfg):
    f = _old_direct_fn(kind, cfg.K)
    _check_w_sums(cfg.K, A.w_abs, A.b_abs, A.alpha_b)
    bv, w = A.b_point.as_array(), A.w_vec
    what = w / np.linalg.norm(w)
    if kind == "gamma":
        closed = _old_newton_derivs(bv, w, cfg.K)[2]
        quad = _a_gamma_quad(cfg.K, A.alpha_w, A.alpha_b)
        asym = A.w_abs**2 / (8.0 * A.b_abs**3) * (s_hat(1, cfg.K) + s_hat(3, cfg.K) + quad)
    else:
        closed = _old_h0e_derivs(bv, w, cfg.K)[2]
        d = A.d
        s1, s3, s5 = (_s_alt(k, cfg.K, d) for k in (1, 3, 5))
        root = d + math.sqrt(1.0 + d * d)
        asym = A.w_abs**2 / (8.0 * A.b_abs**3) * (
            s1 - root * root * s3 + 3.0 * (d * d + d**4) * s5)
    coarse = A.w_abs**2 * _old_mixed_second_difference(f, bv, what, 1e-4)
    finer = A.w_abs**2 * _old_mixed_second_difference(f, bv, what, 1e-4 / 2.0)
    return KernelReport((4.0 * finer - coarse) / 3.0, closed, asym)


def _old_full_kernels(K, gnorm, b_abs, alpha_b, alpha_w):
    sector = SectorConfig(K)
    b = Point3(b_abs * math.cos(alpha_b), b_abs * math.sin(alpha_b), 0.0)
    babs, alpha_b = kernels._in_plane(b)
    h_val = _gamma_bb_closed(babs, alpha_b, sector) + _h0e_bb_closed(babs, alpha_b, sector)
    _check_w_sums(K, gnorm, babs, alpha_b)
    bv = b.as_array()
    w = gnorm * np.array([math.cos(alpha_w), math.sin(alpha_w), 0.0])
    newton, ext = _old_newton_derivs(bv, w, K), _old_h0e_derivs(bv, w, K)
    return h_val, newton[0] + newton[1] + ext[0] + ext[1], newton[2] + ext[2]


def _old_gamma_bb(b, cfg):
    babs, alpha_b = kernels._in_plane(b)
    closed = _gamma_bb_closed(babs, alpha_b, cfg)
    return KernelReport(_old_gamma_direct(b, b, cfg.K), closed,
                        s_hat(1, cfg.K) / (2.0 * babs))


def _old_h0e_bb(b, cfg):
    babs, alpha_b = kernels._in_plane(b)
    closed = _h0e_bb_closed(babs, alpha_b, cfg)
    direct = _old_h0e(b, b, cfg.K)
    d = (1.0 - babs * babs) / (2.0 * babs)
    return KernelReport(direct, closed, _s_alt(1, cfg.K, d) / (2.0 * babs))


def _old_t_a(z, A, cfg):
    mats, signs = _old_tail(cfg.K)
    v = mats @ z.as_array()
    if A.profile is None or A.xi_hat is None:
        raise UnsupportedError("t_a needs a bubble from place_bubble, "
                               "with its profile and xi_hat")
    r = v - A.b_point.as_array()
    rn = _old_norm(r)
    if np.any(rn < 1e-13):
        raise DomainError("q_a is undefined at the placement point")
    inner = (A.eps * np.matmul(rotation_matrix(A.beta), r[:, :, None])[:, :, 0]
             / _old_pow(rn, 2)[:, None] + A.xi_hat.as_array())
    direct = math.fsum((signs * (math.sqrt(A.eps) / rn * A.profile.fn(inner))).tolist())
    W = np.asarray(A.W, dtype=float)
    rn3, rn5 = _old_pow(rn, 3), _old_pow(rn, 5)
    g2 = -float(np.trace(W)) / rn3 + 3.0 * np.vecdot(r @ W, r) / rn5
    e = A.eps
    lead = math.sqrt(e) * A.q_hat * math.fsum((signs / rn).tolist())
    grad_term = e**1.5 * math.fsum((signs * np.vecdot(r, A.w_vec) / rn3).tolist())
    hess_term = e**2.5 / 6.0 * math.fsum((signs * g2).tolist())
    return KernelReport(direct, lead + grad_term + hess_term, lead + grad_term)


def _outcome(call):
    """call()'s values as an array, or the type and text of what it raised."""
    try:
        out = call()
    except Exception as exc:  # any error, a RuntimeWarning made one included
        return type(exc), str(exc)
    if isinstance(out, KernelReport):
        out = (out.direct, out.closed_form, out.asymptotic)
    return np.atleast_1d(np.array(out, dtype=float))


def _assert_same(new, old):
    """new() returns old()'s values bit for bit, the sign of a zero
    included, or raises an error of the same type and text."""
    got, want = _outcome(new), _outcome(old)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want, equal_nan=True), (got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _w_cut(K, b_abs, alpha_b):
    """About the largest |w| that _check_w_sums accepts at b, or 1."""
    t0 = math.pi / K
    alpha = math.atan2(math.sin(alpha_b), math.cos(alpha_b))
    r = min(1.0, 2.0 * b_abs) * math.sin(min(abs(math.remainder(alpha - t0, 2 * t0)), t0 / 2))
    if r <= 0.0:
        return 1.0
    cut = math.sqrt(1.79e308 / (2.0 * K * (4.0 / r**3 + 15.0 / (1.0 - b_abs * b_abs) ** 5)))
    return cut if math.isfinite(cut) and cut > 2.0 else 1.0


_K_DRAWN = st.sampled_from([4, 32, 64, 256])
#: |b| anywhere in (0, 1), at 1/2, and within an ulp to 1e-9 of 1
_B_ABS = st.one_of(st.floats(0.01, 1.0, exclude_max=True),
                   st.sampled_from([1.0 - 2**-53, 1.0 - 1e-15, 1.0 - 1e-12, 1.0 - 1e-9,
                                    0.5, 0.5 + 2**-53, 0.97]))
#: alpha_b / theta0: inside the sector, at the closed forms' bound +-1/2,
#: a signed zero, and on a reflection axis
_FRAC = st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.5, -0.5, 0.0, -0.0, 1.0, 3.0]))


@st.composite
def _drawn_bubble(draw):
    K = draw(_K_DRAWN)
    b_abs = draw(_B_ABS)
    alpha_b = draw(_FRAC) * math.pi / K
    alpha_w = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0])))
    cut = _w_cut(K, b_abs, alpha_b)
    w_abs = draw(st.one_of(st.floats(0.1, 10.0),
                           st.sampled_from([0.5, 0.999, 1.001, 2.0]).map(lambda m: m * cut)))
    return K, PlacedBubble(eps=K**-3.0, a=0.0, q_hat=0.5, w_abs=w_abs, alpha_w=alpha_w,
                           b_abs=b_abs, alpha_b=alpha_b, beta_hat=alpha_w)


@settings(max_examples=150)
@given(_drawn_bubble())
@example((64, _bubble(b_abs=0.97, alpha_b=0.0, alpha_w=0.0)))
@example((64, _bubble(b_abs=0.97, alpha_b=-0.0, alpha_w=-0.0)))
@example((32, _bubble(b_abs=1.0 - 2**-53, alpha_b=0.0)))
def test_kernel_layer_bits_equal_per_call_oracles(drawn):
    # every value of the kernel layer, in the order the bench and verify
    # call it (so the later calls read the shared sums), is the per-call
    # code's, or raises its error
    K, A = drawn
    cfg = SectorConfig(K)
    for kind in ("gamma", "h0e"):
        for slot in ("z", "p"):
            _assert_same(lambda: kernel_grad(kind, slot, A, cfg),
                         lambda: _old_kernel_grad(kind, slot, A, cfg))
        _assert_same(lambda: kernel_hess(kind, A, cfg), lambda: _old_kernel_hess(kind, A, cfg))
    _assert_same(lambda: full_kernels(K, A.w_abs, A.b_abs, A.alpha_b, A.alpha_w),
                 lambda: _old_full_kernels(K, A.w_abs, A.b_abs, A.alpha_b, A.alpha_w))
    for fn, old in ((gamma_bb, _old_gamma_bb), (h0e_bb, _old_h0e_bb)):
        _assert_same(lambda: fn(A.b_point, cfg), lambda: old(A.b_point, cfg))


def test_signed_zero_angles_share_no_wrong_bits():
    # 0.0 and -0.0 are one key of the shared sums' cache; every value read
    # through it must still be the per-call code's for both
    kernels._w_sums.cache_clear()
    for ab, aw in ((0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)):
        A = _bubble(b_abs=0.97, alpha_b=ab, alpha_w=aw)
        for kind in ("gamma", "h0e"):
            _assert_same(lambda: kernel_grad(kind, "p", A, CFG),
                         lambda: _old_kernel_grad(kind, "p", A, CFG))
            _assert_same(lambda: kernel_hess(kind, A, CFG), lambda: _old_kernel_hess(kind, A, CFG))


_XI = Point3(0.6038943129964425, 0.0, 0.0)


@settings(max_examples=60)
@given(_K_DRAWN, _B_ABS, _FRAC, st.floats(-0.5, 0.5), st.sampled_from([1e-6, 1e-4, 0.01]),
       st.lists(st.tuples(st.floats(0.0, 1.2), st.floats(-1.0, 1.0), st.floats(-0.6, 0.6)),
                min_size=1, max_size=4),
       st.sampled_from(["points", "coincident", "huge"]))
def test_t_a_bits_equal_per_call_oracle(K, b_abs, frac, beta_hat, eps, polar, extra):
    # t_a at drawn sector points and at a point whose image is b
    # (coincident) is the per-call code's, or raises its error; at
    # |z| = 1e200, where the per-call code's |r|^2 overflows, it raises
    # DomainError
    try:
        A = place_bubble(eps, 0.0, b_abs, frac * math.pi / K, beta_hat, _PROFILE, _XI)
    except DomainError:
        return
    cfg = SectorConfig(K)
    t0 = math.pi / K
    points = [Point3(r * math.cos(a * t0), r * math.sin(a * t0), z3) for r, a, z3 in polar]
    if extra == "coincident":
        points.append(Point3.from_array(sector_images(K)[0][1].T @ A.b_point.as_array()))
    elif extra == "huge":
        with pytest.raises(DomainError, match="t_a takes"):
            t_a(Point3(1e200, 0.0, 0.0), A, cfg)
    for z in points:
        _assert_same(lambda: t_a(z, A, cfg), lambda: _old_t_a(z, A, cfg))
    bare = _bubble()
    _assert_same(lambda: t_a(points[0], bare, cfg), lambda: _old_t_a(points[0], bare, cfg))


@pytest.mark.parametrize("K", [4, 32, 64, 256])
def test_point_kernels_raise_the_per_call_errors(K):
    # a coincident image, the Kelvin image, |z| past 1e150 and a radicand
    # cancelled in round-off: the same error, type and text
    cfg = SectorConfig(K)
    z = Point3(0.9, 0.0, 0.0)
    image = Point3.from_array(sector_images(K)[0][1] @ z.as_array())
    q = Point3(0.999999999, 0.0, 0.0)
    cases = [(z, image), (Point3(2.0, 0.0, 0.0), Point3(0.5, 0.0, 0.0)),
             (Point3(1e151, 0.0, 0.0), z), (z, Point3(0.0, -1e151, 0.0)), (q, q),
             (Point3(0.3, 0.1, -0.2), Point3(-0.4, 0.2, 0.5))]
    for a, b in cases:
        _assert_same(lambda: gamma_direct(a, b, cfg), lambda: _old_gamma_direct(a, b, K))
        _assert_same(lambda: h0e(a, b, cfg), lambda: _old_h0e(a, b, K))
    _assert_same(lambda: h0e_bb(q, cfg), lambda: _old_h0e_bb(q, cfg))


def test_sector_images_cache_is_bounded():
    # the one image table per K, which _direct and t_a slice, stays bounded
    # however many K a process visits
    for K in range(4, 2 * sector_images.cache_info().maxsize + 12, 2):
        sector_images(K)
    assert sector_images.cache_info().currsize <= sector_images.cache_info().maxsize


def test_stencil_raises_the_first_rows_error():
    # a one-call stencil raises what the per-point loop raised first: here
    # a radicand lost to round-off (row q) and the Kelvin image (row k)
    q = np.array([0.999999999, 0.0, 0.0])
    k = (np.array([2.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    for Z, P, err in (([q, k[0]], [q, k[1]], AccuracyError),
                      ([k[0], q], [k[1], q], DomainError)):
        with pytest.raises(err):
            kernels._direct("h0e", np.array(Z), np.array(P), 32)
        with pytest.raises(err):
            for zv, pv in zip(Z, P):
                _old_h0e(Point3.from_array(zv), Point3.from_array(pv), 32)


def test_one_exact_evaluation_and_one_direct_call_per_stencil(monkeypatch):
    # the six kernel_grad/kernel_hess calls on one bubble evaluate the exact
    # sums once, and each stencil is one direct-sum call
    evaluations, stencils = [], []
    body = kernels._w_sums.__wrapped__
    monkeypatch.setattr(kernels, "_w_sums", lru_cache(maxsize=256)(
        lambda *key: evaluations.append(key) or body(*key)))
    direct = kernels._direct
    monkeypatch.setattr(kernels, "_direct",
                        lambda kind, Z, P, K: stencils.append(len(Z)) or direct(kind, Z, P, K))
    A = _bubble(b_abs=0.965, alpha_b=0.1 * CFG.theta0, alpha_w=0.07)
    for kind in ("gamma", "h0e"):
        for slot in ("z", "p"):
            kernel_grad(kind, slot, A, CFG)
        kernel_hess(kind, A, CFG)
    assert len(evaluations) == 1
    assert stencils == [2, 2, 8, 2, 2, 8]
