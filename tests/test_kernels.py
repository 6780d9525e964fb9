import math

import numpy as np
import pytest

from necklace import kernels
from necklace.crown import build_crown, u_star_profile
from necklace.errors import AccuracyError, DomainError
from necklace.geometry import (
    CONJ_MATRIX,
    Point3,
    SectorConfig,
    conj,
    extend_odd,
    rotate,
    rotation_matrix,
    sector_images,
)
from necklace.kernels import (
    KernelReport,
    PlacedBubble,
    _h0e_derivs,
    _newton_derivs,
    gamma_bb,
    gamma_direct,
    h0,
    h0e,
    h0e_bb,
    kernel_grad,
    kernel_hess,
    place_bubble,
    q_a,
    q_a_expansion,
    t_a,
)

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
        zv, pv = z.as_array(), p.as_array()
        rad = 1 - 2 * zv @ pv + (zv @ zv) * (pv @ pv)
        assert h0(z, p) == pytest.approx(rad**-0.5)

    def test_rejects_boundary_diagonal(self):
        q = Point3(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            h0(q, q)

    @pytest.mark.parametrize("b", [0.999999999, 0.9999999999])
    def test_radicand_lost_to_round_off(self, b):
        # (1 - b^2)^2 > 0 cancels to 0: inside the domain, a numerical failure
        q = Point3(b, 0.0, 0.0)
        with pytest.raises(AccuracyError, match="round-off"):
            h0(q, q)
        with pytest.raises(AccuracyError):
            h0e(q, q, CFG)

    def test_extension_alternates(self):
        z = Point3(0.85, 0.02, 0.0)
        p = Point3(0.8, -0.01, 0.05)
        val = h0e(z, p, CFG)
        assert np.isfinite(val)
        # the extension of a first-slot-even function picks up h0 itself
        # as the identity-image term
        assert abs(val) < 2.0 * CFG.K * h0(z, p)

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
        before = kernel_hess("gamma", A, CFG)
        real = kernels._newton_derivs
        monkeypatch.setattr(kernels, "_newton_derivs",
                            lambda *args: tuple(v + 1.0 for v in real(*args)))
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
        A = _bubble()
        with pytest.raises(DomainError):
            q_a(A.b_point, A)

    def test_expansion_matches_profile_pathway(self):
        crown = build_crown(16)
        prof = u_star_profile(crown)
        xi = Point3(0.6038943129964425, 0.0, 0.0)
        A = place_bubble(1e-6, 1e-7, 0.97, 0.01, 0.02, prof, xi)
        z = Point3(0.3, 0.25, 0.1)
        full = q_a(z, A)
        approx = q_a_expansion(z, A)
        scale = math.sqrt(A.eps) * A.eps**2
        assert abs(full - approx) < 100.0 * scale

    def test_batched_image_sum_matches_per_image_loop(self):
        # t_a makes one profile call for all its images; each image's term
        # must still be the value of a lone q_a call and of the one-image code
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
            assert direct == math.fsum(s * q_a(Point3.from_array(u), A) for u, s in images)
            assert direct == math.fsum(s * one_image(u, A) for u, s in images)

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
    "h0_z": lambda pt: h0(pt, Point3(0.3, 0.1, 0.0)),
    "h0_p": lambda pt: h0(Point3(0.3, 0.1, 0.0), pt),
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


def _ref_images(K):
    """(matrix, sign) pairs of the alternating extension, identity first,
    built one image at a time."""
    t0 = math.pi / K
    out = []
    for j in range(K // 2):
        out.append((rotation_matrix(4 * j * t0), 1.0))
        out.append((rotation_matrix((4 * j + 2) * t0) @ CONJ_MATRIX, -1.0))
    return out


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
        # the images are the rotations of z and of conj(z) by multiples of 2 theta0
        z = Point3(0.4, 0.1, -0.2)
        for j in range(K // 2):
            t = 4 * j * math.pi / K
            assert np.allclose(mats[2 * j] @ z.as_array(),
                               rotate(z, t).as_array(), rtol=0.0, atol=1e-15)
            assert np.allclose(mats[2 * j + 1] @ z.as_array(),
                               rotate(conj(z), t + 2 * math.pi / K).as_array(),
                               rtol=0.0, atol=1e-15)

    def test_kernel_sums(self, K):
        cfg = SectorConfig(K)
        z = Point3(0.7, 0.05, 0.1)
        p = Point3(0.8, -0.03, -0.2)
        assert gamma_direct(z, p, cfg) == pytest.approx(_ref_gamma(z, p, K), rel=1e-14)
        assert h0e(z, p, cfg) == pytest.approx(_ref_h0e(z, p, K), rel=1e-14)

    def test_closed_forms(self, K):
        cfg = SectorConfig(K)
        A = _bubble(b_abs=0.965, alpha_b=0.1 * cfg.theta0, alpha_w=0.07)
        bv, w = A.b_point.as_array(), A.w_vec
        for got, ref in ((_newton_derivs(bv, w, cfg), _ref_newton_derivs(A, K)),
                         (_h0e_derivs(bv, w, cfg), _ref_h0e_derivs(A, K))):
            assert got == pytest.approx(ref, rel=1e-14)

    def test_extend_odd(self, K):
        cfg = SectorConfig(K)
        z = Point3(0.4, 0.1, -0.2)
        u = lambda q: math.exp(-4.0 * ((q.z1 - 0.3) ** 2 + q.z2**2 + q.z3**2))
        ref = math.fsum(s * u(Point3.from_array(M @ z.as_array()))
                        for M, s in _ref_images(K))
        assert extend_odd(u, z, cfg) == pytest.approx(ref, rel=1e-14)
