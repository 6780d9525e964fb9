from dataclasses import replace

import numpy as np
import pytest

from necklace.crown import (
    _BLOCK,
    ProfileHandle,
    build_crown,
    talenti_profile,
    u_star,
    u_star_corrected_profile,
    u_star_derivs,
    u_star_profile,
)
from necklace.errors import DomainError, NotFoundError, UnsupportedError
from necklace.nodal import (
    _POLISH_CANDIDATES,
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
        assert abs(star16(z)) < 1e-9

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
    ])
    def test_bbox_nonfinite_or_reversed(self, crown16, star16, bbox):
        with pytest.raises(DomainError):
            nodal_mesh(crown16, star16, bbox, 16)

    def test_scalar_bbox_normalized(self, crown16, star16):
        mesh = nodal_mesh(crown16, star16, 1.5, 16)
        assert mesh.bbox == ((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5))

    def test_empty_for_positive_profile(self, crown16):
        mesh = nodal_mesh(crown16, talenti_profile(), 2.0, 16)
        assert len(mesh) == 0
        with pytest.raises(DomainError):
            gradient_min_on_nodal(mesh, talenti_profile())

    def test_residuals_and_containment(self, crown16, star16):
        mesh = nodal_mesh(crown16, star16, 2.5, 48)
        assert len(mesh) > 0
        assert np.max(mesh.values) <= 1e-8
        lo = np.array([ax[0] for ax in mesh.bbox])
        hi = np.array([ax[1] for ax in mesh.bbox])
        assert np.all(mesh.points >= lo - 1e-12)
        assert np.all(mesh.points <= hi + 1e-12)

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
        # a sign jump at z1 = 0.1 never gets below the residual bound, so all
        # 16 x 16 crossings of it are dropped
        step = ProfileHandle(fn=lambda a: np.where(a[..., 0] < 0.1, -1.0, 1.0), tag="step")
        jump = nodal_mesh(crown16, step, 1.0, 16)
        assert (len(jump), jump.dropped) == (0, 256)

    def test_corrected_profile_mesh(self, crown16):
        prof = u_star_corrected_profile(crown16)
        mesh = nodal_mesh(crown16, prof, 2.5, 48)
        assert len(mesh) > 0
        assert np.max(mesh.values) <= 1e-8


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
            return star16.derivs(z)

        recording = replace(star16, derivs=derivs)
        order = np.argsort(mesh48.gradients)[:_POLISH_CANDIDATES]
        for idx in order:
            start = mesh48.points[idx].copy()
            val = _polish_min(recording, mesh48.points[idx])
            z = seen[-1]
            assert np.array_equal(mesh48.points[idx], start)
            assert abs(u_star(z, crown16)) <= 1e-12
            assert val == np.linalg.norm(u_star_derivs(z, crown16)[1])
            assert val == pytest.approx(gradient_norms(star16, z)[0], rel=1e-8)

    def test_failed_start_gives_inf(self, star16):
        # from a start far outside the zero set the Newton steps run off to
        # infinity, and the start does not converge within the step budget
        assert _polish_min(star16, np.array([40.0, 30.0, 20.0])) == np.inf

    def test_stalled_start_off_the_zero_set_gives_inf(self):
        # a field so steep that the Newton step to u = 0 is below the step
        # bound: the polish stops, but at |u| = 1e-3, off the zero set
        steep = ProfileHandle(
            fn=lambda a: a[..., 0], tag="steep",
            derivs=lambda z: (1e-3, np.array([1e20, 0.0, 0.0]),
                              np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3))))
        assert _polish_min(steep, np.zeros(3)) == np.inf

    def test_needs_closed_form_derivatives(self, crown16):
        prof = u_star_corrected_profile(crown16)
        mesh = nodal_mesh(crown16, prof, 2.5, 48)
        assert len(mesh) > 0
        with pytest.raises(UnsupportedError):
            gradient_min_on_nodal(mesh, prof)
