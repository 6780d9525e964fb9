import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from necklace.errors import DomainError
from necklace.geometry import (
    Point3,
    SectorConfig,
    rotation_matrix,
    sector_images,
)

finite = st.floats(-10, 10, allow_nan=False)


def _rotate(z: Point3, theta: float) -> Point3:
    """Rotate (z1, z2) by ``theta`` radians; z3 is unchanged: the scalar
    reference for rotation_matrix and sector_images."""
    c, s = math.cos(theta), math.sin(theta)
    return Point3(c * z.z1 - s * z.z2, s * z.z1 + c * z.z2, z.z3)


def _conj(z: Point3) -> Point3:
    """Complex conjugation of the in-plane part: (z1, -z2, z3)."""
    return Point3(z.z1, -z.z2, z.z3)


def test_point3_arithmetic():
    p = Point3(1.0, 2.0, 3.0)
    assert p.norm() == pytest.approx(math.sqrt(14.0))
    assert Point3.from_array(p.as_array()) == p


@pytest.mark.parametrize("K", [3, 5, 2, 0, -4])
def test_sector_config_rejects_bad_K(K):
    with pytest.raises(DomainError):
        SectorConfig(K)


def test_sector_config_theta0():
    cfg = SectorConfig(8)
    assert cfg.theta0 == pytest.approx(math.pi / 8)


@given(finite, finite, finite, st.floats(-math.pi, math.pi))
def test_rotate_preserves_norm_and_z3(z1, z2, z3, theta):
    p = Point3(z1, z2, z3)
    r = _rotate(p, theta)
    assert r.norm() == pytest.approx(p.norm(), abs=1e-9)
    assert r.z3 == p.z3


def test_conj_is_plane_reflection():
    p = Point3(1.0, 2.0, 3.0)
    assert _conj(p) == Point3(1.0, -2.0, 3.0)
    # the first conjugating image reflects in the line at angle theta0
    K = 8
    M = sector_images(K)[0][1]
    t0 = math.pi / K
    on_axis = np.array([math.cos(t0), math.sin(t0), 3.0])
    assert np.allclose(M @ on_axis, on_axis, rtol=0.0, atol=1e-15)
    assert np.allclose(M @ p.as_array(), _rotate(_conj(p), 2 * t0).as_array(),
                       rtol=0.0, atol=1e-15)


def test_rotation_matrix_matches_rotate():
    theta = 0.37
    p = Point3(0.2, -0.4, 1.1)
    assert np.allclose(rotation_matrix(theta) @ p.as_array(),
                       _rotate(p, theta).as_array())


@pytest.mark.parametrize("K", [4, 32, 256])
def test_sector_images_are_rotations(K):
    # the images are the rotations of z and of conj(z) by multiples of 2 theta0
    mats, _signs = sector_images(K)
    z = Point3(0.4, 0.1, -0.2)
    for j in range(K // 2):
        t = 4 * j * math.pi / K
        assert np.allclose(mats[2 * j] @ z.as_array(),
                           _rotate(z, t).as_array(), rtol=0.0, atol=1e-15)
        assert np.allclose(mats[2 * j + 1] @ z.as_array(),
                           _rotate(_conj(z), t + 2 * math.pi / K).as_array(),
                           rtol=0.0, atol=1e-15)
