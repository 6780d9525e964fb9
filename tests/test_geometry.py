import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from necklace.errors import DomainError
from necklace.geometry import (
    CONJ_MATRIX,
    Point3,
    SectorConfig,
    conj,
    extend_odd,
    in_sector,
    kelvin,
    rotate,
    rotation_matrix,
)

finite = st.floats(-10, 10, allow_nan=False)


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
    r = rotate(p, theta)
    assert r.norm() == pytest.approx(p.norm(), abs=1e-9)
    assert r.z3 == p.z3


def test_conj_is_plane_reflection():
    p = Point3(1.0, 2.0, 3.0)
    assert conj(p) == Point3(1.0, -2.0, 3.0)
    assert np.allclose(CONJ_MATRIX @ p.as_array(), conj(p).as_array())


def test_kelvin_involution():
    p = Point3(0.3, -1.2, 0.7)
    assert kelvin(kelvin(p)).as_array() == pytest.approx(p.as_array())
    assert kelvin(p).norm() == pytest.approx(1.0 / p.norm())
    with pytest.raises(DomainError):
        kelvin(Point3(0.0, 0.0, 0.0))


def test_in_sector_half_open_boundary():
    cfg = SectorConfig(8)
    t0 = cfg.theta0
    assert in_sector(Point3(0.5, 0.0, 0.0), cfg)
    upper = Point3(0.9 * math.cos(t0), 0.9 * math.sin(t0), 0.0)
    lower = Point3(0.9 * math.cos(-t0), 0.9 * math.sin(-t0), 0.0)
    assert not in_sector(upper, cfg)
    assert not in_sector(lower, cfg)
    inside = Point3(0.9 * math.cos(t0 * 0.999), 0.9 * math.sin(t0 * 0.999), 0.0)
    assert in_sector(inside, cfg)
    # membership is restricted to the punctured unit ball
    assert not in_sector(Point3(1.5, 0.0, 0.0), cfg)
    assert not in_sector(Point3(0.0, 0.0, 0.0), cfg)


def test_rotation_matrix_matches_rotate():
    theta = 0.37
    p = Point3(0.2, -0.4, 1.1)
    assert np.allclose(rotation_matrix(theta) @ p.as_array(),
                       rotate(p, theta).as_array())


def test_extend_odd_explicit_K4():
    cfg = SectorConfig(4)
    u = lambda q: 1.0 / (1.0 + (q.z1 - 0.3) ** 2 + q.z2**2 + q.z3**2)
    z = Point3(0.4, 0.1, -0.2)
    t0 = cfg.theta0
    expected = 0.0
    for j in range(2):
        expected += u(rotate(z, 4 * j * t0))
        expected -= u(rotate(conj(z), (4 * j + 2) * t0))
    assert extend_odd(u, z, cfg) == pytest.approx(expected, rel=1e-14)


def test_extend_odd_antisymmetry():
    """The extension is odd across the sector wall z -> conj(z) e^{2 i theta0}."""
    cfg = SectorConfig(8)
    u = lambda q: math.exp(-((q.z1 - 0.5) ** 2) - q.z2**2 - q.z3**2)
    z = Point3(0.3, 0.05, 0.4)
    mirrored = rotate(conj(z), 2 * cfg.theta0)
    assert extend_odd(u, mirrored, cfg) == pytest.approx(
        -extend_odd(u, z, cfg), rel=1e-12
    )
