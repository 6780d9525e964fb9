"""Points of R^3, planar rotations as matrices, and the images of the
alternating odd extension over an even-order angular sector.

The first two coordinates are viewed as a complex number z1 + i z2 when a
rotation or conjugation is applied; points themselves are stored as three
reals so there is a single representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import DomainError, counted, real
from .trigsums import N_MAX

#: the largest K SectorConfig accepts: the sums over a sector have n = K terms
K_MAX = N_MAX


@dataclass(frozen=True)
class Point3:
    """A point of R^3 (dimensionless; the domain of interest is the unit
    ball) with finite coordinates: real numbers but bools, each stored as a
    float by errors.real; anything else is a DomainError."""

    z1: float
    z2: float
    z3: float

    def __post_init__(self):
        for f in ("z1", "z2", "z3"):
            real(f, getattr(self, f), owner=self)

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2, self.z3], dtype=float)

    @staticmethod
    def from_array(arr) -> "Point3":
        """The point of the three finite coordinates ``arr``; anything else
        is a DomainError (its repr cut at 80 characters)."""
        try:
            a = np.asarray(arr, dtype=float).reshape(3)
        except (TypeError, ValueError):
            raise DomainError(f"a point needs three finite coordinates, got {arr!r:.80}") from None
        return Point3(float(a[0]), float(a[1]), float(a[2]))

    def norm(self) -> float:
        return math.sqrt(self.z1 * self.z1 + self.z2 * self.z2 + self.z3 * self.z3)


@dataclass(frozen=True)
class SectorConfig:
    """An angular sector of opening 2*pi/K, K even, 4 <= K <= K_MAX, an int."""

    K: int

    def __post_init__(self):
        counted("K", self.K, 4, K_MAX, parity=0, owner=self)

    @property
    def theta0(self) -> float:
        """The sector's half-opening pi/K."""
        return math.pi / self.K


def rotation_matrix(theta: float) -> np.ndarray:
    """The in-plane rotation matrix acting on (z1, z2, z3) column vectors."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@lru_cache(maxsize=64)
def sector_images(K: int) -> Tuple[np.ndarray, np.ndarray]:
    """The images of the alternating extension over the sector of opening
    2 pi/K, as read-only ``(K, 3, 3)`` matrices and ``(K,)`` signs: + for the
    rotations by 4j theta0, - for conjugation followed by the rotations by
    (4j+2) theta0, j < K/2.  Row 0 is the identity.

    Row i rotates by the angle 2i theta0, with c and s its math.cos and
    math.sin: [[c, -s, 0], [s, c, 0], [0, 0, 1]] for a rotation and
    [[c, s, 0], [s, -c, 0], [0, 0, 1]] for a conjugation followed by one,
    the bits of rotation_matrix and of its product with diag(1, -1, 1),
    down to the -0.0 at row 0."""
    t0 = SectorConfig(K).theta0
    angles = (np.arange(0.0, 2.0 * K, 2.0) * t0).tolist()
    c = np.fromiter(map(math.cos, angles), float, K)
    s = np.fromiter(map(math.sin, angles), float, K)
    signs = np.tile([1.0, -1.0], K // 2)
    mats = np.zeros((K, 3, 3))
    mats[:, 0, 0] = c
    mats[:, 0, 1] = -signs * s
    mats[:, 1, 0] = s
    mats[:, 1, 1] = signs * c
    mats[:, 2, 2] = 1.0
    mats.flags.writeable = signs.flags.writeable = False
    return mats, signs
