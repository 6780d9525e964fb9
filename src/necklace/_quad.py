"""Gauss-Legendre rules shared by the quadratures in trigsums and energy."""
from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np
# NumPy 2 loads numpy.polynomial on first attribute access; importing it here
# moves that cost to package import instead of the first quadrature
from numpy.polynomial import legendre


@lru_cache(maxsize=128)
def leggauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of the given order on [-1, 1], read-only."""
    x, w = legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_panels(edges: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule with one Gauss-Legendre panel
    of the given order between each pair of consecutive edges."""
    x, w = leggauss(order)
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    nodes = (a + half)[:, None] + half[:, None] * x
    weights = half[:, None] * w
    return nodes.ravel(), weights.ravel()
