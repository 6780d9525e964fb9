"""Domain-checked scipy wrappers for the complete elliptic integral of the
first kind and the modified Bessel function K0 and its derivative.
"""
from __future__ import annotations

import math

import scipy.special

from .errors import DomainError


def elliptic_k(sigma: float) -> float:
    """Complete elliptic integral int_0^1 dt / sqrt((1-t^2)(1-sigma^2 t^2)),
    for sigma in [0, 1)."""
    if not 0.0 <= sigma < 1.0:
        raise DomainError(f"sigma must lie in [0, 1), got {sigma}")
    # K in terms of the complementary parameter 1 - sigma^2, which keeps full
    # relative accuracy as sigma -> 1
    return float(scipy.special.ellipkm1((1.0 - sigma) * (1.0 + sigma)))


def _check_positive(name: str, t: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"{name} requires finite t > 0, got {t}")


def bessel_k0(t: float) -> float:
    """K0(t) = int_0^inf e^{-t cosh u} du for finite t > 0."""
    _check_positive("bessel_k0", t)
    return float(scipy.special.k0(t))


def bessel_k0_prime(t: float) -> float:
    """d/dt K0(t) = -K1(t) for finite t > 0; always negative."""
    _check_positive("bessel_k0_prime", t)
    return -float(scipy.special.k1(t))
