"""Closed-form sum assemblies shared by the interaction kernels and the
reduced-energy model: the ring-interaction coefficients C0(K, d), C2(K, d)
and the 2x2 angular quadratic form built from pure cosecant sums.  The sums
are cached, as the minimization revisits the same (K, d): s_hat per (k, K),
and the S_1, S_3 and S_5 that C0, C2 and the h0e derivatives' asymptotics
read as one trigsums.alt_sums entry per (K, d); a_gamma caches its form.
C0 and C2 are a few float operations on the cached sums and are not cached
themselves.  K and d are checked before any cache, which would raise
TypeError for an unhashable value.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

from .trigsums import SumSpec, alt_sums, sum_direct


def _checked(K, d: float = 0.0) -> Tuple[int, float]:
    """K and d as the int n and float x that SumSpec stores, or SumSpec's
    DomainError for a value of another kind."""
    spec = SumSpec("odd", 1, K, d)
    return spec.n, spec.x


@lru_cache(maxsize=64)
def s_hat(k: int, n: int) -> float:
    """Shat_k(n) = sum_{j=1}^{n-1} (-1)^{j+1} csc^k(j pi/n)."""
    return sum_direct(SumSpec("alt_hat", k, n, 0.0))


def c0(K: int, d: float) -> float:
    """Shat_1(K) + S_1(K, d): the coefficient of the first-order ring term."""
    if not (type(K) is int and type(d) is float):
        K, d = _checked(K, d)
    return s_hat(1, K) + alt_sums(K, d)[0]


def c2(K: int, d: float) -> float:
    """Shat_1 + Shat_3 + S_1 - (d + sqrt(1+d^2))^2 S_3 + 3(d^2 + d^4) S_5,
    the coefficient of the third-order ring term."""
    if not (type(K) is int and type(d) is float):
        K, d = _checked(K, d)
    s1, s3, s5 = alt_sums(K, d)
    root = d + math.sqrt(1.0 + d * d)
    return (
        s_hat(1, K)
        + s_hat(3, K)
        + s1
        - root * root * s3
        + 3.0 * (d * d + d**4) * s5
    )


def a_gamma(K: int) -> np.ndarray:
    """The symmetric 2x2 quadratic form in (alpha_w, alpha_b) governing the
    angular dependence of the third-order ring term, assembled exactly from
    the pure cosecant sums S^o_1, S^o_3, S^o_5 and Shat^e_3 (read-only)."""
    return _a_gamma(K if type(K) is int else _checked(K)[0])


@lru_cache(maxsize=64)
def _a_gamma(K: int) -> np.ndarray:
    """a_gamma's form for an int K."""
    s1o = sum_direct(SumSpec("odd", 1, K, 0.0))
    s3o = sum_direct(SumSpec("odd", 3, K, 0.0))
    s5o = sum_direct(SumSpec("odd", 5, K, 0.0))
    s3e_hat = sum_direct(SumSpec("even_hat", 3, K, 0.0))
    s3_hat = s3o - s3e_hat
    a11 = s3o - 2.0 * s1o + 3.0 * s3e_hat
    a12 = -3.0 * s3_hat + 3.0 * s1o
    a22 = 1.5 * (4.0 * s5o + s3o - 3.0 * s1o) + 3.0 * s3e_hat
    form = np.array([[a11, a12], [a12, a22]])
    form.flags.writeable = False
    return form


def a_gamma_quad(K: int, alpha_w: float, alpha_b: float) -> float:
    """(alpha_w, alpha_b) A_gamma(K) (alpha_w, alpha_b)^T."""
    alpha = np.array([alpha_w, alpha_b])
    return float(alpha @ a_gamma(K) @ alpha)
