import math

import numpy as np
import pytest
import scipy.integrate
from mpmath import mp

from necklace.errors import DomainError
from necklace.special import (
    EULER_GAMMA,
    ZETA3,
    ZETA5,
    bessel_k0,
    bessel_k0_prime,
    elliptic_k,
)

# the wrappers are scipy calls, so the value tests compare them with mpmath
# at 40 digits; scipy is within 3e-16 of it on every input below
_REL = 1e-14


def _mp_ellipk(sigma: float) -> float:
    with mp.workdps(40):
        return float(mp.ellipk(mp.mpf(sigma) ** 2))


def _mp_besselk(nu: int, t: float) -> float:
    with mp.workdps(40):
        return float(mp.besselk(nu, t))


def _zeta_series(s: float, terms: int = 200_000) -> float:
    """Independent oracle: direct series with an Euler-Maclaurin tail."""
    n = np.arange(1, terms, dtype=float)
    head = float(np.sum(n**-s))
    N = float(terms)
    return head + N ** (1 - s) / (s - 1) + N**-s / 2.0 + s * N ** (-s - 1) / 12.0


def _gamma_series(terms: int = 200_000) -> float:
    n = np.arange(1, terms + 1, dtype=float)
    harmonic = float(np.sum(1.0 / n))
    N = float(terms)
    return harmonic - math.log(N) - 1.0 / (2.0 * N) + 1.0 / (12.0 * N * N)


def test_zeta_constants_reproduced_from_series():
    assert ZETA3 == pytest.approx(_zeta_series(3.0), abs=1e-13)
    assert ZETA5 == pytest.approx(_zeta_series(5.0), abs=1e-13)


def test_euler_gamma_ten_digits():
    assert EULER_GAMMA == pytest.approx(_gamma_series(), abs=1e-10)


def test_sinh_moment_integral():
    """int_0^inf t^2/sinh t dt = (7/2) zeta(3); the tail beyond t = 100 is
    below 4 * 100^2 e^-100 < 1e-38."""
    val, _ = scipy.integrate.quad(
        lambda t: t * t / math.sinh(t) if t > 0 else 0.0, 0.0, 100.0,
        epsabs=1e-12, epsrel=1e-10, limit=200,
    )
    assert val == pytest.approx(3.5 * ZETA3, abs=1e-10)


@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.6, 0.89, 0.9])
def test_elliptic_k_quadrature_branch(sigma):
    assert elliptic_k(sigma) == pytest.approx(_mp_ellipk(sigma), rel=_REL)


@pytest.mark.parametrize("sigma", [0.901, 0.95, 0.99, 0.9999, 0.999999999])
def test_elliptic_k_series_branch(sigma):
    assert elliptic_k(sigma) == pytest.approx(_mp_ellipk(sigma), rel=_REL)


def test_elliptic_k_domain():
    for bad in (-0.1, 1.0, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            elliptic_k(bad)


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 5.0, 29.9, 30.1, 50.0, 200.0])
def test_bessel_k0_both_branches(t):
    assert bessel_k0(t) == pytest.approx(_mp_besselk(0, t), rel=_REL)


@pytest.mark.parametrize("t", [0.05, 0.5, 2.0, 20.0, 40.0, 100.0])
def test_bessel_k0_prime(t):
    assert bessel_k0_prime(t) == pytest.approx(-_mp_besselk(1, t), rel=_REL)
    assert bessel_k0_prime(t) < 0.0


def test_bessel_domain():
    for fn in (bessel_k0, bessel_k0_prime):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                fn(bad)
