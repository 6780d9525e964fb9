import math

import pytest
from mpmath import mp

from necklace.errors import DomainError
from necklace.special import bessel_k0, bessel_k0_prime, elliptic_k

# the wrappers are scipy calls, so the value tests compare them with mpmath
# at 40 digits; scipy is within 3e-16 of it on every input below
_REL = 1e-14


def _mp_ellipk(sigma: float) -> float:
    with mp.workdps(40):
        return float(mp.ellipk(mp.mpf(sigma) ** 2))


def _mp_besselk(nu: int, t: float) -> float:
    with mp.workdps(40):
        return float(mp.besselk(nu, t))


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
