"""Finite cosecant-power sums: direct evaluation, the contour-integral
representation of the alternating k=1 sum, exponential asymptotics, and the
leading cosecant-sum constants.

Variants, each over offsets x >= 0 with n even:

    odd       S^o_k(n,x)    = sum_{j=0}^{n/2-1} (x^2 + sin^2((2j+1) pi/n))^{-k/2}
    even      S^e_k(n,x)    = sum_{j=0}^{n/2-1} (x^2 + sin^2(2j pi/n))^{-k/2}
    even_hat  Shat^e_k(n,x) = sum_{j=1}^{n/2-1} (x^2 + sin^2(2j pi/n))^{-k/2}
    alt       S_k(n,x)      = S^e_k - S^o_k
    alt_hat   Shat_k(n,x)   = S^o_k - Shat^e_k

``even`` and ``alt`` contain the singular j=0 term and reject x = 0.
"""
from __future__ import annotations

import functools
import logging
import math
import threading
import warnings
from dataclasses import dataclass
from itertools import repeat
from operator import neg
from typing import Tuple

import numpy as np
from mpmath.ctx_mp import MPContext
from mpmath.libmp import fzero, mpf_add, mpf_neg, mpf_pow

from ._quad import gl_panels
from .errors import AccuracyError, DomainError, RegimeWarning, UnsupportedError

# Alternating sums are exponentially small in n*x while their terms are O(1);
# below this cancellation level the float pathway is recomputed in escalating
# multiprecision (see sum_direct).
_CANCEL_THRESHOLD = 1e-8

#: the largest n SumSpec accepts: sum_direct holds n float terms and a
#: multiprecision sin^2 table of n entries (11-15 MB at 40-160 digits)
N_MAX = 2**16

_log = logging.getLogger(__name__)

# each variant's + and - terms (x^2 + sin^2(j pi/n))^{-k/2} as slices of
# j = 0..n-1 (slice(0) is empty)
_FLOAT_SLICES = {
    "odd": (slice(1, None, 2), slice(0)),
    "even": (slice(0, None, 2), slice(0)),
    "even_hat": (slice(2, None, 2), slice(0)),
    "alt": (slice(0, None, 2), slice(1, None, 2)),
    "alt_hat": (slice(1, None, 2), slice(2, None, 2)),
}
VARIANTS = tuple(_FLOAT_SLICES)


@dataclass(frozen=True)
class SumSpec:
    variant: str
    k: int
    n: int
    x: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.k not in (1, 3, 5):
            raise DomainError(f"k must be one of 1, 3, 5, got {self.k}")
        if self.n < 4 or self.n % 2 != 0:
            raise DomainError(f"n must be an even integer >= 4, got {self.n}")
        if self.n > N_MAX:
            raise DomainError(f"n must be at most {N_MAX}, got {self.n}")
        if not (math.isfinite(self.x) and self.x >= 0):
            raise DomainError("x must be finite and >= 0")
        if self.variant in ("even", "alt"):
            # sum_direct's j = 0 term; x = 0, or an x whose square
            # underflows, divides by zero
            try:
                finite = math.isfinite((self.x * self.x) ** (-self.k / 2.0))
            except (ZeroDivisionError, OverflowError):
                finite = False
            if not finite:
                raise DomainError(
                    f"variant {self.variant!r}: the j=0 term (x^2)^(-k/2) is not "
                    f"a finite double at x={self.x!r}, k={self.k}"
                )


# one private mpmath context per thread: mpmath's global context keeps one
# working precision for the whole process, which concurrent callers would race on
_MP = threading.local()


def _mp_context() -> MPContext:
    ctx = getattr(_MP, "ctx", None)
    if ctx is None:
        ctx = _MP.ctx = MPContext()
    return ctx


@functools.lru_cache(maxsize=4)
def _sin2_table(n: int, prec: int) -> Tuple[tuple, ...]:
    """sin^2(j pi/n) for j = 0..n-1, as libmp tuples rounded to prec bits.

    An entry takes about 170 B at 40 digits, 225 B at 160 and 440 B at 640
    (measured with tracemalloc), so a table of n = N_MAX entries takes
    11-15 MB at 40-160 digits and 29 MB at 640, and the four cached tables
    at most 115 MB.  The calling thread's context computes the table at prec
    bits and then gets its own precision back.
    """
    ctx = _mp_context()
    with ctx.workprec(prec):
        step = ctx.pi / n
        return tuple((ctx.sin(j * step) ** 2)._mpf_ for j in range(n))


def _sum_mp(ctx: MPContext, spec: SumSpec):
    """The sum and the sum of the term magnitudes at ctx's precision.

    The terms run on raw libmp tuples, making the same mpf_add/mpf_pow calls
    as mpmath's mpf operators without their per-operation wrappers, so the
    result has the bits of the operator-level loop.
    """
    x2 = (ctx.mpf(spec.x) ** 2)._mpf_
    nkhalf = (-(ctx.mpf(spec.k) / 2))._mpf_
    prec, rnd = ctx._prec_rounding
    s2 = _sin2_table(spec.n, prec)
    js = range(spec.n)
    plus, minus = (js[sl] for sl in _FLOAT_SLICES[spec.variant])
    total = abssum = fzero
    # in increasing j: the rounded sums depend on the order of their terms
    for j in sorted([*plus, *minus]):
        t = mpf_pow(mpf_add(x2, s2[j], prec, rnd), nkhalf, prec, rnd)
        total = mpf_add(total, mpf_neg(t) if j in minus else t, prec, rnd)
        abssum = mpf_add(abssum, t, prec, rnd)
    return ctx.make_mpf(total), ctx.make_mpf(abssum)


@functools.lru_cache(maxsize=64)
def _sin2_float(n: int) -> np.ndarray:
    """sin^2(j pi/n) for j = 0..n-1 as a read-only float array, each entry
    s * s from s = math.sin(j * step), step = pi/n.  A table takes 8n bytes:
    at most 512 KB at n = N_MAX, and the 64 cached tables at most 32 MB."""
    step = math.pi / n
    sines = np.array([math.sin(j * step) for j in range(n)])
    table = sines * sines
    table.flags.writeable = False
    return table


#: the plain sum of at most N_MAX positive doubles lies within N_MAX 2^-53
#: (< 1e-11) of their exact sum, relative, so math.fsum's correctly rounded
#: value lies within these factors of it (for a normal, finite plain sum)
_LOW, _HIGH = 1.0 - 1e-9, 1.0 + 1e-9


def _resolved(total: float, plus: list, minus: list) -> bool:
    """|total| >= _CANCEL_THRESHOLD * math.fsum(plus + minus), for terms
    ``plus`` and ``minus`` >= 0: decided from the plain sum and its error
    bound, with the fsum run only when the bound straddles the threshold."""
    approx = sum(plus) + sum(minus)
    if 1e-290 < approx < math.inf:
        if abs(total) >= _CANCEL_THRESHOLD * (approx * _HIGH):
            return True
        if abs(total) < _CANCEL_THRESHOLD * (approx * _LOW):
            return False
    return abs(total) >= _CANCEL_THRESHOLD * math.fsum(plus + minus)


def _sum_float(spec: SumSpec, bases: list) -> float:
    """sum_direct of ``spec`` from the list x^2 + sin^2(j pi/n), j < n."""
    nkhalf = -(spec.k / 2.0)
    plus_slice, minus_slice = _FLOAT_SLICES[spec.variant]
    plus = list(map(math.pow, bases[plus_slice], repeat(nkhalf)))
    minus = list(map(math.pow, bases[minus_slice], repeat(nkhalf)))
    total = math.fsum(plus + list(map(neg, minus)))
    if _resolved(total, plus, minus):
        return total
    return _sum_escalated(spec)


def _bases(n: int, x: float) -> list:
    """x^2 + sin^2(j pi/n) for j = 0..n-1: the bases of every variant's terms."""
    return (x * x + _sin2_float(n)).tolist()


def sum_direct(spec: SumSpec) -> float:
    """The finite sum, by compensated summation.

    In double precision the terms come from a cached table of sin^2(j pi/n)
    per n (_sin2_float): each variant's positive and negative terms are fixed
    slices of it, raised to -k/2 by math.pow (C's pow, as Python's float
    power for these finite positive bases), and summed by math.fsum, whose
    correct rounding makes the result independent of the order of the terms.
    When the alternating cancellation exceeds what double precision can
    resolve (|sum| below 1e-8 of the term magnitude), the sum is recomputed
    in multiprecision with doubling working precision until the result is
    resolved, then rounded back to float, or until the sum and its error
    bound lie below 2^-1075, where any value it may have rounds to 0.0.
    The multiprecision pathway uses a private context per thread, so
    concurrent calls do not interfere; each precision tried is logged at
    DEBUG on this module's logger.
    """
    return _sum_float(spec, _bases(spec.n, spec.x))


def alt_sums(n: int, x: float) -> Tuple[float, float, float]:
    """The alternating sums S_1, S_3 and S_5 (n, x), each equal to
    sum_direct(SumSpec("alt", k, n, x)), from one list of x^2 + sin^2."""
    specs = [SumSpec("alt", k, n, x) for k in (1, 3, 5)]
    bases = _bases(n, x)
    return tuple(_sum_float(spec, bases) for spec in specs)


def _sum_escalated(spec: SumSpec) -> float:
    """The sum in multiprecision at 40, 80, ... 640 digits (see sum_direct)."""
    ctx = _mp_context()
    dps = 40
    while dps <= 640:
        ctx.dps = dps
        total_mp, abs_mp = _sum_mp(ctx, spec)
        # the resolution test runs in double precision
        ctx.prec = 53
        err = abs_mp * ctx.mpf(10) ** (-(dps - 15))
        resolved = abs(total_mp) > err
        underflows = abs(total_mp) + err < ctx.ldexp(1, -1075)
        _log.debug("sum_direct %s: %s at %d dps", spec,
                   "resolved" if resolved or underflows else "unresolved", dps)
        if resolved or underflows:
            return float(total_mp) if resolved else 0.0
        dps *= 2
    raise AccuracyError(
        "alternating sum unresolved at 640 digits", best=float(total_mp)
    )


# s1_contour's two composite Gauss-Legendre rules on [0, 1], order 24 on 4
# and on 8 equal panels: all their nodes in one array, and one row of weights
# per rule (zero on the other rule's nodes).  They are built at import: a
# Gauss-Legendre rule costs about as much as twenty s1_contour calls.
def _contour_rule() -> Tuple[np.ndarray, np.ndarray]:
    (t4, w4), (t8, w8) = (
        gl_panels(np.linspace(0.0, 1.0, p + 1), 24) for p in (4, 8)
    )
    weights = np.zeros((2, t4.size + t8.size))
    weights[0, : t4.size] = w4
    weights[1, t4.size :] = w8
    nodes = np.concatenate([t4, t8])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


_CONTOUR_NODES, _CONTOUR_WEIGHTS = _contour_rule()


def s1_contour(n: int, x: float) -> float:
    """The alternating k=1 sum S_1(n, x) via its contour-integral form
    (2n/pi) int_{asinh x}^inf csch(n t) / sqrt(sinh^2 t - x^2) dt.

    The endpoint inverse-square-root singularity is removed by the
    substitution sinh t = x cosh u, the dominant factor e^{-n asinh x} is
    pulled out of csch, and the integral is truncated at the ucut where the
    integrand has decayed by e^{-45}.  The rule is composite Gauss-Legendre
    of order 24 on 8 equal panels of [0, ucut]; the same rule on 4 panels
    gives the error estimate |I_8 - I_4|, and an estimate above 1e-9 of the
    value raises AccuracyError.
    """
    if n < 4 or n % 2 != 0:
        raise DomainError(f"n must be an even integer >= 4, got {n}")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError("s1_contour requires finite x > 0")
    y0 = n * math.asinh(x)
    if y0 > 700.0:
        # below double-precision underflow; the value is indistinguishable from 0
        return 0.0
    arg = math.sinh(math.asinh(x) + 45.0 / n) / x
    ucut = math.acosh(max(arg, 1.0 + 1e-15))
    if not math.isfinite(ucut):
        raise AccuracyError(f"contour cutoff overflows at x={x!r}")

    xc = x * np.cosh(ucut * _CONTOUR_NODES)
    y = n * np.arcsinh(xc)
    g = 2.0 * np.exp(y0 - y) / (-np.expm1(-2.0 * y) * np.sqrt(1.0 + xc * xc))
    coarse, val = (float(v) for v in ucut * (_CONTOUR_WEIGHTS @ g))
    if not abs(val - coarse) <= 1e-9 * abs(val):
        raise AccuracyError("contour quadrature did not converge", best=val)
    return (2.0 * n / math.pi) * math.exp(-y0) * val


def s_asym(k: int, n: int, x: float) -> float:
    """Exponential asymptotics of the alternating sums S_k(n, x) for n*x large:

    S_1 ~ sqrt(8/pi) n (nx)^{-1/2} e^{-nx}
    S_3 ~ sqrt(8/pi) n^3 (nx)^{-3/2} e^{-nx}
    S_5 ~ (1/3) sqrt(8/pi) n^5 (nx)^{-5/2} e^{-nx}
    """
    if k not in (1, 3, 5):
        raise DomainError(f"k must be one of 1, 3, 5, got {k}")
    if n < 4 or n % 2 != 0:
        raise DomainError(f"n must be an even integer >= 4, got {n}")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError("s_asym requires finite x > 0")
    nx = n * x
    if nx < 5.0:
        warnings.warn(
            f"n*x = {nx:.3g} < 5: outside the asymptotic regime", RegimeWarning
        )
    pref = math.sqrt(8.0 / math.pi)
    if k == 1:
        return pref * n * nx ** -0.5 * math.exp(-nx)
    if k == 3:
        return pref * n**3 * nx ** -1.5 * math.exp(-nx)
    return pref / 3.0 * n**5 * nx ** -2.5 * math.exp(-nx)


# zeta(3) and zeta(5); the test suite reproduces each one from its defining
# series, so a wrong digit here fails loudly
ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263

_CSC_LEADING = {
    ("odd", 3): lambda n: 7.0 * ZETA3 * n**3 / (4.0 * math.pi**3),
    ("odd", 5): lambda n: 93.0 * ZETA5 * n**5 / (48.0 * math.pi**5),
    ("even_hat", 3): lambda n: ZETA3 * n**3 / (4.0 * math.pi**3),
    ("alt_hat", 1): lambda n: n / math.pi * math.log(4.0),
}


def csc_asym(variant: str, k: int, n: int) -> float:
    """Leading term of the pure cosecant sums (x = 0) for the four supported
    (variant, k) pairs."""
    try:
        fn = _CSC_LEADING[(variant, k)]
    except KeyError:
        raise UnsupportedError(
            f"no leading constant provided for ({variant!r}, k={k})"
        ) from None
    if n < 4 or n % 2 != 0:
        raise DomainError(f"n must be an even integer >= 4, got {n}")
    return fn(n)


def csc_full_sum(m: int) -> float:
    """sum_{j=1}^{m-1} csc(j pi / m); approaches (2m/pi)(log(2m/pi) + gamma0)."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    return math.fsum(1.0 / math.sin(j * math.pi / m) for j in range(1, m))
