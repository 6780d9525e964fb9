"""Finite cosecant-power sums: direct evaluation, the contour-integral
representation of the alternating k=1 sum, exponential asymptotics, the
leading cosecant-sum constants, and the Gauss-Legendre rules that
s1_contour and the reduced energy's quadratures share.

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
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
# NumPy 2 loads numpy.polynomial on first attribute access; importing it here
# moves that cost to package import instead of the first quadrature
from numpy.polynomial import legendre

from .errors import (AccuracyError, DomainError, RegimeWarning, UnsupportedError,
                     counted, real, typed)

# Alternating sums are exponentially small in n*x while their terms are O(1);
# below this cancellation level the float pathway is recomputed in exact
# integers at escalating scales (see sum_direct).
_CANCEL_THRESHOLD = 1e-8

#: the largest n SumSpec accepts: sum_direct holds n float terms and, when
#: it escalates, an integer sin^2 table of n/2 + 1 entries per scale 2^q
#: (1.7 MB at n = N_MAX and q = 136 bits, 10.6 MB at the largest q, 2 176)
N_MAX = 2**16

_log = logging.getLogger(__name__)

# each variant's terms (x^2 + sin^2(j pi/n))^{-k/2} as (first j, step) over
# j = 0..n-1: step 2 sums same-sign terms, and step 1 alternates the signs,
# starting with +
_TERMS = {"odd": (1, 2), "even": (0, 2), "even_hat": (2, 2), "alt": (0, 1), "alt_hat": (1, 1)}
VARIANTS = tuple(_TERMS)


@dataclass(frozen=True)
class SumSpec:
    variant: str
    k: int
    n: int
    x: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        # parity and owner positional: CPython leaves keyword calls unspecialized
        counted("k", self.k, 1, 5, 1, self)
        counted("n", self.n, 4, N_MAX, 0, self)
        real("x", self.x, False, self)
        if not self.x >= 0:
            raise DomainError(f"x must be >= 0, got {self.x!r}")
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


@functools.lru_cache(maxsize=64)
def _sin2_float(n: int) -> np.ndarray:
    """sin^2(j pi/n) for j = 0..n-1 as a read-only float array, each entry
    s * s from s = math.sin(j * step), step = pi/n: the products j * step
    are one NumPy multiply (each j is exact in a double), mapped through
    math.sin.  A table takes 8n bytes: at most 512 KB at n = N_MAX, and the
    64 cached tables at most 32 MB."""
    angles = (np.arange(n) * (math.pi / n)).tolist()
    sines = np.fromiter(map(math.sin, angles), float, n)
    table = sines * sines
    table.flags.writeable = False
    return table


#: a plain sum of at most N_MAX positive doubles, in any order, lies within
#: N_MAX 2^-53 (< 1e-11) of their exact sum, relative, so math.fsum's
#: correctly rounded value lies within these factors of it (for a normal,
#: finite plain sum)
_LOW, _HIGH = 1.0 - 1e-9, 1.0 + 1e-9


def _resolved(total: float, plain: float, terms: list) -> bool:
    """|total| >= _CANCEL_THRESHOLD * math.fsum(map(abs, terms)), for
    ``plain`` the sum of |terms| in any order: decided from the plain sum and
    its error bound, with the fsum run only when the bound straddles the
    threshold."""
    if 1e-290 < plain < math.inf:
        if abs(total) >= _CANCEL_THRESHOLD * (plain * _HIGH):
            return True
        if abs(total) < _CANCEL_THRESHOLD * (plain * _LOW):
            return False
    return abs(total) >= _CANCEL_THRESHOLD * math.fsum(map(abs, terms))


def _sums(variant: str, ks: Tuple[int, ...], n: int, x: float) -> list:
    """sum_direct of each valid SumSpec(variant, k, n, x), k in ks: the
    terms to every -k/2 in one np.float_power call, their plain sums in one
    NumPy sum, then every other term negated when the signs alternate.  No
    term has a base 0 or overflows: a j = 0 term is SumSpec's checked
    (x^2)^(-k/2), and every other base is at least sin^2(pi/N_MAX) > 2e-9."""
    first, step = _TERMS[variant]
    terms = np.float_power(x * x + _sin2_float(n)[first::step], [[-k / 2.0] for k in ks])
    plain = terms.sum(axis=1).tolist()
    if step == 1:
        terms[:, 1::2] *= -1.0
    sums = []
    for k, p, row in zip(ks, plain, terms.tolist()):
        total = math.fsum(row)
        sums.append(total if _resolved(total, p, row)
                    else _sum_exact(SumSpec(variant, k, n, x)))
    return sums


def sum_direct(spec: SumSpec) -> float:
    """The finite sum, by compensated summation.

    In double precision the terms come from a cached table of sin^2(j pi/n)
    per n (_sin2_float): each variant's terms are every first or second
    entry of it from a fixed j, raised to -k/2 by np.float_power, and summed
    by math.fsum, whose correct rounding makes the result independent of the
    order of the terms.  On float64, np.float_power is NumPy's generic loop
    that calls C's pow per element (math.pow and Python's float power give
    the same bits); np.power is not, as it runs SVML on AVX-512 CPUs (see
    the kernels module's docstring).
    When the alternating cancellation exceeds what double precision can
    resolve (|sum| below 1e-8 of the term magnitude), the sum is recomputed
    in exact integers at the scale 2^q with a proven error bound, q doubling
    from 136 bits until the bound fixes the rounding (_sum_exact).  The
    result is then the correctly rounded double of the exact sum, +0.0 when
    that underflows; past q = 2 176 bits the call raises AccuracyError.  The
    exact pathway keeps no process-wide precision, so concurrent calls do
    not interfere.  Each q tried is logged at DEBUG on this module's logger,
    with the number of terms computed, the error bound in ulps of the result
    and whether it resolved, underflowed or stayed unresolved.  A spec that
    is no SumSpec is a DomainError.
    """
    typed("spec", spec, SumSpec)
    return _sums(spec.variant, (spec.k,), spec.n, spec.x)[0]


@functools.lru_cache(maxsize=1024)
def alt_sums(n: int, x: float) -> Tuple[float, float, float]:
    """The alternating sums S_1, S_3 and S_5 (n, x), each equal to
    sum_direct(SumSpec("alt", k, n, x)), from one array of x^2 + sin^2
    raised to the three powers in one np.float_power call; cached, as the
    reduced energy revisits the same (n, x)."""
    try:
        spec = SumSpec("alt", 5, n, x)  # a finite j = 0 term implies k = 1's and 3's
    except DomainError:
        SumSpec("alt", 1, n, x), SumSpec("alt", 3, n, x)  # the first k to reject x raises
        raise
    # the checked int and float, so that a NumPy integer x does not overflow
    return tuple(_sums("alt", (1, 3, 5), spec.n, spec.x))


#: the exact pathway's scales 2^q: q doubles from _Q_FIRST up to _Q_CEILING
#: bits, past the 2 126 bits of 640 decimal digits
_Q_FIRST = 136
_Q_CEILING = 2176

#: guard bits of the rotation that builds _sin2_fixed's tables
_GUARD = 24


def _atan_inv(m: int, w: int) -> int:
    """2^w atan(1/m) for an integer m >= 5, within 2.1 I + 1.1 of it, where
    I < w / (2 log2 m) + 1 is the number of terms: the series
    sum_i (-1)^i m^-(2i+1) / (2i+1) with each power 2^w m^-(2i+1) floored from
    the last (so at most 1 + 1.1/m^2 < 1.1 below its value) and each term
    floored from its power (within 2.1); the series stops at the first power
    that floors to 0, whose value, below 1.1, bounds the alternating tail."""
    power, total, i, m2 = (1 << w) // m, 0, 0, m * m
    while power:
        term = power // (2 * i + 1)
        total += -term if i % 2 else term
        power //= m2
        i += 1
    return total


def _cos_sin_pi_over(n: int, p: int) -> Tuple[int, int]:
    """2^p cos(pi/n) and 2^p sin(pi/n) for n >= 4 and 128 <= p <= 3 200,
    each rounded to an integer within 1/2 + 2^-17 of it.

    At w = p + 32 bits, pi is 16 atan(1/5) - 4 atan(1/239) (Machin), within
    16 (2.1 (w/4.64 + 1) + 1.1) + 4 (2.1 (w/15.8 + 1) + 1.1) < 8w + 64 of
    2^w pi (_atan_inv), so t = floor(pi_w / n) is within a = 2w + 17 of
    2^w theta, theta = pi/n <= pi/4.  The Taylor terms of e^{i theta},
    u_0 = 2^w and u_j = floor(u_{j-1} t / (j 2^w)), are within
    a theta^(j-1)/(j-1)! + 2 of 2^w theta^j / j! for j >= 1 (by induction,
    as theta < 1), and they reach 0 within J < w/4 + 2 steps, leaving an
    exact tail below 2 (a + 2).  So the alternating sums of the even and of
    the odd terms are within e^theta a + 2J + 2 (a + 2) < 10w < 2^15 of
    2^w (cos, sin)(theta), and rounding off the 32 extra bits leaves each
    within 1/2 + 2^-17 of 2^p (cos, sin)(theta)."""
    w = p + 32
    t = (16 * _atan_inv(5, w) - 4 * _atan_inv(239, w)) // n
    parts, term, j = [0, 0], 1 << w, 0
    while term:
        parts[j % 2] += -term if j % 4 >= 2 else term
        j += 1
        term = term * t // (j << w)
    return tuple((v + (1 << 31)) >> 32 for v in parts)


@functools.lru_cache(maxsize=4)
def _sin2_fixed(n: int, q: int) -> Tuple[int, ...]:
    """2^q sin^2(j pi/n) for j = 0..n/2 as integers, each within 0.51 of it
    (for n <= N_MAX).

    The table rotates z_j ~ 2^p e^{ij pi/n} in integers at the scale 2^p,
    p = q + _GUARD: z_{j+1} = floor(z_j (C + iS) / 2^p) per component, from
    z_0 = 2^p.  C and S (_cos_sin_pi_over) are each within 1/2 + 2^-17 of
    2^p (cos, sin)(pi/n), so C + iS is within 0.74 of 2^p e^{i pi/n}.  The
    error e_j of z_j obeys
        |e_{j+1}| <= |e_j| |C + iS| / 2^p + 0.74 + sqrt(2)
                  <  |e_j| (1 + 2^-p) + 2.16,
    the sqrt(2) from the two floors, so |e_j| < 2.2 j for j <= 2^15.  The
    entry, s_j^2 / 2^(2p-q) rounded to the nearest integer (s_j = Im z_j),
    is then off by at most
        1/2 + |e_j| (2^(p+1) + |e_j|) 2^(q-2p) < 1/2 + 4.4 j 2^-_GUARD + 2^-100,
    below 0.51 for j <= n/2 <= 2^15.  A table holds n/2 + 1 ints: at
    n = N_MAX and q = _Q_CEILING it takes 10.6 MB (tracemalloc), so the four
    cached tables take at most 43 MB.
    """
    p = q + _GUARD
    C, S = _cos_sin_pi_over(n, p)
    shift = 2 * p - q
    half = 1 << (shift - 1)
    c, s, table = 1 << p, 0, [0]
    for _ in range(n // 2):
        c, s = (c * C - s * S) >> p, (s * C + c * S) >> p
        table.append((s * s + half) >> shift)
    return tuple(table)


def _scaled_sum(spec: SumSpec, q: int):
    """(S, E, terms): the sum at the scale 2^q as an int S with |S - 2^q sum|
    < E, and the number of terms computed; E is None when a base is below 8.

    At the scale 2^q a term b^(-k/2), b = x^2 + sin^2(j pi/n), is
    tau(B) = (2^(q(2+k)) / B^k)^(1/2) with B = 2^q b.  It is computed as
    T = isqrt(2^(q(2+k)) // v^k) from the integer base v = X + s_j, where
    X = floor(2^q x^2), exact from x's integer ratio, and s_j is within 1 of
    2^q sin^2(j pi/n) (_sin2_fixed).  So v - 1 < B < v + 2, and for v >= 8:
    - the floors: tau(v) - 2 < T <= tau(v), since a - 1 < floor(a) moves
      sqrt(a) by at most 1 (an a below 1 floors to 0), and isqrt moves it
      by less than 1;
    - the base: tau and tau(xi)/xi decrease, so by the mean value theorem,
      with xi between v and B, both above v - 1,
          |tau(v) - tau(B)| < 2 (k/2) tau(v-1)/(v-1)
                            = k (tau(v)/v) (v/(v-1))^((k+2)/2)
                            < 2k tau(v)/v < 2k (T + 2)/v,
      as (8/7)^3.5 < 2;
    so |T - tau(B)| < 2 + 2k (T + 2)/v <= 3 + 2k (T + 2) // v.  A term of
    0 < j < n/2 equals the term of n - j, which has its sign (n is even), so
    the terms run over j <= n/2, and inside they and their bounds count
    twice.  The only base that can be below 8 is x^2 at j = 0, and that
    term then dominates the sum, which the float path resolves.
    """
    k, n = spec.k, spec.n
    half_n = n // 2
    num, den = spec.x.as_integer_ratio()
    X = (num * num << q) // (den * den)
    table = _sin2_fixed(n, q)
    numer, two_k = 1 << q * (2 + k), 2 * k
    first, step = _TERMS[spec.variant]
    bases = [X + s for s in table[first::step]]
    if min(bases) < 8:
        return 0, None, 0
    terms = [math.isqrt(numer // v**k) for v in bases]
    errs = [3 + two_k * (t + 2) // v for t, v in zip(terms, bases)]
    odd = -1 if step == 1 else 1  # the sign of the terms of odd index
    S, E = 2 * (sum(terms[::2]) + odd * sum(terms[1::2])), 2 * sum(errs)
    for i in {0, len(terms) - 1}:
        if first + i * step in (0, half_n):
            S -= odd**i * terms[i]
            E -= errs[i]
    return S, E, len(terms)


def _ulps(E, q: int, value: float) -> float:
    """E / 2^q in units of the ulp of ``value``: inf for no bound (None) or
    past the double range."""
    if E is None:
        return math.inf
    try:
        return math.ldexp(E, 1 - q - math.frexp(math.ulp(value))[1])
    except OverflowError:
        return math.inf


def _sum_exact(spec: SumSpec) -> float:
    """The sum correctly rounded to a double, from exact integers at the
    scales 2^q, q = _Q_FIRST, 2 _Q_FIRST, ... _Q_CEILING (see sum_direct).

    The sum lies strictly between (S - E)/2^q and (S + E)/2^q (_scaled_sum).
    Rounding to nearest is monotone and Python's int/int division rounds
    correctly, so when both ends give one double, that double is the sum's
    correctly rounded value; a zero at both ends, of either sign, is an
    underflow and returns +0.0.  Otherwise q doubles, and past _Q_CEILING
    the sum raises AccuracyError with the midpoint as ``best``.
    """
    q = _Q_FIRST
    while True:
        S, E, count = _scaled_sum(spec, q)
        scale = 1 << q
        mid = S / scale
        if E is not None and (S - E) / scale == (S + E) / scale:
            status = "resolved" if mid else "underflow"
        else:
            status = "unresolved"
        _log.debug("sum_direct %s: %s at q=%d bits, %d terms, E=%.3g ulp",
                   spec, status, q, count, _ulps(E, q, mid))
        if status != "unresolved":
            return mid if mid else 0.0
        if q >= _Q_CEILING:
            raise AccuracyError(f"alternating sum unresolved at {q} bits", best=mid)
        q *= 2


@functools.lru_cache(maxsize=128)
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
    value raises AccuracyError.  n is even, 4 <= n <= N_MAX (an int or a
    NumPy integer), and x > 0 is finite.
    """
    n, x = counted("n", n, 4, N_MAX, parity=0), real("x", x, positive=True)
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
    for even 4 <= n <= N_MAX (an int or a NumPy integer) and finite x > 0.

    With c_k the constant in front, S_3 and S_5 overflow a double for
    n x < (c_k n^k / DBL_MAX)^{2/k}: below about 2e-196 (k = 3) and 2e-114
    (k = 5) at n = N_MAX, and 7e-205 and 6e-123 at n = 4.  There s_asym
    raises DomainError; S_1 is finite for every x > 0.
    """
    k, n = counted("k", k, 1, 5, parity=1), counted("n", n, 4, N_MAX, parity=0)
    x = real("x", x, positive=True)
    nx = n * x
    pref = math.sqrt(8.0 / math.pi) / (3.0 if k == 5 else 1.0)
    try:
        value = pref * n**k * nx ** (-k / 2.0) * math.exp(-nx)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"S_{k} overflows at n*x = {nx:.3g}, below "
                          f"(c_k n^k / DBL_MAX)^(2/k)")
    if nx < 5.0:
        warnings.warn(
            f"n*x = {nx:.3g} < 5: outside the asymptotic regime", RegimeWarning
        )
    return value


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
    (variant, k) pairs; n is even, 4 <= n <= N_MAX (an int or a NumPy integer).
    A variant that is no str or not in VARIANTS is a DomainError, as in
    SumSpec, and a known one without a leading constant an UnsupportedError."""
    if typed("variant", variant, str) not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    k, n = counted("k", k, 1, 5), counted("n", n, 4, N_MAX, parity=0)
    try:
        fn = _CSC_LEADING[(variant, k)]
    except KeyError:
        raise UnsupportedError(
            f"no leading constant provided for ({variant!r}, k={k})"
        ) from None
    return fn(n)


def csc_full_sum(m: int) -> float:
    """sum_{j=1}^{m-1} csc(j pi / m), 2 <= m <= N_MAX; approaches
    (2m/pi)(log(2m/pi) + gamma0)."""
    m = counted("m", m, 2, N_MAX)
    return math.fsum(1.0 / math.sin(j * math.pi / m) for j in range(1, m))
