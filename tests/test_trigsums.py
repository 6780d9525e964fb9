import logging
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import legendre

from necklace import trigsums
from necklace.errors import AccuracyError, DomainError, RegimeWarning, UnsupportedError
from necklace.trigsums import (
    N_MAX,
    ZETA3,
    ZETA5,
    SumSpec,
    csc_asym,
    csc_full_sum,
    gl_panels,
    leggauss,
    s1_contour,
    s_asym,
    sum_direct,
)


def brute(spec: SumSpec) -> float:
    """Independent term-by-term oracle at high precision."""
    with mp.workdps(60):
        x2 = mp.mpf(spec.x) ** 2
        total = mp.mpf(0)
        n = spec.n
        if spec.variant == "odd":
            js = [(2 * j + 1, 1) for j in range(n // 2)]
        elif spec.variant == "even":
            js = [(2 * j, 1) for j in range(n // 2)]
        elif spec.variant == "even_hat":
            js = [(2 * j, 1) for j in range(1, n // 2)]
        elif spec.variant == "alt":
            js = [(j, (-1) ** j) for j in range(n)]
        else:
            js = [(j, (-1) ** (j + 1)) for j in range(1, n)]
        for j, s in js:
            total += s * (x2 + mp.sin(j * mp.pi / n) ** 2) ** (-mp.mpf(spec.k) / 2)
        return float(total)


class TestSumSpec:
    def test_valid(self):
        spec = SumSpec("odd", 3, 8, 0.5)
        assert spec.k == 3

    @pytest.mark.parametrize("variant, k, x", [
        ("alt", 1, 1e-150), ("alt", 3, 1e-100), ("even", 5, 1e-60),
    ])
    def test_tiny_x_with_finite_j0_term(self, variant, k, x):
        # the j = 0 term (x^2)^(-k/2) is finite and dominates the sum
        total = sum_direct(SumSpec(variant, k, 64, x))
        assert total == pytest.approx((x * x) ** (-k / 2.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(variant="weird", k=1, n=8),
        dict(variant="odd", k=2, n=8),
        dict(variant="odd", k=1, n=7),
        dict(variant="odd", k=1, n=2),
        dict(variant="odd", k=1, n=8, x=-0.5),
        dict(variant="even", k=1, n=8, x=0.0),
        dict(variant="alt", k=1, n=8, x=0.0),
        dict(variant="alt", k=1, n=64, x=math.nan),
        dict(variant="odd", k=1, n=8, x=math.inf),
        dict(variant="odd", k=1, n=8, x=-math.inf),
        dict(variant="alt", k=1, n=64, x=1e-300),
        dict(variant="alt", k=3, n=8, x=1e-110),
        dict(variant="even", k=5, n=8, x=1e-70),
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            SumSpec(**bad)

    def test_n_bound(self):
        assert SumSpec("alt", 1, N_MAX, 0.5).n == N_MAX
        for n in (N_MAX + 2, 10**9):
            with pytest.raises(DomainError, match=f"at most {N_MAX}"):
                SumSpec("alt", 1, n, 0.5)


def test_alt_hat_n4_closed_value():
    # 1/sin(pi/4) - 1/sin(pi/2) + 1/sin(3 pi/4) = 2 sqrt(2) - 1
    assert sum_direct(SumSpec("alt_hat", 1, 4)) == pytest.approx(
        2.0 * math.sqrt(2.0) - 1.0, rel=1e-14
    )


@settings(max_examples=40)
@given(
    st.sampled_from(["odd", "even", "even_hat", "alt", "alt_hat"]),
    st.sampled_from([1, 3, 5]),
    st.sampled_from([4, 6, 10, 16]),
    st.floats(0.01, 2.0),
)
def test_sum_direct_matches_brute(variant, k, n, x):
    spec = SumSpec(variant, k, n, x)
    assert sum_direct(spec) == pytest.approx(brute(spec), rel=1e-12, abs=1e-14)


@settings(max_examples=100)
@given(
    st.one_of(st.sampled_from(trigsums.VARIANTS), st.just("plain")),
    st.one_of(st.sampled_from([1, 3, 5]), st.integers(-1, 6)),
    st.one_of(st.integers(2, 256).map(lambda h: 2 * h), st.integers(-4, 514),
              st.just(N_MAX + 2)),
    st.one_of(st.floats(0.0, 2.0), st.floats(),
              st.sampled_from([5e-324, 1e-160, 1e-100, 30.0, 1e300])),
)
def test_sum_direct_finite_or_domain_error(variant, k, n, x):
    # bad input raises DomainError, from SumSpec; valid input sums to a
    # finite float, an alternating sum below the least subnormal to 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = SumSpec(variant, k, n, x)
        except DomainError:
            return
        assert math.isfinite(sum_direct(spec))


@pytest.mark.parametrize("n, x", [(512, 100.0), (512, 13.0), (256, 1e3)])
def test_sum_direct_underflow_is_zero(n, x):
    # S_1 is about e^{-n asinh x}, below half the least subnormal: the exact
    # pathway's bounds round to a zero, returned as +0.0
    total = sum_direct(SumSpec("alt", 1, n, x))
    assert total == 0.0 and math.copysign(1.0, total) == 1.0


def test_combination_identities():
    n, x = 12, 0.3
    odd = sum_direct(SumSpec("odd", 1, n, x))
    even = sum_direct(SumSpec("even", 1, n, x))
    even_hat = sum_direct(SumSpec("even_hat", 1, n, x))
    alt = sum_direct(SumSpec("alt", 1, n, x))
    alt_hat = sum_direct(SumSpec("alt_hat", 1, n, x))
    assert alt == pytest.approx(even - odd, rel=1e-12)
    assert alt_hat == pytest.approx(odd - even_hat, rel=1e-12)
    assert even == pytest.approx(even_hat + 1.0 / x, rel=1e-12)


def test_extreme_cancellation_uses_high_precision():
    # the alternating sum at n x = 200 cancels ~80 orders of magnitude
    spec = SumSpec("alt", 1, 200, 1.0)
    val = sum_direct(spec)
    with mp.workdps(120):
        ref = mp.mpf(0)
        for j in range(200):
            ref += (-1) ** j * (1 + mp.sin(j * mp.pi / 200) ** 2) ** mp.mpf("-0.5")
    assert val == pytest.approx(float(ref), rel=1e-10)


def _term_indices(spec):
    """Yield (j, sign) pairs where the term is (x^2 + sin^2(j pi/n))^{-k/2},
    in increasing j: each variant's definition, as the reference for the
    (first j, step) of trigsums._TERMS."""
    n = spec.n
    if spec.variant == "odd":
        for j in range(0, n, 2):
            yield j + 1, 1.0
    elif spec.variant == "even":
        for j in range(0, n, 2):
            yield j, 1.0
    elif spec.variant == "even_hat":
        for j in range(2, n, 2):
            yield j, 1.0
    elif spec.variant == "alt":
        for j in range(n):
            yield j, 1.0 if j % 2 == 0 else -1.0
    else:  # alt_hat
        for j in range(1, n):
            yield j, 1.0 if j % 2 == 1 else -1.0


def _sum_float_loop(spec):
    """The double-precision pathway as a loop over the terms, as the
    reference for sum_direct's table slices: the sum and the sum of the
    term magnitudes."""
    x2 = spec.x * spec.x
    step = math.pi / spec.n
    khalf = spec.k / 2.0
    terms = []
    for j, sign in _term_indices(spec):
        s = math.sin(j * step)
        terms.append(sign * (x2 + s * s) ** (-khalf))
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


@settings(max_examples=300)
@given(
    st.sampled_from(trigsums.VARIANTS),
    st.sampled_from([1, 3, 5]),
    st.integers(2, 1024).map(lambda h: 2 * h),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 0.05),
              st.sampled_from([5e-324, 1e-150, 1e-60, 1e-8])),
)
def test_sum_float_bits_equal_term_loop(variant, k, n, x):
    # the specs the loop resolves in double precision, from a cold and a
    # warm sin^2 table
    try:
        spec = SumSpec(variant, k, n, x)
    except DomainError:
        assume(False)
    total, abssum = _sum_float_loop(spec)
    assume(abs(total) >= trigsums._CANCEL_THRESHOLD * abssum)
    trigsums._sin2_float.cache_clear()
    assert sum_direct(spec) == total
    assert sum_direct(spec) == total


def _sum_two_fsum(spec):
    """sum_direct's double-precision pathway as it was written before the
    plain-sum cancellation test: Python's float power on the table entries
    of each sign, then one math.fsum for the sum and one for the sum of the
    magnitudes."""
    x2 = spec.x * spec.x
    nkhalf = -(spec.k / 2.0)
    table = trigsums._sin2_float(spec.n).tolist()
    plus, minus = ([pow(x2 + table[j], nkhalf) for j, sign in _term_indices(spec)
                    if sign == want] for want in (1.0, -1.0))
    return math.fsum(plus + [-t for t in minus]), math.fsum(plus + minus), plus, minus


def _plain(plus, minus):
    """_resolved's arguments after the total: a plain sum of the term
    magnitudes and the terms."""
    return sum(plus) + sum(minus), plus + minus


@settings(max_examples=300)
@given(
    st.sampled_from(trigsums.VARIANTS),
    st.sampled_from([1, 3, 5]),
    st.integers(2, 1024).map(lambda h: 2 * h),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 0.05),
              st.sampled_from([5e-324, 1e-150, 1e-60, 1e-8, 1e20, 1e70, 1e300])),
)
def test_sum_float_bits_equal_two_fsum_path(variant, k, n, x):
    # the terms, the sum and the cancellation test of the two-fsum pathway:
    # its resolved sums are sum_direct's, and the plain-sum test decides as
    # the fsum of the magnitudes does
    try:
        spec = SumSpec(variant, k, n, x)
    except DomainError:
        assume(False)
    total, abssum, plus, minus = _sum_two_fsum(spec)
    resolved = abs(total) >= trigsums._CANCEL_THRESHOLD * abssum
    assert trigsums._resolved(total, *_plain(plus, minus)) == resolved
    if resolved:
        assert sum_direct(spec) == total


@pytest.mark.parametrize("x, resolved", [(1.3240990911529305, True),
                                         (1.3240990911529307, False)])
def test_cancellation_test_at_the_threshold(caplog, x, resolved):
    # at these adjacent doubles S_1(16, x) crosses 1e-8 of its term sum:
    # |total| and 1e-8 abssum differ by 9e-17 and 2e-17, below an ulp of
    # the largest terms, inside the relative 1e-9 band where the plain sum
    # cannot decide and the fsum of the magnitudes does
    caplog.set_level(logging.DEBUG, logger="necklace.trigsums")
    spec = SumSpec("alt", 1, 16, x)
    total, abssum, plus, minus = _sum_two_fsum(spec)
    threshold = trigsums._CANCEL_THRESHOLD * abssum
    assert abs(abs(total) - threshold) < 1e-16
    assert abs(abs(total) - threshold) < 1e-9 * threshold
    assert (abs(total) >= threshold) == resolved
    assert trigsums._resolved(total, *_plain(plus, minus)) == resolved
    got = sum_direct(spec)
    if resolved:
        assert got == total and caplog.records == []
    else:
        assert [r.getMessage() for r in caplog.records] == [
            f"sum_direct {spec}: resolved at q=136 bits, 9 terms, E=4.16e-17 ulp"]
        assert got == pytest.approx(brute(spec), rel=1e-12)


@settings(max_examples=60)
@given(st.integers(2, 128).map(lambda h: 2 * h),
       st.one_of(st.floats(0.0, 0.2), st.floats(0.2, 2.0),
                 st.sampled_from([0.0, 5e-324, 1e-160, 1e-62, 1e-8, 1e300])))
def test_alt_sums_equal_sum_direct(n, x):
    # S_1, S_3 and S_5 from one list of x^2 + sin^2, escalations included,
    # or the DomainError of the first spec that rejects x
    want = []
    for k in (1, 3, 5):
        try:
            want.append(sum_direct(SumSpec("alt", k, n, x)))
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                trigsums.alt_sums(n, x)
            return
    assert trigsums.alt_sums(n, x) == tuple(want)


def _sin2_float_listcomp(n):
    """_sin2_float's table as it was first built: a list of math.sin(j * step)."""
    step = math.pi / n
    sines = np.array([math.sin(j * step) for j in range(n)])
    return sines * sines


def test_sin2_float_bits_equal_listcomp_build():
    # the NumPy products j * (pi/n) are the int-times-float products of
    # the list build, so every table keeps its bits
    for n in [*range(4, 4097, 2), N_MAX]:
        assert trigsums._sin2_float.__wrapped__(n).tobytes() == \
            _sin2_float_listcomp(n).tobytes(), n


def test_sin2_float_cache_is_bounded():
    table = trigsums._sin2_float
    size = table.cache_info().maxsize
    assert size is not None
    for n in range(4, 2 * size + 12, 2):
        arr = table(n)
        assert arr.shape == (n,)
        assert not arr.flags.writeable
    assert table.cache_info().currsize <= size


def test_sin2_fixed_cache_is_bounded():
    table = trigsums._sin2_fixed
    size = table.cache_info().maxsize
    assert size is not None
    for n in range(4, 2 * size + 12, 2):
        assert len(table(n, 136)) == n // 2 + 1
    assert table.cache_info().currsize <= size


def _sin2_oracle(n, j, q):
    """2^q sin^2(j pi/n) at 60 digits past the table's q bits."""
    with mp.workprec(q + 200):
        return mp.ldexp(mp.sin(j * mp.pi / n) ** 2, q)


@pytest.mark.parametrize("n", [4, 6, 200])
@pytest.mark.parametrize("q", [136, 272])
def test_sin2_fixed_within_its_bound(n, q):
    table = trigsums._sin2_fixed(n, q)
    assert len(table) == n // 2 + 1 and table[0] == 0
    assert max(abs(t - _sin2_oracle(n, j, q)) for j, t in enumerate(table)) <= 0.51


@pytest.mark.parametrize("q", [136, 2176])
def test_sin2_fixed_within_its_bound_at_n_max(q):
    # the rotation's error grows with j.  At q = 136 every entry: a guard of
    # 20 bits instead of 24 puts j = 32 192 alone off by 0.548.  At q = 2176
    # the last entries, where the error is largest, and a spread of others
    table = trigsums._sin2_fixed(N_MAX, q)
    half = N_MAX // 2
    js = (range(half + 1) if q == 136
          else [1, 2, 3, *range(5, half, 4093), half - 2, half - 1, half])
    with mp.workprec(q + 200):
        worst = max(abs(table[j] - mp.ldexp(mp.sin(j * mp.pi / N_MAX) ** 2, q)) for j in js)
    assert worst <= 0.51


#: (n, q) where mpmath.libmp's cos and sin of pi/n, the seed the tables had
#: before, round 2^p cos(pi/n) to the integer next to the nearest one
_LIBMP_OFF_NEAREST = [(170, 136), (740, 1088), (946, 136), (986, 136), (1168, 136),
                      (1278, 2176), (1302, 544), (1336, 136), (1340, 1088), (1464, 544),
                      (1864, 1088)]


@pytest.mark.parametrize("n, q", [
    *_LIBMP_OFF_NEAREST,
    *((n, q) for n in (4, 6, 200, 12346, 65534, N_MAX) for q in (136, 272, 544, 1088, 2176))])
def test_sin2_fixed_seed_is_the_nearest_integers(n, q):
    p = q + trigsums._GUARD
    with mp.workprec(p + 200):
        want = tuple(int(mp.nint(mp.ldexp(f(mp.pi / n), p))) for f in (mp.cos, mp.sin))
    assert trigsums._cos_sin_pi_over(n, p) == want


def _alt_oracle(spec, dps):
    """The sum term by term at dps digits, any variant's signs."""
    with mp.workdps(dps):
        x2 = mp.mpf(spec.x) ** 2
        return mp.fsum(sign * (x2 + mp.sin(j * mp.pi / spec.n) ** 2) ** (-mp.mpf(spec.k) / 2)
                       for j, sign in _term_indices(spec))


@settings(max_examples=60)
@given(st.sampled_from(trigsums.VARIANTS), st.sampled_from([1, 3, 5]),
       st.integers(2, 512).map(lambda h: 2 * h), st.floats(10.0, 120.0))
def test_sum_exact_is_correctly_rounded(variant, k, n, nx):
    # the exact pathway returns the double nearest the sum, whether or not
    # the float pathway escalates to it; S_k(n, x) cancels to about e^{-n x},
    # and the same-sign variants check the unsigned branch of _scaled_sum
    spec = SumSpec(variant, k, n, nx / n)
    assert trigsums._sum_exact(spec) == float(_alt_oracle(spec, 320))


@pytest.mark.parametrize("k, n, x", [(3, 666, "0x1.6d706d0a2eda4p-4"),
                                     (1, 1016, "0x1.af5bf035e3e24p-5")])
def test_sum_direct_correctly_rounded_where_40_digits_were_not(k, n, x):
    # the 40-digit multiprecision rung that the exact pathway replaced
    # returned a double one ulp off these two sums
    spec = SumSpec("alt", k, n, float.fromhex(x))
    assert sum_direct(spec) == float(_alt_oracle(spec, 320))


def test_escalation_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="necklace.trigsums")
    spec = SumSpec("alt", 1, 200, 0.2)  # n x = 40
    sum_direct(spec)
    assert [r.getMessage() for r in caplog.records] == [
        f"sum_direct {spec}: resolved at q=136 bits, 101 terms, E=1.64e-06 ulp"
    ]
    caplog.clear()
    sum_direct(SumSpec("alt", 1, 16, 0.2))  # resolved in double precision
    assert caplog.records == []
    # an underflow that the Poisson bound decides at once
    spec = SumSpec("alt", 1, 512, 13.0)
    assert sum_direct(spec) == 0.0
    assert [r.getMessage() for r in caplog.records] == [
        f"sum_direct {spec}: underflow by its Poisson bound 2^-2395.5"]
    caplog.clear()
    # one that it leaves to the exact scales (the bound is 2^-1064.6), an
    # underflow after one scale per doubling of q
    spec = SumSpec("alt", 1, 512, 2.04)
    assert sum_direct(spec) == 0.0
    assert [(r.args[1], r.args[2], r.args[3]) for r in caplog.records] == [
        ("unresolved", 136, 257), ("unresolved", 272, 257),
        ("unresolved", 544, 257), ("underflow", 1088, 257)]
    assert caplog.records[-1].args[4] < 0.5


def test_accuracy_error_past_the_ceiling(monkeypatch):
    # S_1(512, 0.5) is about e^{-n asinh x} = e^{-246}, far below the
    # bound E 2^-136 of the first scale; with the ceiling at that scale, the
    # sum raises
    spec = SumSpec("alt", 1, 512, 0.5)
    want = sum_direct(spec)
    assert 0.0 < want < 2.0**-300
    monkeypatch.setattr(trigsums, "_Q_CEILING", trigsums._Q_FIRST)
    with pytest.raises(AccuracyError, match="unresolved at 136 bits") as info:
        sum_direct(spec)
    assert math.isfinite(info.value.best)


def _poisson_cases():
    """A seeded grid of (k, n, x): k = 1, 3 and 5, even n from 8 to 1 024,
    and x = sinh(y/n) with y = n asinh x log-uniform in [1.2, 4 000], so
    that s = asinh x - 1/n > 0."""
    rng = np.random.default_rng(45)
    cases = []
    for k in (1, 3, 5):
        for _ in range(8):
            n = 2 * int(rng.integers(4, 513))
            y = math.exp(rng.uniform(math.log(1.2), math.log(4000.0)))
            cases.append((k, n, math.sinh(y / n)))
    return cases


@pytest.mark.parametrize("k, n, x", _poisson_cases())
def test_poisson_bound_holds(k, n, x, caplog):
    # |S| <= 2n (x^2 - sinh^2 s)^(-k/2) e^(-ns) / (1 - e^(-2ns)), s = asinh x
    # - 1/n, and _log2_alt_bound is log2 of at least that bound, within the
    # 2^-20 it gives for its rounding
    spec = SumSpec("alt", k, n, x)
    dps = 40 + int((n * math.asinh(x) + k * max(0.0, -math.log(x))) / math.log(10.0))
    total = _alt_oracle(spec, dps)
    with mp.workdps(dps):
        xm = mp.mpf(x)
        s = mp.asinh(xm) - mp.mpf(1) / n
        bound = (2 * n * (xm**2 - mp.sinh(s) ** 2) ** (-mp.mpf(k) / 2) * mp.exp(-n * s)
                 / (1 - mp.exp(-2 * n * s)))
        assert s > 0 and abs(total) <= bound
        log2_bound = float(mp.log(bound, 2))
    got = trigsums._log2_alt_bound(k, n, x)
    assert log2_bound <= got + 2.0**-20
    # wherever it decides, sum_direct returns +0.0 with the one record, and
    # the sum does round to 0
    caplog.set_level(logging.DEBUG, logger="necklace.trigsums")
    if got <= trigsums._UNDERFLOW_LOG2:
        assert float(total) == 0.0
        value = trigsums._sum_exact(spec)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert [r.getMessage() for r in caplog.records] == [
            f"sum_direct {spec}: underflow by its Poisson bound 2^{got:.1f}"]


def test_underflow_at_n_max_is_decided_at_once(caplog):
    # each of S_1, S_3 and S_5 (N_MAX, 0.5), the sums of c0(N_MAX, 0.5),
    # took five exact scales up to 2 176 bits; the bound decides each at once
    caplog.set_level(logging.DEBUG, logger="necklace.trigsums")
    assert trigsums.alt_sums.__wrapped__(N_MAX, 0.5) == (0.0, 0.0, 0.0)
    assert [r.getMessage().split(": ")[1][:30] for r in caplog.records] == [
        "underflow by its Poisson bound"] * 3


@pytest.mark.parametrize("n", [10, 50, 200])
@pytest.mark.parametrize("x", [0.05, 0.2, 1.0])
def test_contour_identity(n, x):
    direct = sum_direct(SumSpec("alt", 1, n, x))
    assert s1_contour(n, x) == pytest.approx(direct, rel=1e-7)


def test_contour_underflow_is_zero():
    assert s1_contour(4000, 1.0) == 0.0


# the (n, x) grid of the Gauss-Legendre checks, less the points where S_1
# underflows to 0
_CONTOUR_GRID = [
    (n, x)
    for n in (4, 10, 50, 200, 1000, 4000)
    for x in (1e-8, 1e-4, 0.01, 0.05, 0.2, 1.0, 3.0)
    if n * math.asinh(x) <= 700.0
]


def _contour_by_quad(n, x):
    """s1_contour's integral by mpmath's quadrature at 30 digits, as an
    independent reference for its Gauss-Legendre rule: the same integrand on
    [0, ucut]."""
    ucut = math.acosh(max(math.sinh(math.asinh(x) + 45.0 / n) / x, 1.0 + 1e-15))
    with mp.workdps(30):
        y0 = n * mp.asinh(x)

        def g(u):
            xc = x * mp.cosh(u)
            y = n * mp.asinh(xc)
            return 2 * mp.exp(y0 - y) / (-mp.expm1(-2 * y) * mp.sqrt(1 + xc * xc))

        return float(2 * n / mp.pi * mp.exp(-y0) * mp.quad(g, [0, ucut]))


@pytest.mark.parametrize("n, x", _CONTOUR_GRID)
def test_contour_grid_matches_direct(n, x):
    direct = sum_direct(SumSpec("alt", 1, n, x))
    assert s1_contour(n, x) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("n, x", _CONTOUR_GRID)
def test_contour_grid_matches_adaptive_quad(n, x):
    assert s1_contour(n, x) == pytest.approx(_contour_by_quad(n, x), rel=1e-10)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
def test_contour_rejects_bad_x(x):
    with pytest.raises(DomainError):
        s1_contour(10, x)
    # the asymptotic form of the same sum rejects the same x
    with pytest.raises(DomainError):
        s_asym(1, 10, x)


@pytest.mark.parametrize("x", [1e-50, 1e-310])
def test_contour_unresolved_at_tiny_x(x):
    # the fixed rule cannot follow the integrand's e-folds over [0, ucut]
    # here (or ucut overflows); the error estimate reports that
    with pytest.raises(AccuracyError):
        s1_contour(4, x)


def test_recorded_rule_is_leggauss_24():
    # s1_contour's order-24 rule is recorded, not solved for: its 48 numbers
    # have the bits of NumPy's rule
    x, w = legendre.leggauss(24)
    got_x, got_w = trigsums._gl24()
    assert got_x.tobytes() == x.tobytes() and got_w.tobytes() == w.tobytes()


def test_contour_rule_is_the_composite_of_leggauss_24():
    # the two composite rules have the bits of gl_panels' on NumPy's rule
    (t4, w4), (t8, w8) = (gl_panels(np.linspace(0.0, 1.0, p + 1), 24) for p in (4, 8))
    weights = np.zeros((2, t4.size + t8.size))
    weights[0, : t4.size], weights[1, t4.size :] = w4, w8
    assert trigsums._CONTOUR_NODES.tobytes() == np.concatenate([t4, t8]).tobytes()
    assert trigsums._CONTOUR_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("order", [0, -1, 2.5, 8.0, True, "8", None, [8], np.bool_(True)])
def test_leggauss_rejects_an_order_not_a_positive_integer(order):
    # where NumPy raised ValueError or TypeError, and a list the cache's
    # TypeError
    with pytest.raises(DomainError, match=r"^order must be an integer >= 1, got "):
        leggauss(order)


def test_leggauss_takes_a_numpy_integer():
    assert leggauss(np.int64(8)) is leggauss(8)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_s_asym_accuracy(k):
    n, nx = 4000, 25
    x = nx / n
    direct = sum_direct(SumSpec("alt", k, n, x))
    assert abs(s_asym(k, n, x) / direct - 1.0) <= 3.0 / nx


def test_s_asym_warns_outside_regime():
    with pytest.warns(RegimeWarning):
        s_asym(1, 100, 0.01)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("n", [4, N_MAX])
def test_s_asym_overflow_is_domain_error(k, n):
    # finite just above the docstring's n x = (c_k n^k / DBL_MAX)^{2/k}, a
    # DomainError (and no RegimeWarning) just below it, not an OverflowError
    pref = math.sqrt(8.0 / math.pi) / (3.0 if k == 5 else 1.0)
    edge = (pref * n**k / sys.float_info.max) ** (2.0 / k)
    assert edge < {3: 2e-196, 5: 2e-114}[k]
    with pytest.warns(RegimeWarning):
        assert math.isfinite(s_asym(k, n, 1.01 * edge / n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^S_{k} overflows at n\\*x = "):
            s_asym(k, n, 0.99 * edge / n)
        with pytest.raises(DomainError):
            s_asym(k, n, 5e-324)


def test_s_asym_first_order_never_overflows():
    with pytest.warns(RegimeWarning):
        assert math.isfinite(s_asym(1, N_MAX, 5e-324)) and math.isfinite(s_asym(1, 4, 5e-324))


def test_csc_asym_pairs():
    n = 512
    assert csc_asym("odd", 3, n) == pytest.approx(7 * ZETA3 * n**3 / (4 * math.pi**3))
    assert csc_asym("odd", 5, n) == pytest.approx(93 * ZETA5 * n**5 / (48 * math.pi**5))
    assert csc_asym("even_hat", 3, n) == pytest.approx(ZETA3 * n**3 / (4 * math.pi**3))
    assert csc_asym("alt_hat", 1, n) == pytest.approx(n / math.pi * math.log(4.0))
    with pytest.raises(UnsupportedError):
        csc_asym("alt", 1, n)


def test_csc_asym_unknown_variant_is_a_domain_error():
    # the error SumSpec gives the same variant, not the UnsupportedError of
    # a known variant without a leading constant
    with pytest.raises(DomainError) as want:
        SumSpec("bogus", 1, 8, 0.5)
    with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
        csc_asym("bogus", 1, 8)


def test_csc_asym_known_variant_without_a_constant_is_unsupported():
    with pytest.raises(UnsupportedError, match="no leading constant"):
        csc_asym("alt", 1, 8)


def test_csc_asym_is_actually_asymptotic():
    for variant, k in (("odd", 3), ("odd", 5), ("even_hat", 3), ("alt_hat", 1)):
        n = 2048
        direct = sum_direct(SumSpec(variant, k, n))
        rel = abs(csc_asym(variant, k, n) / direct - 1.0)
        assert rel < 2e-3, (variant, k, rel)


#: Euler's gamma; reproduced from its defining series below
_EULER_GAMMA = 0.5772156649015328606


def _csc_full_sum_asym(m: int) -> float:
    """The (2m/pi)(log(2m/pi) + gamma) approximation of csc_full_sum."""
    return 2.0 * m / math.pi * (math.log(2.0 * m / math.pi) + _EULER_GAMMA)


def test_csc_full_sum():
    assert csc_full_sum(2) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DomainError):
        csc_full_sum(1)
    m = 4096
    assert csc_full_sum(m) == pytest.approx(_csc_full_sum_asym(m), rel=1e-5)


def test_sum_direct_thread_safe():
    # every spec escalates to the exact pathway and ends at q = 136, 272 or
    # 544 bits; from a cold cache, the threads race to fill and evict the
    # integer sin^2 tables (six of them, n = 64 and 200 at three scales, for
    # a cache of four)
    specs = [SumSpec("alt", k, n, x) for k in (1, 3, 5)
             for n, x in ((200, 0.15), (64, 0.5), (200, 0.5), (64, 1.0),
                          (200, 1.0), (64, 1.6), (200, 1.6))]
    serial = [sum_direct(spec) for spec in specs]
    trigsums._sin2_fixed.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(lambda: [sum_direct(spec) for spec in specs])
                       for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == serial for got in results)


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
    assert _EULER_GAMMA == pytest.approx(_gamma_series(), abs=1e-10)


def test_sinh_moment_integral():
    """int_0^inf t^2/sinh t dt = (7/2) zeta(3)."""
    val = float(mp.quad(lambda t: t * t / mp.sinh(t), [0, mp.inf]))
    assert val == pytest.approx(3.5 * ZETA3, abs=1e-10)
