import itertools
import logging
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from necklace import energy
from necklace.crown import (
    _BLOCK,
    TALENTI_AMP,
    ProfileHandle,
    build_crown,
    psi_d1,
    u_star,
    u_star_profile,
)
from necklace.energy import (
    _ORDER,
    ReducedConfig,
    ReducedPoint,
    _a_half_width,
    _apply_bumps,
    _box,
    _computed_model,
    _cores,
    _near_cores,
    _grid_start,
    _grid_values,
    _shifted,
    _smooth_cut,
    _sphere_rule,
    a_gamma,
    c0,
    c2,
    c_star,
    check_full_mode,
    default_model,
    eps_star,
    minimize_psi,
    psi_full,
    psi_leading,
)
from necklace.errors import AccuracyError, DomainError, UnsupportedError
from necklace.geometry import K_MAX, Point3, SectorConfig
from necklace.kernels import (
    PlacedBubble,
    _a_gamma,
    _gamma_bb_closed,
    _h0e_bb_closed,
    _in_plane,
    _w_sums,
    s_hat,
)
from necklace.trigsums import ZETA3, ZETA5, SumSpec, alt_sums, gl_panels, sum_direct
from conftest import talenti_profile
from test_kernels import _old_h0e_derivs, _old_newton_derivs


def _cfg(K=64):
    return ReducedConfig(K=K, lam=1.0, gnorm=1.0, cstar=0.25, delta=0.1)


def _mid_point(cfg):
    lo, hi = _box(cfg)["d"]
    d = 0.5 * (lo + hi)
    e_lo, e_hi = _box(cfg)["eps"]
    eps = min(max(eps_star(cfg, d), e_lo), e_hi)
    return ReducedPoint(eps=eps, a=0.0, d=d, alpha_b=0.0, alpha_w=0.0)


#: how far outside the box in_box still accepts a point, per axis
_BOX_SLACK = 1e-12


def in_box(A: ReducedPoint, cfg: ReducedConfig) -> bool:
    box = _box(cfg)
    for name in ("eps", "d", "alpha_b", "alpha_w"):
        lo, hi = box[name]
        v = getattr(A, name)
        if not lo - _BOX_SLACK <= v <= hi + _BOX_SLACK:
            return False
    return abs(A.a) <= _a_half_width(cfg, A.eps) + _BOX_SLACK


class TestConfigs:
    @pytest.mark.parametrize("kwargs", [
        {"K": 63}, {"K": 2}, {"lam": 0.0}, {"gnorm": -1.0},
        {"cstar": 0.0}, {"delta": 0.0}, {"delta": 1.0},
        {"lam": math.nan}, {"gnorm": math.inf}, {"cstar": math.inf},
        {"cstar": math.nan}, {"lam": -math.inf}, {"delta": math.nan},
        # Psi would overflow on the box, or its smallest eps underflow
        {"delta": 1e-100}, {"delta": 1e-300}, {"delta": 5e-324},
    ])
    def test_rejects(self, kwargs):
        base = dict(K=64, lam=1.0, gnorm=1.0, cstar=0.25, delta=0.1)
        base.update(kwargs)
        with pytest.raises(DomainError):
            ReducedConfig(**base)

    def test_b_abs_derived(self):
        A = ReducedPoint(eps=1e-6, a=0.0, d=0.07, alpha_b=0.0, alpha_w=0.0)
        assert A.b_abs == pytest.approx(math.sqrt(1.0 + 0.07**2) - 0.07)

    def test_in_box(self):
        cfg = _cfg()
        assert in_box(_mid_point(cfg), cfg)
        box = _box(cfg)
        outside = ReducedPoint(eps=2.0 * box["eps"][1], a=0.0,
                               d=0.5 * sum(box["d"]), alpha_b=0.0, alpha_w=0.0)
        assert not in_box(outside, cfg)


class TestLeadingForms:
    def test_c0_log4_ratio(self):
        K = 256
        ratio = c0(K, math.log(K) / K) * math.pi / (K * math.log(4.0))
        assert abs(ratio - 1.0) <= 0.15

    def test_c2_ratio(self):
        K = 256
        d = (math.log(K) - 0.5 * math.log(math.log(K))) / K
        ratio = c2(K, d) * 2.0 * math.pi**3 / (3.0 * ZETA3 * K**3)
        # the 3d and (Kd)^{-1/2} e^{-Kd} corrections contribute ~0.14 at K=256
        assert abs(ratio - 1.0) <= 0.2

    def test_a_gamma_ratios(self):
        K = 256
        A = a_gamma(K)
        assert A[0, 1] == A[1, 0]
        r11 = A[0, 0] * 2.0 * math.pi**3 / (5.0 * ZETA3 * K**3)
        r22 = A[1, 1] * 8.0 * math.pi**5 / (93.0 * ZETA5 * K**5)
        assert abs(r11 - 1.0) <= 0.05
        assert abs(r22 - 1.0) <= 0.05

    @pytest.mark.parametrize("K", [64, 128])
    def test_forms_cold_and_warm_cache(self, K):
        # the sums, not the forms, are cached: C0, C2 and A_gamma from a cold
        # cache, then a warm one, equal the forms of the uncached sums
        def shat(k):
            return sum_direct(SumSpec("alt_hat", k, K, 0.0))

        def salt(k, d):
            return sum_direct(SumSpec("alt", k, K, d))

        ds = [0.01 * i for i in range(1, 6)]
        want = []
        for d in ds:
            root = d + math.sqrt(1.0 + d * d)
            want.append((shat(1) + salt(1, d),
                         shat(1) + shat(3) + salt(1, d) - root * root * salt(3, d)
                         + 3.0 * (d * d + d**4) * salt(5, d)))
        want_form = a_gamma(K).copy()
        for cache in (s_hat, alt_sums, _a_gamma):
            cache.cache_clear()
        for _warm in range(2):
            assert [(c0(K, d), c2(K, d)) for d in ds] == want
            assert a_gamma(K).tobytes() == want_form.tobytes()
        # one (K, d) entry holds C0's and C2's S_1, S_3 and S_5
        assert alt_sums.cache_info().hits >= 3 * len(ds)

    def test_sum_caches_are_bounded(self):
        for i in range(alt_sums.cache_info().maxsize + 10):
            alt_sums(8, 0.5 + i / 4096)
        for n in range(4, 2 * s_hat.cache_info().maxsize + 12, 2):
            s_hat(1, n)
        for i in range(_w_sums.cache_info().maxsize + 10):
            _w_sums(8, 0.9, 0.0, 1.0 + i / 4096, 0.0)
        for cache in (s_hat, alt_sums, _w_sums):
            assert cache.cache_info().currsize <= cache.cache_info().maxsize

    @pytest.mark.parametrize("K", [128, 256])
    def test_a_gamma_positive_definite(self, K):
        A = a_gamma(K)
        lo = float(np.min(np.linalg.eigvalsh(A)))
        floor = 0.5 * min(5.0 * ZETA3 / (2.0 * math.pi**3),
                          93.0 * ZETA5 / (8.0 * math.pi**5)) * K**3
        assert lo >= floor


class TestPsi:
    def test_surviving_terms_at_centered_point(self):
        cfg = _cfg()
        A = _mid_point(cfg)
        pred = (A.eps**3 * cfg.gnorm**2 * c2(cfg.K, A.d) / (8.0 * A.b_abs**3)
                - cfg.lam * A.eps**2 * cfg.cstar)
        assert psi_leading(A, cfg) == pytest.approx(pred, rel=1e-12)
        assert psi_full(A, cfg) == pytest.approx(pred, rel=1e-10)

    def test_even_in_angles(self):
        cfg = _cfg()
        mid = _mid_point(cfg)
        box = _box(cfg)
        for fn in (psi_leading, psi_full):
            plus = fn(ReducedPoint(eps=mid.eps, a=0.0, d=mid.d,
                                   alpha_b=0.3 * box["alpha_b"][1],
                                   alpha_w=0.3 * box["alpha_w"][1]), cfg)
            minus = fn(ReducedPoint(eps=mid.eps, a=0.0, d=mid.d,
                                    alpha_b=-0.3 * box["alpha_b"][1],
                                    alpha_w=-0.3 * box["alpha_w"][1]), cfg)
            assert plus == pytest.approx(minus, rel=1e-10)

    def test_a_term_quadratic(self):
        cfg = _cfg()
        mid = _mid_point(cfg)
        base = psi_leading(mid, cfg)
        diffs = []
        amps = [1e-8, 2e-8, 4e-8]
        for a in amps:
            A = ReducedPoint(eps=mid.eps, a=a, d=mid.d, alpha_b=0.0, alpha_w=0.0)
            diffs.append(psi_leading(A, cfg) - base)
        slope = np.polyfit(np.log(amps), np.log(diffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_eps_criticality(self):
        cfg = _cfg()
        mid = _mid_point(cfg)
        es = eps_star(cfg, mid.d)
        h = 1e-6 * es

        def at(e):
            return psi_leading(
                ReducedPoint(eps=e, a=0.0, d=mid.d, alpha_b=0.0, alpha_w=0.0),
                cfg,
            )

        deriv = (at(es + h) - at(es - h)) / (2.0 * h)
        scale = abs(at(es)) / es
        assert abs(deriv) <= 1e-8 * scale

    def test_full_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            minimize_psi(_cfg(), mode="exact")

    @pytest.mark.parametrize("field, bad", [
        *((f, v) for f in ("eps", "a", "d", "alpha_b", "alpha_w")
          for v in (math.nan, math.inf, -math.inf)),
        ("eps", 0.0), ("eps", -1e-5), ("d", 0.0), ("d", -0.05),
        # |b| = sqrt(1 + d^2) - d rounds to 1 and to 0
        ("d", 1e-20), ("d", 1e10),
    ])
    def test_rejects_invalid_point(self, field, bad):
        cfg = _cfg()
        fields = dict(eps=1e-6, a=1e-7, d=0.05, alpha_b=1e-4, alpha_w=1e-2)
        fields[field] = bad
        for evaluate in (psi_leading, psi_full):
            with pytest.raises(DomainError):
                evaluate(ReducedPoint(**fields), cfg)


def _oracle_psi_leading(A, cfg):
    """psi_leading as it was written before the one-polynomial _psi."""
    C0, C2 = c0(cfg.K, A.d), c2(cfg.K, A.d)
    Ag = a_gamma(cfg.K)
    b = math.sqrt(1.0 + A.d * A.d) - A.d
    e = A.eps
    qhat = A.a * cfg.gnorm
    alpha = np.array([A.alpha_w, A.alpha_b])
    return (
        e * qhat * qhat * C0 / (2.0 * b)
        + e**3 * cfg.gnorm**2 * C2 / (8.0 * b**3)
        - cfg.lam * e * e * cfg.cstar
        + e**3 * float(alpha @ Ag @ alpha)
    )


def _oracle_psi_full(A, cfg):
    """psi_full as it was written before _full_kernels took (d, alpha_b,
    alpha_w): through a validated PlacedBubble."""
    sector = SectorConfig(cfg.K)
    P = PlacedBubble(eps=A.eps, a=A.a, q_hat=A.a * cfg.gnorm, w_abs=cfg.gnorm,
                     alpha_w=A.alpha_w, b_abs=A.b_abs, alpha_b=A.alpha_b,
                     beta_hat=A.alpha_w)
    babs, alpha_b = _in_plane(P.b_point)
    h_val = (_gamma_bb_closed(babs, alpha_b, sector)
             + _h0e_bb_closed(babs, alpha_b, sector))
    bv, w = P.b_point.as_array(), P.w_vec
    newton = _old_newton_derivs(bv, w, cfg.K)
    ext = _old_h0e_derivs(bv, w, cfg.K)
    grad = newton[0] + newton[1] + ext[0] + ext[1]
    hess = newton[2] + ext[2]
    qhat = A.a * cfg.gnorm
    e = A.eps
    return (e * qhat * qhat * h_val + e * e * qhat * grad + e**3 * hess
            - cfg.lam * e * e * cfg.cstar)


@pytest.mark.parametrize("K", [64, 128, 256])
@pytest.mark.parametrize("lam, gnorm, cstar, delta", [
    (1.0, 1.0, 0.25, 0.1), (0.5, 0.7, 0.01, 0.3), (2.0, 0.3, 1e-4, 0.05),
])
def test_psi_equals_oracles(K, lam, gnorm, cstar, delta):
    cfg = ReducedConfig(K=K, lam=lam, gnorm=gnorm, cstar=cstar, delta=delta)
    box = _box(cfg)
    rng = np.random.default_rng(K + int(1000 * delta))
    for _ in range(35):
        eps = math.exp(rng.uniform(*np.log(box["eps"])))
        A = ReducedPoint(eps=eps, a=rng.uniform(-1.0, 1.0) * _a_half_width(cfg, eps),
                         d=rng.uniform(*box["d"]),
                         alpha_b=rng.uniform(*box["alpha_b"]),
                         alpha_w=rng.uniform(*box["alpha_w"]))
        assert psi_leading(A, cfg) == _oracle_psi_leading(A, cfg)
        assert psi_full(A, cfg) == _oracle_psi_full(A, cfg)


#: any float: finite, tiny, huge, nan or +-inf
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]))


_CFG_ARGS = st.one_of(
    st.tuples(st.integers(2, 128).map(lambda h: 2 * h), st.floats(0.01, 10.0),
              st.floats(0.01, 10.0), st.floats(1e-4, 10.0), st.floats(0.002, 0.9)),
    st.tuples(st.one_of(st.integers(-2, 9), st.just(K_MAX + 2)), *[_ANY_FLOAT] * 4))


@settings(max_examples=100)
@given(_CFG_ARGS, st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
       st.one_of(st.none(), st.tuples(st.integers(0, 4), _ANY_FLOAT)))
# an eps whose cube overflowed, and an alpha_w whose form overflowed
@example((64, 1.0, 1.0, 0.25, 0.1), [0.5] * 5, (0, 1e300))
@example((64, 1.0, 1.0, 0.25, 0.1), [0.5] * 5, (4, 1e300))
def test_psi_finite_or_typed(cfg_args, fractions, moved):
    # a config, and a point of its box with at most one coordinate moved
    # anywhere, give a value, finite on the box, or raise DomainError or
    # UnsupportedError
    try:
        cfg = ReducedConfig(*cfg_args)
    except DomainError:
        return
    box = _box(cfg)
    x = {k: box[k][0] + t * (box[k][1] - box[k][0]) for k, t in zip(_ORDER, fractions)}
    eps = math.exp(x["log_eps"])
    coords = [eps, x["a_rel"] * _a_half_width(cfg, eps), x["d"], x["alpha_b"], x["alpha_w"]]
    if moved is not None:
        coords[moved[0]] = moved[1]
    try:
        A = ReducedPoint(*coords)
    except DomainError:
        return
    inside = in_box(A, cfg)
    for psi in (psi_leading, psi_full):
        try:
            value = psi(A, cfg)
        except (DomainError, UnsupportedError):
            continue
        except AccuracyError:
            # a numerical failure, typed, far from the box only
            assert not inside
            continue
        assert math.isfinite(value) or not inside


def test_psi_full_tiny_d_is_an_accuracy_error():
    # off the box, at |b| = 1 - 1e-9, h0's radicand (1 - |b|^2)^2 cancels in
    # round-off: psi_full raises the typed error where psi_leading, built
    # from the sums alone, still has a value
    cfg = ReducedConfig(K=4, lam=1.0, gnorm=1.0, cstar=0.25, delta=0.1)
    A = ReducedPoint(eps=1e-3, a=0.0, d=1e-9, alpha_b=0.0, alpha_w=0.0)
    assert not in_box(A, cfg)
    with pytest.raises(AccuracyError, match="radicand of h0"):
        psi_full(A, cfg)
    assert math.isfinite(psi_leading(A, cfg))


def _largest_gnorm(K, delta):
    """The largest gnorm ReducedConfig accepts at K and delta, by bisection."""
    lo, hi = 1.0, 1e300  # accepted, rejected
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        try:
            ReducedConfig(K=K, lam=1.0, gnorm=mid, cstar=0.25, delta=delta)
            lo = mid
        except DomainError:
            hi = mid


@pytest.mark.parametrize("K, delta", [(64, 0.1), (4, 0.999), (65536, 0.999),
                                      (65536, 0.1), (65536, 0.01)])
def test_psi_full_at_largest_gnorm(K, delta):
    # ReducedConfig's bound lets through a gnorm at which the kernels'
    # w-derivative sums overflow: psi_full at each corner of the box gives a
    # finite value or raises DomainError, and no warning
    cfg = ReducedConfig(K=K, lam=1.0, gnorm=_largest_gnorm(K, delta), cstar=0.25,
                        delta=delta)
    box = _box(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for corner in itertools.product((0, 1), repeat=len(_ORDER)):
            x = {k: box[k][i] for k, i in zip(_ORDER, corner)}
            eps = math.exp(x["log_eps"])
            A = ReducedPoint(eps=eps, a=x["a_rel"] * _a_half_width(cfg, eps), d=x["d"],
                             alpha_b=x["alpha_b"], alpha_w=x["alpha_w"])
            try:
                assert math.isfinite(psi_full(A, cfg))
            except DomainError:
                pass


class TestMinimization:
    def test_deterministic(self):
        cfg = _cfg()
        a1, d1 = minimize_psi(cfg, mode="leading")
        a2, d2 = minimize_psi(cfg, mode="leading")
        assert a1 == a2
        assert d1["value"] == d2["value"]

    def test_reports_convergence(self, monkeypatch):
        calls = []

        def counted(A, cfg):
            calls.append(A)
            return psi_leading(A, cfg)

        monkeypatch.setattr(energy, "psi_leading", counted)
        _, diag = minimize_psi(_cfg(), mode="leading")
        monkeypatch.undo()
        assert diag["converged"] is True
        assert 1 <= diag["sweeps_used"] < energy._SWEEPS
        assert sorted(diag) == sorted([
            "value", "on_boundary", "eps_ratio", "d_scaling", "a_rel", "alpha_b_rel",
            "alpha_w_rel", "sweeps_used", "converged", "evaluations"])
        # the descent's calls, then one for the reported value; the grid
        # makes none
        assert diag["evaluations"] == len(calls) - 1 > 0
        # a config whose descent takes three sweeps, then capped at one
        slow = ReducedConfig(K=64, lam=1.0, gnorm=1.0, cstar=0.05, delta=0.1)
        assert minimize_psi(slow, mode="leading")[1]["sweeps_used"] == 3
        monkeypatch.setattr(energy, "_SWEEPS", 1)
        _, capped = minimize_psi(slow, mode="leading")
        assert capped["sweeps_used"] == 1
        assert capped["converged"] is False

    def test_is_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="necklace.energy")
        _, diag = minimize_psi(_cfg(), mode="leading")
        assert [r.getMessage() for r in caplog.records] == [
            f"minimize_psi K=64 mode leading: {9**5} grid points, "
            f"{diag['sweeps_used']} sweeps, {diag['evaluations']} evaluations, "
            f"on boundary {diag['on_boundary']}"
        ]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)

    def test_full_mode(self):
        _, _, gnorm, cstar = default_model()  # the model quadrature, cached, untimed
        cfg = ReducedConfig(K=64, lam=1.0, gnorm=gnorm, cstar=cstar)
        t0 = time.perf_counter()
        argmin, diag = minimize_psi(cfg, mode="full")
        assert time.perf_counter() - t0 < 5.0
        assert math.isfinite(diag["value"])
        assert diag["value"] == psi_full(argmin, cfg)
        assert in_box(argmin, cfg)
        assert diag["converged"] is True

    @pytest.mark.parametrize("K, delta", [(64, 1e-3), (64, 1.71e-3), (128, 5e-4)])
    def test_full_mode_delta_bound(self, monkeypatch, K, delta):
        # below delta = (2 log K/(pi K))^2 the alpha_b box reaches past
        # theta0/2, where the closed forms stop: full mode is rejected before
        # its grid, and leading mode still runs
        assert delta < (2.0 * math.log(K) / (math.pi * K)) ** 2
        cfg = ReducedConfig(K=K, lam=1.0, gnorm=1.0, cstar=0.25, delta=delta)

        def no_grid(*args):
            raise AssertionError("the grid ran before the delta check")

        monkeypatch.setattr(energy, "_grid_values", no_grid)
        with pytest.raises(DomainError, match="full mode needs delta"):
            minimize_psi(cfg, mode="full")
        monkeypatch.undo()
        assert math.isfinite(minimize_psi(cfg, mode="leading")[1]["value"])

    def test_full_mode_just_above_delta_bound(self):
        cfg = ReducedConfig(K=64, lam=1.0, gnorm=1.0, cstar=0.25, delta=1.72e-3)
        check_full_mode(cfg)
        assert math.isfinite(minimize_psi(cfg, mode="full")[1]["value"])


def _loop_grid(cfg, mode):
    """The scalar grid stage minimize_psi ran before its table grid: Psi at
    each meshgrid row through the scalar objective, and the index and
    coordinates of the first row with the strictly smallest value."""
    objective = energy.psi_leading if mode == "leading" else psi_full
    box = _box(cfg)
    axes = {k: np.linspace(*box[k], 9) for k in _ORDER}
    mesh = np.meshgrid(*(axes[k] for k in _ORDER), indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    values, best_i, best_x, best_v = [], None, None, math.inf
    for i, row in enumerate(flat):
        x = dict(zip(_ORDER, (float(v) for v in row)))
        eps = math.exp(x["log_eps"])
        v = objective(ReducedPoint(
            eps=eps, a=x["a_rel"] * _a_half_width(cfg, eps), d=x["d"],
            alpha_b=x["alpha_b"], alpha_w=x["alpha_w"],
        ), cfg)
        values.append(v)
        if v < best_v:
            best_v, best_i, best_x = v, i, x
    return axes, np.array(values), best_i, best_x


class TestGridTables:
    @pytest.mark.parametrize("K", [64, 128, 256])
    @pytest.mark.parametrize("lam, gnorm, cstar, delta", [
        (1.0, 1.0, 0.25, 0.1), (0.5, 0.7, 0.01, 0.3), (2.0, 0.3, 1e-4, 0.05),
    ])
    def test_leading_equals_scalar_loop(self, K, lam, gnorm, cstar, delta):
        cfg = ReducedConfig(K=K, lam=lam, gnorm=gnorm, cstar=cstar, delta=delta)
        axes, ref, best, best_x = _loop_grid(cfg, "leading")
        grid = _grid_values(cfg, axes, "leading")
        assert grid.shape == (9,) * 5
        assert np.array_equal(grid.ravel(), ref)
        assert np.nanargmin(grid) == best
        assert _grid_start(cfg, _box(cfg), "leading") == best_x

    def test_full_equals_psi_full(self):
        cfg = ReducedConfig(K=64, lam=1.0, gnorm=0.7, cstar=0.25, delta=0.1)
        box = _box(cfg)
        axes = {k: np.linspace(*box[k], 9) for k in _ORDER}
        grid = _grid_values(cfg, axes, "full")
        rng = np.random.default_rng(11)
        for idx in rng.integers(0, 9, size=(500, 5)):
            x = {k: float(axes[k][i]) for k, i in zip(_ORDER, idx)}
            eps = math.exp(x["log_eps"])
            A = ReducedPoint(eps=eps, a=x["a_rel"] * _a_half_width(cfg, eps),
                             d=x["d"], alpha_b=x["alpha_b"],
                             alpha_w=x["alpha_w"])
            assert grid[tuple(idx)] == psi_full(A, cfg)

    def test_nan_entries_skipped_like_the_loop(self, monkeypatch):
        cfg = _cfg()
        _, _, best, best_x = _loop_grid(cfg, "leading")
        # poison the d of the unpatched winner, so the winner has to move
        real_c0 = energy.c0
        monkeypatch.setattr(energy, "c0", lambda K, d: (
            math.nan if d == best_x["d"] else real_c0(K, d)))
        axes, ref, best_nan, best_nan_x = _loop_grid(cfg, "leading")
        grid = _grid_values(cfg, axes, "leading")
        assert np.isnan(grid).sum() == 9**4
        assert np.array_equal(grid.ravel(), ref, equal_nan=True)
        assert best_nan != best
        assert np.nanargmin(grid) == best_nan
        assert _grid_start(cfg, _box(cfg), "leading") == best_nan_x

    def test_all_nan_grid_raises(self, monkeypatch):
        monkeypatch.setattr(energy, "c0", lambda K, d: math.nan)
        with pytest.raises(AccuracyError):
            minimize_psi(_cfg(), mode="leading")


class TestCStar:
    def test_precondition(self):
        with pytest.raises(DomainError):
            c_star(talenti_profile(), Point3(0.0, 0.0, 0.0))

    def test_bad_scale(self):
        profile, xi, _gnorm, _cstar = default_model()
        with pytest.raises(DomainError):
            c_star(profile, xi, scale=0.0)
        for scale in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                c_star(profile, xi, scale=scale)

    def test_cores_are_the_ring_bubbles(self):
        # the ring's bubbles in ring order, bit for bit the cores that were
        # once listed point by point on the profile; talenti's one bubble
        # (c = 1) is no core
        p = build_crown(16)
        _profile, xi, _gnorm, _cstar = default_model()
        cores = _cores(u_star_profile(p), xi)
        assert len(cores) == p.m
        for (c, R, w), pt in zip(cores, p.xi):
            old = pt.as_array() - xi.as_array()
            old_R = float(np.linalg.norm(old))
            assert c.tobytes() == old.tobytes()
            assert R == old_R
            assert w == min(0.15, 0.6 * old_R, max(0.03, 0.2 * old_R), 0.19)
        assert _cores(talenti_profile(), xi) == []

    @pytest.mark.parametrize("field", [
        lambda arr, p: u_star(arr, p) + psi_d1(arr, p),
        u_star,
    ], ids=["corrected", "bubbles_none"])
    def test_no_bubbles_is_unsupported(self, field):
        # a profile without bubbles never reaches c_star: its handle raises
        # when built, before the field is evaluated even once
        p = build_crown(16)
        calls = []

        def fn(arr):
            calls.append(arr)
            return field(arr, p)

        with pytest.raises(DomainError):
            c_star(ProfileHandle(fn=fn, bubbles=None), Point3(0.9, 0.0, 0.0))
        assert calls == []

    def test_general_angular_rule(self):
        # a profile not even in z3 gets the full-sphere angular rule: an
        # origin bubble and a core at (0.8, 0, 0) with mu = 0.05, turned
        # 0.7 rad about the z2 axis, keeps the planar pair's constant
        mu = 0.05
        conc = np.array([1.0, mu * mu])
        amp = np.array([TALENTI_AMP, -TALENTI_AMP * math.sqrt(mu)])
        # the zero between the centres: (1 - mu) t^2 - 1.6 t + 0.64 + mu^2 - mu = 0
        qa, qc = 1.0 - mu, 0.64 + mu * mu - mu
        t = (1.6 - math.sqrt(1.6**2 - 4.0 * qa * qc)) / (2.0 * qa)
        s, c = math.sin(0.7), math.cos(0.7)
        values = []
        for rot in (np.eye(3), np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])):
            x = np.array([[0.0, 0.0, 0.0], rot @ [0.8, 0.0, 0.0]])

            def fn(arr, x=x):
                return sum(A / np.sqrt(cb + np.einsum("...i,...i->...", arr - xb, arr - xb))
                           for xb, cb, A in zip(x, conc, amp))

            xi = Point3.from_array(rot @ [t, 0.0, 0.0])
            values.append(c_star(ProfileHandle(fn=fn, bubbles=(x, conc, amp)), xi))
        assert abs(xi.z3) > 0.1
        assert values[1] == pytest.approx(values[0], rel=1e-6)

    def test_is_logged(self, caplog, monkeypatch):
        # one DEBUG record: the parts, which sum to the returned total, every
        # point the profile was called at, and the shells _apply_bumps found
        # a core on
        mu = 0.05
        x = np.array([[0.0, 0.0, 0.0], [0.8, 0.0, 0.0]])
        conc = np.array([1.0, mu * mu])
        amp = np.array([TALENTI_AMP, -TALENTI_AMP * math.sqrt(mu)])
        qa, qc = 1.0 - mu, 0.64 + mu * mu - mu
        xi = Point3((1.6 - math.sqrt(1.6**2 - 4.0 * qa * qc)) / (2.0 * qa), 0.0, 0.0)
        points = []

        def fn(arr):
            points.append(np.asarray(arr).size // 3)
            return sum(A / np.sqrt(cb + np.einsum("...i,...i->...", arr - xb, arr - xb))
                       for xb, cb, A in zip(x, conc, amp))

        shells = []
        real = energy._apply_bumps
        monkeypatch.setattr(energy, "_apply_bumps",
                            lambda *args: shells.append(real(*args)) or shells[-1])
        caplog.set_level(logging.DEBUG, logger="necklace.energy")
        total = c_star(ProfileHandle(fn=fn, bubbles=(x, conc, amp)), xi, scale=0.5)
        assert 0 < sum(shells) < len(shells)
        [record] = caplog.records
        _scale, outer, cores, tail = record.args[:4]
        assert outer + cores + tail == total
        assert record.getMessage() == (
            f"c_star scale 0.5: outer {outer!r}, cores {cores!r}, "
            f"tail {tail!r}; {sum(points)} profile points, "
            f"{sum(shells)} of {len(shells)} shells bumped")

    def test_batches_give_the_same_bits(self, caplog, monkeypatch):
        # the integrand is evaluated _BATCH points at a time into one value
        # array: at scale 1 the constant and the DEBUG record are the same
        # for batches that split most shells and core balls, and for one
        # batch per shell or ball (each has fewer than 10^6 points here)
        profile, xi = _planar_pair()
        caplog.set_level(logging.DEBUG, logger="necklace.energy")
        values = [c_star(profile, xi).hex()]
        for batch in (2047, 10**6):
            monkeypatch.setattr(energy, "_BATCH", batch)
            values.append(c_star(profile, xi).hex())
        texts = [r.getMessage() for r in caplog.records]
        assert len(set(values)) == 1 and len(texts) == 3 and len(set(texts)) == 1

    def test_memory_is_bounded_by_the_sphere_rule(self, monkeypatch):
        # no point array outgrows a batch: with _BLOCK-point batches the
        # tracemalloc peak is within 4x the bytes (nodes and weights) of the
        # largest sphere rule; a shell's or core ball's full point array
        # took it to 8.2x
        profile, xi = _planar_pair()
        rules = []
        real = energy._sphere_rule

        def spy(*args):
            dirs, weights = real(*args)
            rules.append(dirs.nbytes + weights.nbytes)
            return dirs, weights

        monkeypatch.setattr(energy, "_sphere_rule", spy)
        monkeypatch.setattr(energy, "_BATCH", _BLOCK)
        tracemalloc.start()
        try:
            c_star(profile, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * max(rules)

    def test_model_constant(self):
        # the m=16 value the benchmark reference pins, to the last bit
        _profile, _xi, _gnorm, cstar = default_model()
        assert cstar == 0.23348704238119866

    def test_recorded_model_equals_computed(self):
        # default_model's recorded xi, gnorm and cstar are what the
        # quadrature computes, to the last bit and the sign of each zero
        _profile, xi, gnorm, cstar = default_model()
        _p, xi_c, gnorm_c, cstar_c = _computed_model()
        recorded = (xi.z1, xi.z2, xi.z3, gnorm, cstar)
        computed = (xi_c.z1, xi_c.z2, xi_c.z3, gnorm_c, cstar_c)
        assert recorded == computed
        assert [v.hex() for v in recorded] == [v.hex() for v in computed]

    def test_pruned_bump_factor_is_exact(self):
        # multiplying only the picked rows by the product of their cores'
        # factors gives the bits of multiplying every value by the product
        # over all cores, also where the core balls of the m = 32 ring overlap
        _profile, xi, _gnorm, _cstar = default_model()
        rng = np.random.default_rng(7)
        crossed = shared = 0
        for m in (16, 32):
            cores = _cores(u_star_profile(build_crown(m)), xi)

            def unpruned(y):
                facs = [1.0 - _smooth_cut(2.0 * np.linalg.norm(y - c, axis=-1) / w - 1.0)
                        for c, _R, w in cores]
                fac = np.ones(len(y))
                for f in facs:
                    fac *= f
                return fac, np.sum(np.array(facs) < 1.0, axis=0)

            for c, R, w in cores[:: max(1, len(cores) // 4)]:
                # random directions plus a cluster around the core's direction
                dirs = rng.normal(size=(4000, 3))
                dirs[:2000] = c / R + 0.5 * w / R * dirs[:2000]
                dirs /= np.linalg.norm(dirs, axis=-1)[:, None]
                for r in (R - 3.0 * w, R + 2.5 * w,
                          R - w - 1e-12, R - w, R - w + 1e-12,
                          R + w - 1e-12, R + w, R + w + 1e-12,
                          R - 0.7 * w, R - 0.2 * w, R, R + 0.6 * w):
                    y = r * dirs
                    ref, touching = unpruned(y)
                    vals, buf = rng.normal(size=len(y)), np.ones(len(y))
                    got = vals.copy()
                    _apply_bumps(got, dirs, r, _near_cores(dirs, r, r, cores), buf)
                    assert np.array_equal(got, vals * ref)
                    assert np.all(buf == 1.0)
                    crossed += int(np.any((ref > 0.0) & (ref < 1.0)))
                    shared += int(np.count_nonzero(touching > 1))
        assert crossed >= 16 and shared > 0

    @pytest.mark.parametrize("shape", [
        (0, 3), (1, 3), (_BLOCK - 1, 3), (_BLOCK, 3), (_BLOCK + 1, 3),
        (2 * _BLOCK + 5, 3), (240, 288, 3)])
    def test_shifted_is_broadcast_add(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        y = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        x = np.array([0.6712345678901234, -1e-17, 0.0])
        got = _shifted(y, np.tile(x, (_BLOCK, 1)))
        assert got.shape == y.shape
        assert got.tobytes() == (y + x).tobytes()

    def test_value_and_tail(self, refined_c_star):
        _profile, _xi, gnorm, cstar = default_model()
        assert cstar > 0.0
        assert gnorm > 0.0
        # the parts in c_star's DEBUG record make up the total, and the far
        # field's is negligible
        refined, (outer, cores, tail) = refined_c_star
        assert outer + cores + tail == pytest.approx(refined, rel=1e-12)
        assert tail / refined <= 1e-8

    def test_halving_steps(self, refined_c_star):
        _profile, _xi, _gnorm, cstar = default_model()
        refined, _parts = refined_c_star
        assert refined == 0.23348691414482722
        assert abs(refined - cstar) / refined <= 1e-6


def _planar_pair():
    """An origin bubble and a core at (0.8, 0, 0) with mu = 0.05, and the
    zero xi between their centres: a small c_star profile with one core."""
    mu = 0.05
    x = np.array([[0.0, 0.0, 0.0], [0.8, 0.0, 0.0]])
    conc = np.array([1.0, mu * mu])
    amp = np.array([TALENTI_AMP, -TALENTI_AMP * math.sqrt(mu)])
    qa, qc = 1.0 - mu, 0.64 + mu * mu - mu
    xi = Point3((1.6 - math.sqrt(1.6**2 - 4.0 * qa * qc)) / (2.0 * qa), 0.0, 0.0)

    def fn(arr):
        return sum(A / np.sqrt(cb + np.einsum("...i,...i->...", arr - xb, arr - xb))
                   for xb, cb, A in zip(x, conc, amp))

    return ProfileHandle(fn=fn, bubbles=(x, conc, amp)), xi


@pytest.fixture(scope="module")
def refined_c_star():
    """c_star of the m = 16 model at scale 2, and the outer, core and tail
    parts of its one DEBUG record."""
    profile, xi, _gnorm, _cstar = default_model()
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("necklace.energy")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        refined = c_star(profile, xi, scale=2.0)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [record] = records
    return refined, record.args[1:4]


#: _u6_integral's rule: outer radius, log-radial panels, Gauss order in
#: cos(theta) and uniform nodes in phi
_U6_RADIUS = 50.0
_U6_RADIAL_PANELS = 400
_U6_POLAR_ORDER = 24
_U6_AZIMUTH_NODES = 48


def _u6_integral(profile):
    """int profile^6 over R^3 by log-radial spherical quadrature plus the
    measured 1/|z|^6 tail: a closed-form check of _sphere_rule and gl_panels,
    the rules c_star uses."""
    R = _U6_RADIUS
    dirs, dweights = _sphere_rule([(-1.0, 1.0, _U6_POLAR_ORDER)], _U6_AZIMUTH_NODES)
    s_nodes, s_weights = gl_panels(
        np.linspace(math.log(1e-6), math.log(R), _U6_RADIAL_PANELS + 1), 8
    )
    r = np.exp(s_nodes)
    pts = r[:, None, None] * dirs
    vals = np.asarray(profile.fn(pts), dtype=float) ** 6
    main = float(np.sum((vals @ dweights) * s_weights * r**3))
    qR = np.asarray(profile.fn(R * dirs), dtype=float)
    tail = float(((qR * R) ** 6) @ dweights) / (3.0 * R**3)
    return main + tail


class TestU6:
    def test_talenti_closed_form(self):
        val = _u6_integral(talenti_profile())
        assert val == pytest.approx(3.0**1.5 * math.pi**2 / 4.0, rel=1e-6)
