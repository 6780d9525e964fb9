import math
import time
from dataclasses import replace

import numpy as np
import pytest

from necklace import energy
from necklace.crown import (
    _BLOCK,
    build_crown,
    talenti_profile,
    u_star_corrected_profile,
    u_star_profile,
)
from necklace.energy import (
    _ORDER,
    ReducedConfig,
    ReducedPoint,
    _a_half_width,
    _apply_bumps,
    _box,
    _cores,
    _near_cores,
    _grid_start,
    _grid_values,
    _search_bounds,
    _shifted,
    _smooth_cut,
    a_gamma,
    c0,
    c2,
    c_star,
    default_config,
    default_model,
    default_model_parts,
    eps_star,
    in_box,
    j_reduced,
    minimize_psi,
    psi_full,
    psi_leading,
    u6_integral,
)
from necklace.errors import AccuracyError, DomainError, UnsupportedError
from necklace.geometry import Point3, SectorConfig
from necklace.kernels import (
    PlacedBubble,
    _gamma_bb_closed,
    _h0e_bb_closed,
    _h0e_derivs,
    _in_plane,
    _newton_derivs,
)
from necklace.trigsums import ZETA3, ZETA5


def _cfg(K=64):
    return ReducedConfig(K=K, lam=1.0, gnorm=1.0, cstar=0.25, delta=0.1)


def _mid_point(cfg):
    lo, hi = _box(cfg)["d"]
    d = 0.5 * (lo + hi)
    e_lo, e_hi = _box(cfg)["eps"]
    eps = min(max(eps_star(cfg, d), e_lo), e_hi)
    return ReducedPoint(eps=eps, a=0.0, d=d, alpha_b=0.0, alpha_w=0.0)


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
        with pytest.raises(DomainError):
            j_reduced(_mid_point(_cfg()), _cfg(), 1.0, mode="bogus")

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
        for evaluate in (psi_leading, psi_full,
                         lambda A, c: j_reduced(A, c, 1.0, mode="full")):
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
    newton = _newton_derivs(bv, w, sector)
    ext = _h0e_derivs(bv, w, sector)
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
        assert diag["grid_points"] == 9**5
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

    def test_full_mode(self):
        cfg = default_config(64)  # the model quadrature, cached, untimed
        t0 = time.perf_counter()
        argmin, diag = minimize_psi(cfg, mode="full")
        assert time.perf_counter() - t0 < 5.0
        assert math.isfinite(diag["value"])
        assert diag["value"] == psi_full(argmin, cfg)
        assert in_box(argmin, cfg)
        assert diag["mode"] == "full"
        assert diag["converged"] is True

    def test_j_reduced_affine_in_psi(self):
        cfg = _cfg()
        A = _mid_point(cfg)
        q6 = 3.0**1.5 * math.pi**2 / 4.0
        assert j_reduced(A, cfg, q6) == pytest.approx(
            q6 / 3.0 + 2.0 * math.pi * psi_leading(A, cfg), rel=1e-14
        )


def _loop_grid(cfg, mode):
    """The scalar grid stage minimize_psi ran before its table grid: Psi at
    each meshgrid row through the scalar objective, and the index and
    coordinates of the first row with the strictly smallest value."""
    objective = energy.psi_leading if mode == "leading" else psi_full
    bounds = _search_bounds(cfg)
    axes = {k: np.linspace(*bounds[k], 9) for k in _ORDER}
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
        assert _grid_start(cfg, _search_bounds(cfg), "leading") == best_x

    def test_full_equals_psi_full(self):
        cfg = ReducedConfig(K=64, lam=1.0, gnorm=0.7, cstar=0.25, delta=0.1)
        bounds = _search_bounds(cfg)
        axes = {k: np.linspace(*bounds[k], 9) for k in _ORDER}
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
        assert _grid_start(cfg, _search_bounds(cfg), "leading") == best_nan_x

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

    @pytest.mark.parametrize("make", [
        u_star_corrected_profile,
        lambda p: replace(u_star_profile(p), bubbles=None),
    ], ids=["corrected", "bubbles_none"])
    def test_no_bubbles_is_unsupported(self, make):
        # rejected before the profile is evaluated even once
        profile = make(build_crown(16))
        calls = []

        def fn(arr):
            calls.append(arr)
            return profile.fn(arr)

        with pytest.raises(UnsupportedError):
            c_star(replace(profile, fn=fn), Point3(0.9, 0.0, 0.0))
        assert calls == []

    def test_model_constant(self):
        # the m=16 value the benchmark reference pins, to the last bit
        _profile, _xi, _gnorm, cstar = default_model()
        assert cstar == 0.23348704238119866

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
                    _apply_bumps(got, y, r, _near_cores(dirs, r, r, cores), buf)
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

    def test_value_and_tail(self):
        _profile, _xi, gnorm, cstar = default_model()
        assert cstar > 0.0
        assert gnorm > 0.0
        parts = default_model_parts()
        total = parts["outer"] + parts["cores"] + parts["tail"]
        assert total == pytest.approx(cstar, rel=1e-12)
        assert parts["tail_fraction"] <= 1e-8

    def test_halving_steps(self):
        profile, xi, _gnorm, cstar = default_model()
        refined = c_star(profile, xi, scale=2.0)
        assert refined == 0.23348691414482722
        assert abs(refined - cstar) / refined <= 1e-6


class TestU6:
    def test_talenti_closed_form(self):
        val = u6_integral(talenti_profile())
        assert val == pytest.approx(3.0**1.5 * math.pi**2 / 4.0, rel=1e-6)
