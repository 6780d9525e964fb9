"""The package calls that the benchmark's workloads make, at their cheapest
inputs, so that a change to a signature the benchmark uses fails here and
not only when the benchmark runs."""
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from necklace import acceptance  # noqa: E402
from necklace.crown import build_crown, u_star  # noqa: E402
from necklace.energy import (  # noqa: E402
    ReducedConfig,
    ReducedPoint,
    _box,
    _search_bounds,
    psi_full,
)
from necklace.geometry import SectorConfig  # noqa: E402


def test_traced_profile():
    params = build_crown(16)
    profile = workloads._profile(params, spans.NullTracer())
    assert profile.tag == "u_star"
    assert profile.bubbles is params._bubbles
    z = np.array([[0.3, 0.1, 0.2], [0.9, 0.05, 0.0]])
    assert np.array_equal(profile.fn(z), u_star(z, params))


def test_sample_bubble():
    A = workloads._sample_bubble(64, np.random.default_rng(0))
    assert A.eps == 64**-3.0
    assert A.alpha_w == A.beta_hat


@pytest.mark.parametrize("K", [64, 128, 256])
def test_admissible_box_is_the_package_box(K):
    cfg = ReducedConfig(K=K, lam=1.0, gnorm=1.0, cstar=0.25, delta=workloads.DELTA)
    box = workloads.admissible_box(K)
    assert box.pop("a") == _search_bounds(cfg)["a_rel"]
    assert box == _box(cfg)


@pytest.mark.parametrize("K", [32, 64])
def test_sample_bubble_is_criterion_7s(K):
    ours = workloads._sample_bubble(K, np.random.default_rng(3))
    theirs = acceptance._sample_bubble(K, np.random.default_rng(3))
    for f in dataclasses.fields(ours):
        assert np.array_equal(getattr(ours, f.name), getattr(theirs, f.name)), f.name


def test_psi_parts():
    cfg = ReducedConfig(K=64, lam=1.0, gnorm=1.0, cstar=0.25, delta=0.1)
    logK = math.log(64)
    A = ReducedPoint(eps=64**-3.0, a=1e-7, d=(logK - 0.5 * math.log(logK)) / 64,
                     alpha_b=1e-4, alpha_w=1e-2)
    parts = workloads.psi_parts(A, cfg)
    got = checks.psi_checks("psi", psi_full(A, cfg), parts, A.eps, A.a * cfg.gnorm,
                            cfg.lam, cfg.cstar)
    assert [c.name for c in got if not c.ok] == []


def test_sector_theta0():
    assert SectorConfig(64).theta0 == pytest.approx(math.pi / 64)
