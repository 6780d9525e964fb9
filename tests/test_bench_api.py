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
    psi_full,
)
from necklace.geometry import SectorConfig  # noqa: E402
from necklace.kernels import place_bubble  # noqa: E402
from necklace.nodal import nodal_mesh  # noqa: E402
from necklace.trigsums import s1_contour  # noqa: E402


def test_traced_profile():
    params = build_crown(16)
    profile = workloads._profile(params, spans.NullTracer())
    assert profile.bubbles is params._bubbles
    z = np.array([[0.3, 0.1, 0.2], [0.9, 0.05, 0.0]])
    assert np.array_equal(profile.fn(z), u_star(z, params))


def test_identities_placement():
    # the identities workload places its bubble on the traced profile, which
    # must keep the bubbles place_bubble reads its derivatives from
    params = build_crown(16)
    tracer = spans.NullTracer()
    profile = workloads._profile(params, tracer)
    xi = workloads._anchor(params, profile, tracer)
    K = workloads.IDENT_K
    logK = math.log(K)
    dval = (logK - 0.5 * math.log(logK)) / K
    babs = math.sqrt(1.0 + dval * dval) - dval
    A = place_bubble(K**-3.0, 0.0, babs, 0.0, 0.0, profile, xi)
    assert A.profile is profile
    assert math.isfinite(A.q_hat) and A.w_abs > 0.0


def test_workload_inputs_are_admitted(tmp_path):
    # the SumSpec, ReducedConfig, ReducedPoint and PlacedBubble inputs the
    # reduced and identities workloads build, their s1_contour calls and
    # the anchor's radial_nodal_root call: a rule tightened past any of
    # them fails here, not first in the benchmark
    cases = workloads.reduced_prepare(1, str(tmp_path))
    assert [len(c.points) for c in cases] == [workloads.REDUCED_BATCH] * len(workloads.KS)
    inp = workloads.identities_prepare(1, str(tmp_path))
    assert len(inp.bubbles) == 12 and len(inp.float_sums) == len(inp.mp_sums) == 12
    assert all(s1_contour(n, x) > 0.0 for n, x in inp.contour)
    params = build_crown(workloads.M)
    tracer = spans.NullTracer()
    xi = workloads._anchor(params, workloads._profile(params, tracer), tracer)
    assert abs(u_star(xi.as_array(), params)) < 1e-9


def test_nodal_mesh_call():
    # the nodal workload's call, with its box, at the lowest resolution
    params = build_crown(16)
    profile = workloads._profile(params, spans.NullTracer())
    mesh = nodal_mesh(params, profile, workloads.NODAL_BBOX, 16)
    assert len(mesh) > 0


def test_sample_bubble():
    A = workloads._sample_bubble(64, np.random.default_rng(0))
    assert A.eps == 64**-3.0
    assert A.alpha_w == A.beta_hat


@pytest.mark.parametrize("K", [64, 128, 256])
def test_admissible_box_is_the_package_box(K):
    cfg = ReducedConfig(K=K, lam=1.0, gnorm=1.0, cstar=0.25, delta=workloads.DELTA)
    box, ours = workloads.admissible_box(K), _box(cfg)
    assert box.pop("a") == ours.pop("a_rel")
    assert ours.pop("log_eps") == tuple(math.log(v) for v in box["eps"])
    assert box == ours


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
