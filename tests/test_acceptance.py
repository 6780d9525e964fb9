"""Run the ten end-to-end verification criteria once and assert each result."""
import json

import pytest

from necklace import acceptance


@pytest.fixture(scope="session")
def results():
    return {r.name: r for r in acceptance.run_all(quick=False)}


NAMES = [
    "series constants",
    "contour identity",
    "exponential asymptotics",
    "explicit correction",
    "inversion invariance",
    "kernel resummation",
    "derivative cross-checks",
    "image-bubble bounds",
    "reduced-energy scaling",
    "nodal mesh",
]


def test_all_criteria_present(results):
    assert list(results) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_criterion(results, name):
    res = results[name]
    detail = json.dumps(res.details, default=str, sort_keys=True)
    assert res.passed, f"{name} failed in {res.elapsed:.1f}s: {detail}"


def test_nodal_refinement_gap(results):
    details = results["nodal mesh"].details
    assert details["grad_min_gap"] == abs(details["grad_min_doubled"] - details["grad_min"])
    assert details["grad_min_gap"] <= 1e-12
