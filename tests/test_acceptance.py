"""Run the ten end-to-end verification criteria once and assert each result."""
import math

import pytest

from necklace import acceptance
from necklace.acceptance import Check


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
    failing = [(*c, c.margin) for c in res.checks if not c.passed]
    assert res.passed, (f"{name} failed in {res.elapsed:.1f}s: failing checks "
                        f"{failing}, error {res.error}")


@pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
def test_check_ops(op):
    # below, at and above the bound 1.0: an upper bound (<=, <) holds below
    # it, a lower one above it, and a non-strict one on it, with margin 0
    below, at, above = (Check("q", v, op, 1.0) for v in (0.5, 1.0, 2.0))
    upper = op.startswith("<")
    assert (below.passed, at.passed, above.passed) == (upper, op.endswith("="), not upper)
    assert (below.margin, at.margin, above.margin) == (
        (0.5, 0.0, -1.0) if upper else (-0.5, 0.0, 1.0))
    nan = Check("q", math.nan, op, 1.0)
    assert not nan.passed and math.isnan(nan.margin)


def test_run_records_error_and_budget():
    def crash(quick):
        raise ValueError("boom")

    res = acceptance._run(("crash", crash, 5.0), quick=True)
    assert (res.passed, res.error) == (False, "ValueError: boom")
    assert [(c.quantity, c.op, c.bound) for c in res.checks] == [("elapsed_s", "<", 5.0)]
    res = acceptance._run(("late", lambda quick: [Check("q", 0.0, "<=", 1.0)], 0.0), True)
    assert not res.passed and res.error is None and res.checks[0].passed
