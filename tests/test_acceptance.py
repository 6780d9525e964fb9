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


def test_model_table_checked_against_the_quadrature(monkeypatch):
    # each recorded constant is one check at distance 0 from the computed
    # one; a constant one ulp off fails its check alone
    checks = acceptance._model_constants()
    assert len(checks) == 5 and all(c.passed and c.measured == 0.0 for c in checks)
    profile, xi, gnorm, cstar = acceptance._computed_model()
    monkeypatch.setattr(acceptance, "_computed_model",
                        lambda: (profile, xi, gnorm, math.nextafter(cstar, 1.0)))
    failed = [c.quantity for c in acceptance._model_constants() if not c.passed]
    assert failed == ["|computed - recorded| cstar"]


def test_quick_run_trusts_the_table(monkeypatch):
    # verify --quick runs no quadrature; the full run computes the model
    # once, before the criteria
    seen = []
    monkeypatch.setattr(acceptance, "_computed_model", lambda: seen.append("model"))
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("probe", lambda quick: seen.append(quick) or [Check("q", 0.0, "<=", 1.0)], None),))
    for quick in (True, False):
        assert [r.passed for r in acceptance.run_all(quick=quick)] == [True]
    assert seen == [True, "model", False]
