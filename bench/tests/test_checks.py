"""Self-tests of the benchmark's checks: a wrong output must count as a failed
check.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks as C  # noqa: E402
import spans  # noqa: E402

REF = C.load_reference()


def _failed(checks):
    return [c.name for c in checks if not c.ok]


def _model_out(**change):
    out = {k: REF["model"][k] for k in ("xi", "gnorm", "cstar")}
    out.update(change)
    return out


def test_recorded_model_passes():
    assert _failed(C.model_checks(_model_out(), REF["model"])) == []


def test_cstar_off_by_rel_1e_10_fails():
    bad = _model_out(cstar=REF["model"]["cstar"] * (1.0 + 1e-10))
    assert _failed(C.model_checks(bad, REF["model"])) == ["model.cstar"]


def _nodal_out(csv: bytes):
    ref = REF["nodal"]
    meshes = {res: {"points": ref["points"][res], "max_residual": 1e-15,
                    "grad_min": ref["grad_min"][res]} for res in ("96", "192")}
    return {"meshes": meshes, "cli_csv": csv}


@pytest.fixture(scope="module")
def nodal_csv(tmp_path_factory):
    """The CSV of ``necklace nodal`` at its defaults (about a second)."""
    from necklace import cli

    path = tmp_path_factory.mktemp("nodal") / "nodal.csv"
    assert cli.run(["nodal", "--out", str(path)]) == 0
    return path.read_bytes()


def test_recorded_nodal_csv_passes(nodal_csv):
    assert _failed(C.nodal_checks(_nodal_out(nodal_csv), REF["nodal"])) == []


def test_nodal_csv_with_one_changed_byte_fails(nodal_csv):
    i = len(nodal_csv) // 2
    bad = nodal_csv[:i] + bytes([nodal_csv[i] ^ 1]) + nodal_csv[i + 1:]
    assert _failed(C.nodal_checks(_nodal_out(bad), REF["nodal"])) == ["nodal.cli_csv"]


@pytest.fixture(scope="module")
def psi_case():
    """psi_full and its kernel-layer parts at one admissible K=64 point."""
    import workloads as W
    from necklace.energy import ReducedConfig, ReducedPoint, psi_full

    m = REF["model"]
    cfg = ReducedConfig(K=64, lam=1.0, gnorm=m["gnorm"], cstar=m["cstar"], delta=0.1)
    box = W.admissible_box(64)
    eps = math.sqrt(box["eps"][0] * box["eps"][1])
    A = ReducedPoint(eps=eps, a=0.3 * eps * math.log(64) / 0.1, d=sum(box["d"]) / 2,
                     alpha_b=0.25 * box["alpha_b"][1], alpha_w=-0.5 * box["alpha_w"][1])
    return psi_full(A, cfg), W.psi_parts(A, cfg), (A.eps, A.a * cfg.gnorm, cfg.lam, cfg.cstar)


def test_psi_full_passes(psi_case):
    psi, parts, args = psi_case
    assert _failed(C.psi_checks("psi", psi, parts, *args)) == []


def test_psi_full_off_by_rel_1e_6_fails(psi_case):
    psi, parts, args = psi_case
    assert "psi.closed_assembly" in _failed(C.psi_checks("psi", psi * (1 + 1e-6), parts, *args))


def test_fingerprint_sees_one_bit():
    import numpy as np

    a = np.linspace(0.0, 1.0, 7)
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert C.fingerprint({"x": a}) != C.fingerprint({"x": b})
    assert C.fingerprint({"x": a, 1: [0.5]}) == C.fingerprint({1: [0.5], "x": a.copy()})


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        tr.wrap("inner", lambda arr: arr)([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    s = spans.summarize(tr.spans)
    assert s["inner"]["calls"] == 2 and s["inner"]["points"] == 2
    assert math.isclose(s["outer"]["self_s"],
                        s["outer"]["total_s"] - s["inner"]["total_s"], abs_tol=1e-12)


def test_reference_seconds_scales_work_and_skips_probes():
    import probe

    p = probe.SpeedProbe({"interp": 1.0}, {"interp": 1.0})
    p.samples = [(0.0, 0.1, 2.0), (1.0, 1.1, 2.0), (2.0, 2.1, 4.0)]
    # two stretches of 0.9 s of work, each at twice the reference speed
    assert math.isclose(p.reference_seconds(0.0, 2.1), 3.6)
    assert math.isclose(p.probe_seconds(0.0, 2.1), 0.3)
