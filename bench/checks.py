"""Correctness checks of the benchmark, as pure functions of the outputs and
the recorded references in ``reference.json``.

Every check returns a ``Check``; the runner counts each one as attempted and
each ``ok=False`` as failed.  The tolerances are those of the acceptance
criteria the outputs come from (criterion numbers in the docstrings).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Sequence

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rel_close(name: str, got: float, want: float, rel: float) -> Check:
    err = abs(got - want)
    return Check(name, err <= rel * abs(want),
                 f"got {got!r}, want {want!r}, rel err {err / abs(want):.3e} (tol {rel:g})")


def at_most(name: str, value: float, bound: float) -> Check:
    return Check(name, value <= bound, f"{value!r} <= {bound!r}")


def in_range(name: str, value: float, lo: float, hi: float) -> Check:
    return Check(name, lo <= value <= hi, f"{value!r} in [{lo!r}, {hi!r}]")


def equal(name: str, got, want) -> Check:
    return Check(name, got == want, f"got {got!r}, want {want!r}")


def bytes_match(name: str, data: bytes, want_sha: str) -> Check:
    got = sha256(data)
    return Check(name, got == want_sha, f"sha256 {got}, want {want_sha}")


# ---------------------------------------------------------------------------
# model


def model_checks(out: Dict[str, object], ref: dict) -> List[Check]:
    """xi, gnorm and cstar against the recorded m=16 constants (rel 1e-13)."""
    rel = ref["rel_tol"]
    xi, want = out["xi"], ref["xi"]
    err = math.dist(xi, want)
    norm = math.hypot(*want)
    return [
        Check("model.xi", err <= rel * norm,
              f"got {xi!r}, want {want!r}, rel err {err / norm:.3e} (tol {rel:g})"),
        rel_close("model.gnorm", out["gnorm"], ref["gnorm"], rel),
        rel_close("model.cstar", out["cstar"], ref["cstar"], rel),
    ]


# ---------------------------------------------------------------------------
# reduced


def argmin_checks(K: int, got: Dict[str, float], want: Dict[str, float],
                  widths: Dict[str, float], ref: dict) -> List[Check]:
    """The minimiser against the recorded one: each search coordinate within
    the golden-section tolerance (a fraction of the axis width), the value to
    a relative tolerance."""
    out = [rel_close(f"reduced.K{K}.value", got["value"], want["value"],
                     ref["value_rel_tol"])]
    frac = ref["coord_width_tol"]
    for key, width in widths.items():
        err = abs(got[key] - want[key])
        out.append(Check(f"reduced.K{K}.argmin.{key}", err <= frac * width,
                         f"got {got[key]!r}, want {want[key]!r}, "
                         f"err/width {err / width:.3e} (tol {frac:g})"))
    return out


def scaling_checks(K: int, s: Dict[str, float]) -> List[Check]:
    """The criterion-9 scaling statements for one K."""
    p = f"reduced.K{K}.scaling"
    return [
        in_range(f"{p}.eps_ratio_projected", s["eps_ratio_projected"], 0.99, 1.01),
        at_most(f"{p}.d_scaling", abs(s["d_scaling"]), 3.0),
        at_most(f"{p}.interior_axes", s["max_interior_rel"], 1e-2),
        Check(f"{p}.faces_lose", s["faces_lose"],
              "psi at the eps, d and a faces exceeds the minimum"),
    ]


def psi_checks(label: str, psi: float, parts: Dict[str, float],
               eps: float, qhat: float, lam: float, cstar: float,
               rel: float = 1e-12) -> List[Check]:
    """psi_full against the same expression assembled from the kernel layer.

    ``parts`` holds the diagonal value h, the directional gradient sum g and
    the mixed Hessian sum w of the kernel reports, each as ``<x>_closed`` and
    ``<x>_direct`` (direct image sums and finite differences).  The closed
    assembly must agree to ``rel`` of the largest term; the direct assembly
    within the criterion-6 (1e-11 per kernel value) and criterion-7 (1e-4 per
    gradient, 1e-3 per Hessian) tolerances propagated through the
    coefficients.
    """
    e = eps
    coef = (e * qhat * qhat, e * e * qhat, e ** 3)
    background = lam * e * e * cstar

    def assemble(kind: str) -> List[float]:
        return [coef[0] * parts[f"h_{kind}"], coef[1] * parts[f"g_{kind}"],
                coef[2] * parts[f"w_{kind}"], -background]

    closed = assemble("closed")
    scale = max(abs(t) for t in closed)
    err_c = abs(psi - math.fsum(closed))
    direct = math.fsum(assemble("direct"))
    tol_d = (abs(coef[0]) * 2e-11 + abs(coef[1]) * 4e-4 + abs(coef[2]) * 2e-3
             + rel * scale)
    err_d = abs(psi - direct)
    return [
        Check(f"{label}.closed_assembly", err_c <= rel * scale,
              f"|psi_full - assembled| = {err_c:.3e}, tol {rel * scale:.3e}"),
        Check(f"{label}.direct_assembly", err_d <= tol_d,
              f"|psi_full - direct assembly| = {err_d:.3e}, tol {tol_d:.3e}"),
    ]


# ---------------------------------------------------------------------------
# nodal


def nodal_checks(out: Dict[str, object], ref: dict) -> List[Check]:
    """Residuals, grid-independence of the gradient minimum (criterion 10),
    point counts and the CLI CSV bytes against the recorded run."""
    checks: List[Check] = []
    for res in ("96", "192"):
        m = out["meshes"][res]
        checks.append(at_most(f"nodal.res{res}.max_residual", m["max_residual"], 1e-8))
        checks.append(equal(f"nodal.res{res}.points", m["points"], ref["points"][res]))
        checks.append(at_most(f"nodal.res{res}.grad_min_vs_reference",
                              abs(m["grad_min"] - ref["grad_min"][res]), 1e-6))
    g96, g192 = out["meshes"]["96"]["grad_min"], out["meshes"]["192"]["grad_min"]
    checks.append(Check("nodal.grad_min_positive", g96 > 0.0, f"{g96!r} > 0"))
    checks.append(at_most("nodal.grad_min_refinement", abs(g192 - g96), 1e-6))
    checks.append(bytes_match("nodal.cli_csv", out["cli_csv"], ref["cli_csv_sha256"]))
    return checks


# ---------------------------------------------------------------------------
# identities


def cli_checks(outputs: Dict[str, bytes], ref: Dict[str, str]) -> List[Check]:
    """CLI bytes at the defaults against the recorded bytes."""
    return [Check(f"identities.cli.{cmd}", outputs[cmd] == want.encode(),
                  f"got {outputs[cmd]!r}, want {want.encode()!r}")
            for cmd, want in ref.items()]


def max_rel(pairs: Iterable[Sequence[float]]) -> float:
    return max(abs(got - want) / abs(want) for got, want in pairs)


def fingerprint(obj) -> str:
    """A digest of a pass's outputs, bit for bit, used to check that every
    pass of a run computed the same thing."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"array{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, bytes):
            h.update(b"bytes%d:" % len(x) + x)
        elif isinstance(x, dict):
            h.update(b"{")
            for k in sorted(x, key=str):
                feed(str(k))
                feed(x[k])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif dataclasses.is_dataclass(x):
            feed({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
        else:
            h.update(f"{type(x).__name__}:{x!r};".encode())

    feed(obj)
    return h.hexdigest()
