"""Command-line entry point: reproducible CSV/JSON reports for the sum,
ansatz, nodal, kernel and energy modules, plus the verification suite."""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
import warnings
from itertools import chain, groupby
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import energy
from .crown import build_crown, q_mid_lower, u_star_profile
from .energy import ReducedConfig, minimize_psi
from .errors import (
    AccuracyError,
    DomainError,
    NotFoundError,
    RegimeWarning,
    UnsupportedError,
)
from .geometry import Point3, SectorConfig
from .kernels import gamma_bb, h0e_bb
from .nodal import nodal_mesh
from .trigsums import VARIANTS, SumSpec, csc_asym, s_asym, sum_direct

#: rows of the nodal table converted to Python values and written at a time
_ROWS = 2048


def _csv_lines(rows: Iterable[Sequence[object]]) -> str:
    """The CSV lines of ``rows``, each ended by a newline: %.17g for a
    float, %s for anything else.  Each run of consecutive rows with the same
    tuple of value types is made by one % operation, its row format
    repeated once per row on the run's values."""
    lines = []
    for kinds, run in groupby(rows, lambda row: tuple(map(type, row))):
        run = list(run)
        fmt = ",".join(["%.17g" if issubclass(t, float) else "%s" for t in kinds]) + "\n"
        lines.append(fmt * len(run) % tuple(chain.from_iterable(run)))
    return "".join(lines)


def _json_value(value):
    """``value`` with each non-finite float in it, nested in dicts, lists and
    tuples too, replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_json_value, value))
    return value


def _emit(columns: Sequence[str], batches: Iterable[List[Sequence[object]]], fmt: str,
          out: Optional[str]) -> None:
    """Write the rows of ``batches``, lists of rows each one value per
    column, a batch at a time: as CSV with a header line (nothing at all
    without rows), or as a JSON list of objects, with null for a nan or an
    infinity (RFC 8259 has neither).  The JSON text is json.dumps's for the
    whole list with indent=2 and sorted keys: each object dumped alone, its
    lines indented one level more."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            encode = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).encode
            opening = "[\n"
            for rows in batches:
                if rows:
                    fh.write(opening + ",\n".join(
                        "  " + encode(dict(zip(columns, _json_value(row)))).replace("\n", "\n  ")
                        for row in rows))
                    opening = ",\n"
            fh.write("[]\n" if opening == "[\n" else "\n]\n")
            return
        header = ",".join(columns) + "\n"
        for rows in batches:
            if rows and header:
                fh.write(header)
                header = ""
            fh.write(_csv_lines(rows))


def _config_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> List[str]:
    """The option tokens of the key=value config file: ``--key value`` per
    line, or ``--key`` alone for a switch set to true."""
    tokens: List[str] = []
    try:
        with open(args.config) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        parser.error(f"cannot read config file {args.config!r}: {exc.strerror}")
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            parser.error(f"malformed config line: {line!r}")
        if key not in vars(args):
            parser.error(f"unknown config key: {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            tokens += [flag, value]
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            parser.error(f"bad value for {key!r}: {value!r}")
    return tokens


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent form, or
    -inf/-nan, as an option's value.  argparse's own pattern for negative
    numbers has no exponent, so "--x -1e-3" failed with "expected one
    argument".  Subparsers are built with the same class."""

    _NEGATIVE_NUMBER = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key=value file merged under the flags")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="necklace",
        description="ring-of-bubbles numerics: sums, kernels, nodal sets, "
                    "reduced energy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sums", help="trigonometric sums and their asymptotics")
    p.add_argument("--variant", choices=VARIANTS, default="alt_hat")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--x", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("ansatz", help="ring parameters and midpoint report")
    p.add_argument("--m", type=int, default=16)
    _add_common(p)

    p = sub.add_parser("nodal", help="zero-set point cloud of the ring profile")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--bbox", type=float, default=2.5,
                   help="half-width of the cubic box")
    p.add_argument("--res", type=int, default=96)
    _add_common(p)

    p = sub.add_parser("kernels", help="diagonal kernel reports")
    p.add_argument("--K", type=int, default=64)
    p.add_argument("--b-abs", dest="b_abs", type=float, default=0.9)
    p.add_argument("--alpha-b", dest="alpha_b", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("energy", help="reduced-energy minimization")
    p.add_argument("--K", type=int, default=64)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--mode", choices=("leading", "full"), default="leading")
    _add_common(p)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true")
    _add_common(p)
    return parser


def _cmd_sums(args) -> int:
    spec = SumSpec(args.variant, args.k, args.n, args.x)
    direct = sum_direct(spec)
    asym = math.nan
    if args.x == 0.0:
        try:
            asym = csc_asym(args.variant, args.k, args.n)
        except (DomainError, UnsupportedError):
            asym = math.nan
    elif args.variant == "alt":
        # an estimate outside its regime is still printed, with one
        # "warning:" line on stderr in place of Python's warning report
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RegimeWarning)
            asym = s_asym(args.k, args.n, args.x)
        for w in caught:
            sys.stderr.write(f"warning: {w.message}\n")
    rel = abs(asym / direct - 1.0) if (direct != 0.0 and not math.isnan(asym)) else math.nan
    _emit(("variant", "k", "n", "x", "direct", "asymptotic", "rel_err"),
          [[(args.variant, args.k, args.n, args.x, direct, asym, rel)]],
          args.format, args.out)
    return 0


def _cmd_ansatz(args) -> int:
    params = build_crown(args.m)
    rep = q_mid_lower(params)
    _emit(("m", "mu", "d", "ring_radius", "mid_value", "mid_lower_bound"),
          [[(params.m, params.mu, params.d, params.ring_radius, rep.value,
             rep.lower_bound)]],
          args.format, args.out)
    return 0


def _cmd_nodal(args) -> int:
    params = build_crown(args.m)
    profile = u_star_profile(params)
    mesh = nodal_mesh(params, profile, args.bbox, args.res)
    batches = (np.column_stack((mesh.points[lo:lo + _ROWS], mesh.values[lo:lo + _ROWS],
                                mesh.gradients[lo:lo + _ROWS])).tolist()
               for lo in range(0, len(mesh), _ROWS))
    _emit(("z1", "z2", "z3", "value", "grad_norm"), batches, args.format, args.out)
    return 0


def _cmd_kernels(args) -> int:
    cfg = SectorConfig(args.K)
    if not (math.isfinite(args.b_abs) and math.isfinite(args.alpha_b)):
        raise DomainError(f"--b-abs and --alpha-b must be finite, got "
                          f"{args.b_abs!r} and {args.alpha_b!r}")
    b = Point3(args.b_abs * math.cos(args.alpha_b),
               args.b_abs * math.sin(args.alpha_b), 0.0)
    rows = []
    for name, fn in (("gamma_bb", gamma_bb), ("h0e_bb", h0e_bb)):
        rep = fn(b, cfg)
        rows.append((name, args.K, args.b_abs, args.alpha_b, rep.direct,
                     rep.closed_form, rep.asymptotic, rep.abs_err_dc,
                     rep.abs_err_ca))
    _emit(("kernel", "K", "b_abs", "alpha_b", "direct", "closed_form",
           "asymptotic", "abs_err_dc", "abs_err_ca"), [rows], args.format, args.out)
    return 0


def _cmd_energy(args) -> int:
    _, _, gnorm, cstar = energy.default_model()
    argmin, diag = minimize_psi(ReducedConfig(args.K, args.lam, gnorm, cstar, args.delta),
                                mode=args.mode)
    _emit(("K", "lam", "delta", "mode", "eps", "a", "d", "alpha_b", "alpha_w",
           "value", "eps_ratio", "d_scaling", "on_boundary"),
          [[(args.K, args.lam, args.delta, args.mode, argmin.eps, argmin.a,
             argmin.d, argmin.alpha_b, argmin.alpha_w, float(diag["value"]),
             float(diag["eps_ratio"]), float(diag["d_scaling"]),
             ";".join(diag["on_boundary"]))]],
          args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    # imported here, so that no other command compiles and runs the checks' module
    from . import acceptance

    results = acceptance.run_all(quick=args.quick)
    columns = ("criterion", "name", "status", "elapsed_s")
    rows = [(i + 1, r.name, "pass" if r.passed else "FAIL", r.elapsed)
            for i, r in enumerate(results)]
    if args.format == "json":
        columns += ("checks", "error")
        rows = [row + ([{**c._asdict(), "margin": c.margin} for c in r.checks], r.error)
                for row, r in zip(rows, results)]
    _emit(columns, [rows], args.format, args.out)
    if args.out:
        for criterion, name, status, *_ in rows:
            sys.stdout.write(f"{criterion:>2} {name:<28} {status}\n")
    return 0 if all(r.passed for r in results) else 1


_HANDLERS = {
    "sums": _cmd_sums,
    "ansatz": _cmd_ansatz,
    "nodal": _cmd_nodal,
    "kernels": _cmd_kernels,
    "energy": _cmd_energy,
    "verify": _cmd_verify,
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser that run reuses, built on its first call, not at import:
    a build costs far more than a parse, as argparse formats each argument's
    usage as it adds it.  A parse leaves no state in the parser, so each run
    reads as it would with a fresh build_parser()."""
    return build_parser()


def run(argv: Sequence[str]) -> int:
    parser = _parser()
    argv = list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's options go before the command line's, so flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_args(args, parser) + argv[at:])
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return _HANDLERS[args.command](args)
    except (DomainError, UnsupportedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (AccuracyError, NotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
