import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklace import acceptance, cli, energy
from necklace.cli import build_parser, run
from necklace.errors import AccuracyError, DomainError, NotFoundError, UnsupportedError
from necklace.errors import RegimeWarning
from necklace.geometry import K_MAX
from necklace.trigsums import N_MAX, SumSpec, s_asym, sum_direct


def _read(path):
    return path.read_text()


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON (RFC 8259)")


def _strict_json(text):
    """json.loads, failing on the NaN, Infinity and -Infinity that Python's
    json reads and writes by default."""
    return json.loads(text, parse_constant=_no_constant)


class TestParsing:
    def test_requires_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["sums", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()


def _run_sequence(tmp):
    """(exit code, stdout, stderr, output bytes) of each of a sequence of
    in-process runs, in the new directory ``tmp``: each report command,
    help, a usage error, a config file and a domain error."""
    tmp.mkdir()
    cfgfile = tmp / "k.cfg"
    cfgfile.write_text("K=32\nalpha_b=-1e-3\n")
    calls = [["sums"], ["ansatz"], ["kernels"], ["nodal", "--format", "json"],
             ["--help"], ["sums", "--bogus", "1"], ["kernels", "--config", str(cfgfile)],
             ["energy", "--K", "3"]]
    seen = []
    for i, argv in enumerate(calls):
        path = tmp / f"{i}.out"
        argv = argv + ["--out", str(path)] if i < 4 else argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        data = path.read_bytes() if path.exists() else None
        seen.append((code, out.getvalue(), err.getvalue(), data))
    return seen


def test_run_reuses_one_parser(monkeypatch, tmp_path):
    # run builds one parser per process and gives every call's exit code,
    # stdout, stderr and output bytes that a fresh build_parser() gives
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    reused = _run_sequence(tmp_path / "reused")
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", build)
    assert _run_sequence(tmp_path / "fresh") == reused
    assert [r[0] for r in reused] == [0, 0, 0, 0, 0, 2, 0, 2]
    assert all(r[3] for r in reused[:4]) and reused[4][1].startswith("usage: necklace")


class TestSums:
    def test_csv_row(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = run(["sums", "--variant", "alt_hat", "--k", "1", "--n", "64",
                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        header, row = _read(out).strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        expected = sum_direct(SumSpec("alt_hat", 1, 64))
        assert float(cols["direct"]) == pytest.approx(expected, rel=1e-15)
        assert float(cols["rel_err"]) < 1e-2

    def test_json_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "row.json"
        code = run(["sums", "--variant", "alt", "--k", "3", "--n", "50",
                    "--x", "0.2", "--format", "json", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(_read(out))
        assert payload[0]["variant"] == "alt"
        assert math.isfinite(payload[0]["direct"])

    def test_json_nan_is_null(self, capsys):
        # the CSV row's nan (test below) is null in JSON, which has no nan
        assert run(["sums", "--variant", "odd", "--k", "1", "--x", "0",
                    "--format", "json"]) == 0
        row, = _strict_json(capsys.readouterr().out)
        assert row["asymptotic"] is None and row["rel_err"] is None
        assert row["direct"] == sum_direct(SumSpec("odd", 1, 64))

    def test_unsupported_asymptotic_is_nan(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = run(["sums", "--variant", "odd", "--k", "1", "--n", "64",
                    "--x", "0", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        header, row = _read(out).strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["asymptotic"] == "nan"
        assert float(cols["direct"]) == sum_direct(SumSpec("odd", 1, 64))

    @pytest.mark.parametrize("repeat", [1, 2])
    def test_outside_regime_is_one_warning_line(self, tmp_path, capsys, repeat):
        # every run reports it, as one line without Python's file and source
        out = tmp_path / "row.csv"
        for _ in range(repeat):
            code = run(["sums", "--variant", "alt", "--x", "0.01", "--n", "64",
                        "--out", str(out)])
            assert code == 0
            err = capsys.readouterr().err
            assert err == "warning: n*x = 0.64 < 5: outside the asymptotic regime\n"
        header, row = _read(out).strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        with pytest.warns(RegimeWarning):
            expected = s_asym(1, 64, 0.01)
        assert float(cols["asymptotic"]) == expected

    def test_inside_regime_writes_no_warning(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sums", "--variant", "alt", "--k", "3", "--n", "50",
                        "--x", "0.2", "--out", str(tmp_path / "row.csv")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_underflowing_alternating_sum(self, capsys):
        assert run(["sums", "--variant", "alt", "--n", "512", "--x", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1] == "alt,1,512,100,0,0,nan"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["sums", "--variant", "odd", "--k", "3", "--n", "256"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_merge_with_flag_priority(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=128\nk=3\n# comment\n\n")
        out = tmp_path / "out.csv"
        code = run(["sums", "--variant", "odd", "--k", "5",
                    "--config", str(cfgfile), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        header, row = _read(out).strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        # k came from the flag, n from the file
        assert cols["k"] == "5"
        assert cols["n"] == "128"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("wavelength=3\n")
        assert run(["sums", "--config", str(cfgfile)]) == 2
        capsys.readouterr()

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("just a sentence\n")
        assert run(["sums", "--config", str(cfgfile)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_is_usage_error(self, tmp_path, capsys, kind):
        path = tmp_path / "absent.cfg" if kind == "missing" else tmp_path
        assert run(["sums", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "cannot read config file" in captured.err

    def test_format_and_out_from_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("format=json\n")
        assert run(["sums", "--config", str(cfgfile)]) == 0
        assert json.loads(capsys.readouterr().out)[0]["variant"] == "alt_hat"
        out = tmp_path / "row.json"
        cfgfile.write_text(f"format=json\nout={out}\n")
        assert run(["sums", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(_read(out))[0]["n"] == 64

    @pytest.mark.parametrize("line, quick", [
        ("quick=true", True), ("quick=0", False),
    ])
    def test_quick_from_file(self, monkeypatch, tmp_path, capsys, line, quick):
        seen = []

        def fake_run_all(quick=False):
            seen.append(quick)
            return []

        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        assert run(["verify", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        assert seen == [quick]

    @pytest.mark.parametrize("command, line", [
        ("energy", "mode=bogus"), ("energy", "lam=abc"), ("energy", "K=6.5"),
        ("verify", "quick=maybe"),
    ])
    def test_values_checked_before_model(self, monkeypatch, tmp_path, capsys,
                                         command, line):
        def no_model(*args, **kwargs):
            raise AssertionError("default_model called before validation")

        monkeypatch.setattr(energy, "default_model", no_model)
        monkeypatch.setattr(acceptance, "run_all", no_model)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n")
        assert run([command, "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().out == ""


class TestSubcommands:
    def test_ansatz_defaults(self, tmp_path, capsys):
        out = tmp_path / "ansatz.csv"
        assert run(["ansatz", "--out", str(out)]) == 0
        capsys.readouterr()
        header, row = _read(out).strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["m"] == "16"
        assert float(cols["mu"]) > 0.0

    def test_nodal_nonempty(self, tmp_path, capsys):
        out = tmp_path / "nodal.csv"
        assert run(["nodal", "--res", "24", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = _read(out).strip().splitlines()
        assert lines[0] == "z1,z2,z3,value,grad_norm"
        assert len(lines) > 1

    def test_nodal_defaults_bytes(self, tmp_path, capsys):
        out = tmp_path / "nodal.csv"
        assert run(["nodal", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "870f39486b2ceb2d5ceddc590ae4613ae815cbdc227f3a60e20e8c72d7a2bf28"
        )

    def test_energy_defaults_bytes(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        assert run(["energy", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4e6c696971403ea6b03a47ca7912d40a048c9066eb15272539bfdad0ceb726fc"
        )

    def test_energy_full_mode_bytes(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        assert run(["energy", "--mode", "full", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "041889c5292b67000e51e715a87211fbd46fba1d6d81f50e2b85c7275f8e5188"
        )

    @pytest.mark.parametrize("command, digest", [
        ("sums", "0cc710613d238bc6ff7c447a2af15fd7c032b8bddbbcaac59b72a7010871fbfe"),
        ("ansatz", "7ca59ec223f69a732288f087bb50a37b3a0c72b8c34425132746b138dd47d5d8"),
        ("kernels", "5cd56e73c819a96364bd8fcf2dd6bce2080ab3651a20955be654180e20e7b0e3"),
    ])
    def test_defaults_bytes(self, tmp_path, capsys, command, digest):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_nodal_res192_bytes(self, tmp_path, capsys):
        out = tmp_path / "nodal.csv"
        assert run(["nodal", "--res", "192", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aeb9c06d5e3b74ed858e801ab37ac8a762450e2f2f023d4bc9d8ea2960f93113"
        )

    def test_nodal_domain_error(self, capsys):
        assert run(["nodal", "--res", "8"]) == 2
        capsys.readouterr()

    def test_nodal_res_above_max(self, capsys):
        # refused before the scan allocates its arrays
        assert run(["nodal", "--res", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: resolution must be at most 1024, got 100000\n"
        assert captured.out == ""

    @pytest.mark.parametrize("bbox", ["nan", "inf", "-inf", "-1", "0", "1e200",
                                      "7.8e153"])
    def test_nodal_bad_bbox(self, capsys, bbox):
        assert run(["nodal", "--res", "16", f"--bbox={bbox}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bbox ")
        assert captured.out == ""

    def test_nodal_huge_bbox_is_rejected_before_evaluating(self, capsys):
        # a half-width whose squares overflow is a domain error, raised
        # before any squared distance is formed, so no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["nodal", "--bbox", "1e200", "--res", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bbox ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_kernels_report(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        assert run(["kernels", "--K", "32", "--b-abs", "0.95",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        lines = _read(out).strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cols = dict(zip(lines[0].split(","), line.split(",")))
            assert float(cols["abs_err_dc"]) < 1e-10

    def test_kernels_bad_point(self, capsys):
        assert run(["kernels", "--K", "32", "--b-abs", "0.3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [
        "--alpha-b=inf", "--alpha-b=-inf", "--alpha-b=nan",
        "--b-abs=inf", "--b-abs=nan",
    ])
    def test_kernels_nonfinite_point(self, capsys, flag):
        assert run(["kernels", "--K", "32", flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --b-abs and --alpha-b must be finite")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--variant", "alt", "--x", "1e-300", "--n", "64"],
        ["--variant", "alt", "--x", "1e-110", "--k", "3"],
        ["--variant", "alt", "--x", "1e-200", "--k", "3"],
        ["--variant", "even", "--x", "1e-300"],
        ["--variant", "even", "--x", "1e-70", "--k", "5"],
    ])
    def test_sums_j0_term_not_finite(self, capsys, argv):
        assert run(["sums", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: variant ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


@pytest.mark.parametrize("exc, code", [
    (DomainError("bad input"), 2),
    (UnsupportedError("bad input"), 2),
    (AccuracyError("bad input", best=0.0), 1),
    (NotFoundError("bad input"), 1),
])
def test_typed_errors_map_to_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "sums", fail)
    assert run(["sums"]) == code
    captured = capsys.readouterr()
    assert captured.err == "error: bad input\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--lam", "nan"], ["--lam", "-1"], ["--delta", "2"], ["--K", "3"],
    # Psi would overflow on the box, or its smallest eps underflow
    *([*mode, "--delta", delta] for mode in ([], ["--mode", "full"])
      for delta in ("1e-100", "1e-300", "5e-324")),
])
def test_energy_validates_before_model(capsys, flags):
    assert run(["energy", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("K, delta", [("64", "1e-3"), ("64", "1.71e-3"), ("128", "5e-4")])
def test_energy_full_mode_delta_before_model(capsys, K, delta):
    # full mode's delta bound depends on K and delta alone
    assert run(["energy", "--mode", "full", "--K", K, "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: full mode needs delta > ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_runs_serially(monkeypatch, capsys, tmp_path):
    """verify runs its criteria one after another on the calling thread,
    whatever NECKLACE_THREADS says: each criterion's elapsed_s then times
    its own work alone, and the report keeps the criteria's order.  (The
    package keeps no process-wide precision; its exact sums are
    thread-safe, see test_sum_direct_thread_safe.)"""
    monkeypatch.setenv("NECKLACE_THREADS", "4")
    for failing, code in ((None, 0), ("second", 1)):
        seen = []

        def fake(name):
            def body(quick):
                assert quick is True
                seen.append((name, threading.get_ident()))
                return [acceptance.Check("x", 2.0 if name == failing else 0.5, "<=", 1.0)]
            return name, body, None

        names = ("first", "second", "third")
        monkeypatch.setattr(acceptance, "CRITERIA", tuple(map(fake, names)))
        out = tmp_path / "verify.json"
        assert run(["verify", "--quick", "--format", "json",
                    "--out", str(out)]) == code
        capsys.readouterr()
        assert seen == [(n, threading.get_ident()) for n in names]
        rows = json.loads(out.read_text())
        assert [(r["criterion"], r["name"]) for r in rows] == [
            (1, "first"), (2, "second"), (3, "third")]
        assert [r["status"] for r in rows] == [
            "FAIL" if n == failing else "pass" for n in names]
        assert [(r["checks"], r["error"]) for r in rows] == [
            ([{"quantity": "x", "measured": 2.0 if n == failing else 0.5, "op": "<=",
               "bound": 1.0, "margin": -1.0 if n == failing else 0.5}], None)
            for n in names]


def test_verify_json_nan_check_is_null(monkeypatch, capsys):
    # a criterion that measured a nan fails, and its check's measured value
    # and margin are null in JSON; a non-finite bound is null too
    checks = [acceptance.Check("x", math.nan, "<=", 1.0),
              acceptance.Check("y", 0.5, "<", math.inf)]
    monkeypatch.setattr(acceptance, "CRITERIA", (("nan", lambda quick: checks, None),))
    assert run(["verify", "--quick", "--format", "json"]) == 1
    row, = _strict_json(capsys.readouterr().out)
    assert row["status"] == "FAIL" and row["error"] is None
    assert row["checks"] == [
        {"quantity": "x", "measured": None, "op": "<=", "bound": 1.0, "margin": None},
        {"quantity": "y", "measured": 0.5, "op": "<", "bound": None, "margin": None}]


@pytest.mark.parametrize("argv", [["sums"], ["ansatz"], ["kernels"], ["energy"],
                                  ["nodal", "--res", "16"]],
                         ids=["sums", "ansatz", "kernels", "energy", "nodal"])
def test_json_is_the_whole_list_dumped(capsys, argv):
    # written a batch at a time, the JSON text is json.dumps's for the whole
    # list, and it holds the CSV's rows
    assert run(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    rows = _strict_json(text)
    assert text == json.dumps(rows, indent=2, sort_keys=True) + "\n"
    assert run(argv) == 0
    csv = capsys.readouterr().out
    columns = csv.split("\n", 1)[0].split(",")
    assert rows and all(sorted(row) == sorted(columns) for row in rows)
    assert _table_at_once(columns, [[row[c] for c in columns] for row in rows]) == csv


def test_verify_json_is_the_whole_list_dumped(monkeypatch, capsys):
    # verify's rows carry nested lists of checks
    checks = [acceptance.Check("x", 0.5, "<=", 1.0), acceptance.Check("y", 2.0, ">", 1e300)]
    monkeypatch.setattr(acceptance, "CRITERIA", (("two", lambda quick: checks, None),
                                                 ("none", lambda quick: [], 5.0)))
    assert run(["verify", "--quick", "--format", "json"]) == 1
    text = capsys.readouterr().out
    rows = _strict_json(text)
    assert text == json.dumps(rows, indent=2, sort_keys=True) + "\n"
    assert [(r["name"], r["status"], len(r["checks"])) for r in rows] == [
        ("two", "FAIL", 2), ("none", "pass", 1)]
    assert rows[0]["checks"][1] == {"quantity": "y", "measured": 2.0, "op": ">",
                                    "bound": 1e300, "margin": 2.0 - 1e300}


@pytest.mark.parametrize("lam", ["1.5e307", "3e307"])
def test_energy_lam_is_bounded_with_the_model_constants(capsys, lam):
    # Psi's overflow bound on the box grows with lam cstar: these lam pass
    # it with the model's cstar (about 0.23), as minimize_psi finds
    _, _, gnorm, cstar = energy.default_model()
    argmin, diag = energy.minimize_psi(energy.ReducedConfig(64, float(lam), gnorm, cstar, 0.1))
    assert run(["energy", "--lam", lam]) == 0
    out, err = capsys.readouterr()
    row = (64, float(lam), 0.1, "leading", argmin.eps, argmin.a, argmin.d, argmin.alpha_b,
           argmin.alpha_w, *(float(diag[k]) for k in ("value", "eps_ratio", "d_scaling")),
           ";".join(diag["on_boundary"]))
    assert err == "" and out == _table_at_once(out.split("\n", 1)[0].split(","), [row])


def test_energy_lam_past_the_bound_overflows(capsys):
    assert run(["energy", "--lam", "8e307"]) == 2
    assert capsys.readouterr() == (
        "", "error: Psi overflows on the box of delta=0.1 and K=64 with lam=8e+307, "
            "cstar=0.23348704238119866 and gnorm=1.0066274235276396\n")


@pytest.mark.parametrize("argv, flag, value, code", [
    (["kernels", "--K", "32"], "--alpha-b", "-1e-3", 0),
    (["kernels", "--K", "32"], "--alpha-b", "-1E-3", 0),
    (["kernels", "--K", "32"], "--alpha-b", "-.5e-2", 0),
    (["kernels", "--K", "32"], "--alpha-b", "-inf", 2),
    (["kernels", "--K", "32"], "--b-abs", "-9e-1", 2),
    (["sums", "--variant", "alt"], "--x", "-1e-3", 2),
    (["energy"], "--lam", "-1e-3", 2),
    (["energy"], "--delta", "-1e-3", 2),
])
def test_negative_exponent_value_parses(capsys, argv, flag, value, code):
    # "--flag -1e-3" is the same command as "--flag=-1e-3", with the same
    # output bytes, not a missing value
    assert run(argv + [flag, value]) == code
    spaced = capsys.readouterr()
    assert run(argv + [f"{flag}={value}"]) == code
    assert capsys.readouterr() == spaced
    assert spaced.err.count("\n") == (code != 0)


def test_negative_exponent_value_from_config(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("alpha_b=-1e-3\nK=32\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["kernels", "--config", str(cfg), "--out", str(a)]) == 0
    assert run(["kernels", "--K", "32", "--alpha-b=-1e-3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("m", ["4098", "100000000"])
def test_ansatz_rejects_huge_m(capsys, m):
    # rejected before any O(m) work, so even m = 1e8 returns at once
    assert run(["ansatz", "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: m must be at most 4096, got {m}\n"
    assert captured.out == ""


@pytest.mark.parametrize("n", [str(2 * N_MAX), "1000000000"])
def test_sums_rejects_huge_n(capsys, n):
    # rejected before any O(n) work: sum_direct would hold n terms
    assert run(["sums", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: n must be at most {N_MAX}, got {n}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["kernels", "energy"])
def test_k_above_max_is_rejected_first(capsys, command):
    # named as K
    K = str(2 * K_MAX)
    assert run([command, "--K", K]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: K must be at most {K_MAX}, got {K}\n"
    assert captured.out == ""


def test_kernels_huge_b_abs_is_one_error_line(capsys):
    # |b| is checked before the direct image sum computes with it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["kernels", "--b-abs", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: |b| must lie in (1/2, 1)\n"
    assert captured.out == ""


def test_kernels_round_off_radicand_is_a_numerical_failure(capsys):
    # |b| < 1 is in the domain, but (1 - |b|^2)^2 cancels to 0 in h0's radicand
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["kernels", "--b-abs", "0.999999999"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the radicand of h0 cancelled to <= 0 in round-off\n"
    assert captured.out == ""


def _kernel_floats(*near):
    """Any finite float, an edge value, or one drawn near the kernels' domain."""
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308,
                         0.0, -0.0, 0.5, 1.0]),
        *near,
    )


@settings(max_examples=50)
@given(st.one_of(st.integers(2, 128).map(lambda h: 2 * h), st.just(2 * K_MAX)),
       # |b| in (1/2, 1), or past 1 up to where |b|^2 overflows
       _kernel_floats(st.floats(0.5, 1.0), st.floats(1.0, 1e300)),
       _kernel_floats(st.floats(-0.01, 0.01)))
def test_kernels_exits_cleanly(K, b_abs, alpha_b):
    # any finite input: exit 0 or 2, at most one "error:" line, no warning
    argv = ["kernels", "--K", str(K), f"--b-abs={b_abs!r}", f"--alpha-b={alpha_b!r}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    assert code in (0, 2)
    lines = err.getvalue().splitlines(keepends=True)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith("\n")


#: any float the flags parse, nan and +-inf included
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([1e300, 5e-324, 0.0, -0.0]))
_EVEN_M = st.integers(4, 32).map(lambda h: 2 * h)
_ANY_M = st.one_of(_EVEN_M, st.integers(-2, 9), st.sampled_from([15, 17, 4096, 2**40]))


def _sums(k, n, x):
    return st.builds(lambda v, k, n, x: ["sums", "--variant", v, "--k", str(k), "--n", str(n),
                                         f"--x={x!r}"],
                     st.sampled_from(["odd", "even", "even_hat", "alt", "alt_hat"]), k, n, x)


def _nodal(m, bbox):
    return st.builds(lambda m, b, res: ["nodal", "--m", str(m), f"--bbox={b!r}", "--res", str(res)],
                     m, bbox, st.integers(16, 20))


#: per command, argv in its domain or anywhere around it
_ARGV = {
    "sums": st.one_of(
        _sums(st.sampled_from([1, 3, 5]), st.integers(2, 256).map(lambda h: 2 * h),
              st.floats(0.0, 2.0)),
        _sums(st.integers(-1, 6), st.one_of(st.integers(-4, 514), st.just(N_MAX + 2)),
              _ANY_FLOAT)),
    "ansatz": st.builds(lambda m: ["ansatz", "--m", str(m)], st.one_of(_EVEN_M, _ANY_M)),
    "nodal": st.one_of(_nodal(_EVEN_M, st.floats(0.2, 3.0)), _nodal(_ANY_M, _ANY_FLOAT)),
}


@pytest.mark.parametrize("command", sorted(_ARGV))
@settings(max_examples=60)
@given(st.data())
def test_subcommands_exit_cleanly(command, data):
    # exit 0, 1 or 2 with no traceback and no Python warning: stderr holds
    # at most one "error:" line, only on failure, and `sums`' "warning:" lines
    argv = data.draw(_ARGV[command])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines(keepends=True)
    errors = [ln for ln in lines if ln.startswith("error: ")]
    assert len(errors) == (code != 0)
    assert all(ln.endswith("\n") for ln in lines)
    assert all(ln.startswith("warning: ") for ln in lines if ln not in errors)
    if code:
        assert out.getvalue() == ""


#: verify's flags and some values, in any order; --out and --config are
#: followed by a path in a per-example directory
_VERIFY_TOKENS = st.lists(st.sampled_from(
    ["--quick", "--format", "csv", "json", "xml", "--out", "--config", "--bogus", "-h", "1"]),
    max_size=5)


@settings(max_examples=60)
@given(_VERIFY_TOKENS, st.lists(st.booleans(), max_size=4), st.sampled_from(["", "quick=yes\n",
                                                                          "quick=maybe\n"]))
def test_verify_exits_cleanly(tokens, passed, config):
    # exit 0 when every criterion passes, 1 when one fails and 2 for a bad
    # argv, with at most one "error:" line and no traceback
    results = [acceptance.Result(f"c{i}", ok, 0.0) for i, ok in enumerate(passed)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        mp.setattr(acceptance, "run_all", lambda quick=False: results)
        cfgfile = os.path.join(tmp, "verify.cfg")
        with open(cfgfile, "w") as fh:
            fh.write(config)
        paths = {"--out": os.path.join(tmp, "rows"), "--config": cfgfile}
        code = run(["verify", *(v for t in tokens for v in (t, paths.get(t)) if v)])
    assert code in (0, 1, 2)
    if code == 0:
        assert all(passed) or "-h" in tokens
    elif code == 1:
        assert not all(passed)
    assert sum("error:" in ln for ln in err.getvalue().splitlines()) == (code == 2)
    assert "Traceback" not in err.getvalue()


#: energy's options, each in its domain or anywhere around it; K stays at
#: or below 256 in the domain, where full mode takes well under a second
_ENERGY_OPTIONS = {
    "K": st.one_of(st.sampled_from([4, 6, 8, 32, 64, 128, 256]),
                   st.sampled_from([-4, 0, 2, 3, 7, 2 * K_MAX])),
    "lam": st.one_of(st.floats(0.01, 10.0), _ANY_FLOAT),
    "delta": st.one_of(st.floats(0.001, 0.99), _ANY_FLOAT),
    "mode": st.sampled_from(["leading", "full", "bogus"]),
    "format": st.sampled_from(["csv", "json", "xml"]),
}


@settings(max_examples=60)
@given(st.fixed_dictionaries({}, optional=_ENERGY_OPTIONS),
       st.fixed_dictionaries({}, optional=_ENERGY_OPTIONS))
def test_energy_exits_cleanly(flags, config):
    # flags and a config file: exit 0, 1 or 2 with at most one "error:"
    # line, no traceback and no RuntimeWarning
    argv = ["energy", *(f"--{k}={v!r}" if isinstance(v, float) else f"--{k}={v}"
                        for k, v in flags.items())]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        if config:
            cfgfile = os.path.join(tmp, "energy.cfg")
            with open(cfgfile, "w") as fh:
                fh.write("".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n"
                                 for k, v in config.items()))
            argv += ["--config", cfgfile]
        code = run(argv)
    assert code in (0, 1, 2)
    assert sum("error:" in ln for ln in err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
    assert (out.getvalue() != "") == (code == 0)


#: a CSV value: any float, an edge float, a numpy float64 or a non-float
_CSV_VALUE = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats().map(np.float64),
    st.integers(), st.text(max_size=5), st.booleans(), st.none(),
)


@settings(max_examples=300)
@given(st.floats(allow_subnormal=True) | st.floats().map(np.float64),
       st.lists(_CSV_VALUE, min_size=1, max_size=6))
def test_csv_line_matches_per_value_format(value, row):
    # one % per run of rows gives "{:.17g}" for each float (np.float64
    # included) and str for anything else, joined by commas, also where a
    # run's types recur after another run
    expect = [",".join("{:.17g}".format(v) if isinstance(v, float) else str(v) for v in r)
              + "\n" for r in ([value], row, [value], row)]
    assert cli._csv_lines([[value], row]) == "".join(expect[:2])
    assert cli._csv_lines([[value], row, [value], row]) == "".join(expect)
    assert cli._csv_lines([]) == ""


def _csv_lines_per_row(rows):
    """The CSV lines of ``rows`` made by one % per row, as the package first
    made them: the oracle of _csv_lines."""
    lines, formats = [], {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                ["%.17g" if isinstance(v, float) else "%s" for v in row]) + "\n"
        lines.append(fmt % row)
    return "".join(lines)


#: rows of one of four type signatures: floats only, and mixes of str, int,
#: bool, None and np.float64
_CSV_ROW = st.one_of(
    st.lists(st.floats(allow_subnormal=True), min_size=5, max_size=5),
    st.tuples(st.text(max_size=4), st.integers(), st.floats().map(np.float64), st.booleans()),
    st.tuples(st.integers(), st.none(), st.floats()),
    st.tuples(st.booleans(), st.floats().map(np.float64)),
)


@settings(max_examples=200)
@given(st.lists(st.lists(_CSV_ROW, max_size=12), max_size=4))
def test_csv_runs_match_per_row_format(batches):
    # batches of float-only rows, mixed rows and alternating signatures, or
    # empty: one % per run gives the bytes of one % per row
    for rows in batches:
        assert cli._csv_lines(rows) == _csv_lines_per_row(rows)


@pytest.mark.parametrize("rows", [
    [], [[0.1, -2.5e-300, math.inf]] * 3,
    [("a", 1, np.float64(0.5), True), ("b", -2, np.float64(-0.0), False)],
    [(1.5, 2), ("x", 2), (1.5, 3), (1.5, 4), (True, None)],
], ids=["empty", "floats", "mixed", "alternating"])
def test_csv_runs_examples(rows):
    assert cli._csv_lines(rows) == _csv_lines_per_row(rows)


def _table_at_once(columns, rows):
    """The CSV text of a table formatted in one piece, a format per row."""
    lines = [",".join(columns)] + [
        ",".join("%.17g" % v if isinstance(v, float) else "%s" % (v,) for v in row)
        for row in rows]
    return "\n".join(lines) + "\n" if rows else ""


@pytest.mark.parametrize("sizes", [[], [0, 0], [1], [0, 1, 0], [7, 0, 2048, 1, 3]],
                         ids=["none", "empty-batches", "one-row", "one-of-three", "several"])
def test_streamed_csv_is_the_table_at_once(tmp_path, capsys, sizes):
    # rows of mixed value types (an int or a float in one column, np.float64,
    # None) written a batch at a time give the bytes of the whole table
    # formatted at once, to a file and to stdout, and the same JSON
    rng = np.random.default_rng(len(sizes))
    rows = [(float(rng.normal()) if i % 3 else i, np.float64(rng.normal()),
             None if i % 5 else "x", float(10.0 ** rng.integers(-300, 300)))
            for i in range(sum(sizes))]
    cuts = np.cumsum([0] + sizes)
    columns = ("a", "b", "c", "d")

    def batches():
        return [list(rows[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]

    out = tmp_path / "t.csv"
    cli._emit(columns, batches(), "csv", str(out))
    cli._emit(columns, batches(), "csv", None)
    want = _table_at_once(columns, rows)
    assert out.read_bytes() == want.encode() and capsys.readouterr().out == want
    cli._emit(columns, batches(), "json", str(out))
    assert out.read_text() == json.dumps([dict(zip(columns, row)) for row in rows],
                                         indent=2, sort_keys=True) + "\n"


def test_nodal_csv_does_not_depend_on_row_batch(tmp_path, capsys, monkeypatch):
    # necklace nodal converts and writes _ROWS rows at a time; the bytes are
    # the same for one row, 7 and more than the table's, in CSV and JSON,
    # and an empty mesh writes nothing (CSV) or an empty list (JSON)
    got = {}
    for rows in (1, 7, 10**6):
        monkeypatch.setattr(cli, "_ROWS", rows)
        for fmt in ("csv", "json"):
            out = tmp_path / f"{rows}.{fmt}"
            assert run(["nodal", "--res", "24", "--format", fmt, "--out", str(out)]) == 0
            got.setdefault(fmt, set()).add(out.read_bytes())
    assert len(got["csv"]) == len(got["json"]) == 1
    assert got["csv"].pop().count(b"\n") > 7
    for fmt, want in (("csv", b""), ("json", b"[]\n")):
        out = tmp_path / f"empty.{fmt}"
        assert run(["nodal", "--bbox", "0.1", "--res", "16", "--format", fmt,
                    "--out", str(out)]) == 0
        assert out.read_bytes() == want
    capsys.readouterr()
