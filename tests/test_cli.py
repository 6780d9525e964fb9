import contextlib
import hashlib
import io
import json
import math
import threading
import warnings

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

    def test_nodal_domain_error(self, capsys):
        assert run(["nodal", "--res", "8"]) == 2
        capsys.readouterr()

    def test_nodal_res_above_max(self, capsys):
        # refused before the scan allocates its arrays
        assert run(["nodal", "--res", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: resolution must be 16 to 1024 per axis, got 100000\n"
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
def test_energy_validates_before_model(monkeypatch, capsys, flags):
    def no_model(*args, **kwargs):
        raise AssertionError("default_model called before validation")

    monkeypatch.setattr(energy, "default_model", no_model)
    assert run(["energy", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_runs_serially(monkeypatch, capsys, tmp_path):
    """verify runs its criteria one after another on the calling thread,
    whatever NECKLACE_THREADS says: mpmath's working precision is
    process-wide, so concurrent criteria corrupt each other's sums."""
    monkeypatch.setenv("NECKLACE_THREADS", "4")
    for failing, code in ((None, 0), ("second", 1)):
        seen = []

        def fake(name):
            def criterion(quick):
                assert quick is True
                seen.append((name, threading.get_ident()))
                return acceptance.Result(name, name != failing, 0.0)
            return criterion

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
def test_negative_exponent_value_parses(monkeypatch, capsys, argv, flag, value, code):
    # "--flag -1e-3" is the same command as "--flag=-1e-3", with the same
    # output bytes, not a missing value
    monkeypatch.setattr(energy, "default_model", lambda *a, **k: pytest.fail("model built"))
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
def test_k_above_max_is_rejected_first(monkeypatch, capsys, command):
    # named as K, and for energy before the model is built
    monkeypatch.setattr(energy, "default_model", lambda *a, **k: pytest.fail("model built"))
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


@settings(max_examples=50, deadline=None, derandomize=True)
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
