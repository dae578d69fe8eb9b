"""Tests for the command-line interface contract."""

from __future__ import annotations

import ast
import contextlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from boxmagic import quadrature
from boxmagic.cli import MAX_K, SUITES, main
from boxmagic.diagrams import MAX_LOOPS
from boxmagic.hc import ComplexQuaternion
from boxmagic.polylog import phi
from boxmagic.tbasis import BasisExpansion, TIndex
from oracles import phi_oracle

ROOT = Path(__file__).resolve().parents[1]


def run_process(*argv: str, code: str | None = None, env: dict | None = None,
                stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python -m boxmagic.cli ARGV` (or `python -c CODE`) in a fresh interpreter, with extra `env`;
    standard output is captured unless `stdout` names a file descriptor or file to write to."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(env or {}))
    cmd = [sys.executable, "-c", code] if code else [sys.executable, "-m", "boxmagic.cli", *argv]
    return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMu:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "mu", "--loops", "2", "--k-max", "5")
        assert code == 0
        assert "1/20" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "mu", "--loops", "1", "--k-max", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "boxmagic.mu-table/1"
        assert [row["exact"] for row in payload["values"]] == ["1/1", "0/1", "0/1"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "mu", "--loops", "2", "--k-max", "5", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,exact,decimal"
        assert "5,1/20,0.05" in out.splitlines()

    def test_range_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "mu", "--loops", "99", "--k-max", "3")
        assert code == 2
        assert "loops" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        code, _, _ = run(capsys, "mu", "--loops", "2", "--k-max", "4",
                         "--format", "json", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["loops"] == 2


class TestAcoeff:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "acoeff", "--loops", "2", "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [row["exact"] for row in payload["values"]] == ["3/4", "1/4"]


class TestDiagrams:
    def test_count_and_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "diagrams", "--loops", "2", "--dot-dir", str(tmp_path))
        assert code == 0
        assert "2 distinct" in out
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["boxdiag_n2_0.dot", "boxdiag_n2_1.dot"]

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "diagrams", "--loops", "3", "--dot-dir", str(a))
        run(capsys, "diagrams", "--loops", "3", "--dot-dir", str(b))
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()

    def test_range_violation(self, capsys):
        code, _, err = run(capsys, "diagrams", "--loops", "9")
        assert code == 2
        assert err == f"diagrams: need 1 <= loops <= {MAX_LOOPS}\n"


class TestMagic:
    def test_pass_exit_codes(self, capsys):
        for n in ("1", "2", "3"):
            code, out, _ = run(capsys, "magic", "--loops", n, "--k-max", "5")
            assert code == 0
            assert "PASS" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "magic", "--loops", "2", "--k-max", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "boxmagic.magic-report/1"
        assert payload["passed"] is True
        assert payload["diagrams"] == 2

    def test_range_violation(self, capsys):
        code, out, err = run(capsys, "magic", "--loops", "9")
        assert (code, out, err) == (2, "", "magic: need 1 <= loops <= 8 and 0 <= k-max <= 64\n")

    def test_loop_limit_is_the_diagram_limit(self, capsys):
        assert MAX_LOOPS == 8
        code, out, _ = run(capsys, "magic", "--loops", "8", "--k-max", "64")
        assert code == 0
        assert out == ("magic identities at 8 loop(s), k <= 64: 2704 diagram(s), "
                       "both generator families: PASS\n")

    def test_k_max_out_of_range(self, capsys):
        for k_max in (-1, MAX_K + 1):
            code, out, err = run(capsys, "magic", "--loops", "2", "--k-max", str(k_max))
            assert code == 2
            assert "PASS" not in out
            assert "k-max" in err

    def test_k_max_bounds_accepted(self, capsys):
        for k_max in ("0", str(MAX_K)):
            code, out, _ = run(capsys, "magic", "--loops", "1", "--k-max", k_max)
            assert code == 0
            assert "PASS" in out


class TestVerify:
    def test_normalization_json(self, capsys):
        code, out, _ = run(capsys, "verify", "normalization", "--nodes", "12", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "boxmagic.verify-report/1"
        assert payload["suite"] == "normalization"
        assert payload["checks"][0]["passed"] is True

    def test_normalization_keys_its_radii_by_their_digits(self, capsys):
        # 0.8 * 0.7 is 0.5599999999999999 as a float; each key is its radius to 15 digits.
        code, out, _ = run(capsys, "verify", "normalization", "--radius", "0.7", "--nodes", "8", "--json")
        assert code == 0
        assert list(json.loads(out)["checks"][0]["details"]["radii"]) == ["0.56", "0.875"]

    def test_orthogonality_json(self, capsys):
        # Its residual is a numpy scalar; the JSON must still hold plain values.
        code, out, _ = run(capsys, "verify", "orthogonality", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["checks"][0]["passed"] is True
        assert isinstance(payload["checks"][0]["residual"], float)

    def test_low_node_run_still_reports_structure(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-zp", "--nodes", "8", "--json")
        assert code in (0, 1)
        payload = json.loads(out)
        assert {"name", "residual", "tolerance", "nodes", "passed", "details"} <= \
            set(payload["checks"][0])

    def test_overflow_names_suite_and_radius(self, capsys):
        code, out, err = run(capsys, "verify", "orthogonality", "--radius", "1e60", "--nodes", "8")
        assert (code, out) == (2, "")
        assert err.startswith("verify: orthogonality at radius 1e+60: non-finite value of integrand")

    def test_overflow_under_all_names_the_check(self, capsys):
        # The checks before orthogonality get through this radius; the message
        # names the one that did not, once.
        code, out, err = run(capsys, "verify", "all", "--radius", "1e60", "--nodes", "8")
        assert (code, out) == (2, "")
        assert err.startswith("verify: all at radius 1e+60: orthogonality: non-finite value of integrand")
        assert err.count("orthogonality") == 1

    @pytest.mark.parametrize("suite, chart, radius", [
        ("normalization", "u2", "1e200"), ("poisson", "s3", "1e200"), ("conformal", "u2", "1e160"),
        ("normalization", "u2", "1e100"), ("conformal", "s3", "1e-310"), ("conformal", "s3", "5e-324"),
    ], ids=["normalization-u2", "poisson-s3", "conformal-u2", "normalization-u2-1e100",
            "conformal-s3-1e-310", "conformal-s3-5e-324"])
    def test_chart_overflow_is_named(self, capsys, suite, chart, radius):
        # The radius power in the chart density (R^4 on u2, R^3 on s3) leaves the float range.
        # At 1e100 only R^4 overflows: the check refuses the radius rather than fail on an
        # underflowed N(Z)^-2.  A subnormal R^3 is refused before conformal draws its points,
        # so no point is blamed for a side that the radius cannot resolve.
        code, out, err = run(capsys, "verify", suite, "--radius", radius, "--nodes", "8")
        assert (code, out) == (2, "")
        assert err == (f"verify: {suite} at radius {float(radius):g}: "
                       f"a value of the {chart} chart leaves the float range\n")

    def test_tiny_radius_names_the_integrand(self, capsys):
        # R^3 is a normal float at this radius, and the s3 pass of the normalization meets N(Z)^-2 = inf.
        code, out, err = run(capsys, "verify", "normalization", "--radius", "1e-100", "--nodes", "8")
        assert (code, out) == (2, "")
        assert err.startswith("verify: normalization at radius 1e-100: non-finite value of integrand 0 at node")

    def test_extreme_radius_warns_nothing(self, capsys):
        # numpy's overflow and invalid-value warnings stay quiet; the
        # finiteness checks still end the run with exit 2 and one message.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "verify", "orthogonality", "--radius", "1e-60", "--nodes", "8")
        assert (code, out) == (2, "")
        assert err.startswith("verify: orthogonality at radius 1e-60: non-finite value of integrand")
        assert [str(w.message) for w in caught] == []

    def test_verify_all_json_is_bit_identical_across_runs(self):
        # Two fresh interpreters, one BLAS thread and two: the reductions run in a
        # fixed order and the matrix products split no sum between threads, so the
        # bytes repeat.
        first, second = (run_process("verify", "all", "--json",
                                     env=dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), t))
                         for t in ("1", "2"))
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["passed"] is True

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "nonsense")
        assert exc.value.code == 2


class TestPhi:
    def test_seventeen_digits(self, capsys):
        code, out, _ = run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.2")
        assert code == 0
        text = out.strip()
        assert float(text) == pytest.approx(7.54222913781126791, rel=1e-15)
        assert len(text.replace(".", "").lstrip("-")) >= 17

    def test_level_two(self, capsys):
        code, out, _ = run(capsys, "phi", "--level", "2", "--x", "0.1", "--y", "0.2")
        assert code == 0
        assert out.strip().startswith("34.328001574515")

    def test_levels_one_and_two_bytes(self, capsys):
        # Level 1 is phi(1, x, y), the closed form with the constant term pi^2/3.  Both are
        # evaluated at (x, y) = (0.2, 0.1), in the order x >= y; the closed form in mpmath at
        # 60 digits gives 7.54222913781126769 and 34.3280015745150139 (level 2 prints 2 ulps low).
        for level, text in (("1", "7.5422291378112662\n"), ("2", "34.328001574515\n")):
            code, out, _ = run(capsys, "phi", "--level", level, "--x", "0.1", "--y", "0.2")
            assert (code, out) == (0, text)

    @pytest.mark.parametrize("level", range(3, 7))
    def test_higher_levels_are_phi(self, capsys, level):
        code, out, _ = run(capsys, "phi", "--level", str(level), "--x", "0.1", "--y", "0.2")
        assert code == 0
        assert out == f"{phi(level, 0.1, 0.2):.17g}\n"

    def test_constant_variant_flag(self, capsys):
        # Level 1 has one constant term, pi^2/3, so there is no flag to choose it.
        # 9.10778089194327407 at 60 digits.
        assert run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.1")[:2] == (0, "9.1077808919432712\n")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.1", "--constant", "pi-squared")
        assert exc.value.code == 2
        assert "--constant" in capsys.readouterr().err

    def test_region_violation_exit_2(self, capsys):
        # (0.6, 0.6) lies outside the former region x + y < 1, lambda^2 > 0: it now has a value, exit 0.
        code, out, _ = run(capsys, "phi", "--level", "1", "--x", "0.6", "--y", "0.6")
        assert code == 0
        assert float(out) == pytest.approx(phi_oracle(1, 0.6, 0.6)[0], rel=1e-12)

    @pytest.mark.parametrize("x, y, named", [
        ("0", "0.2", "(x, y) = (0.0, 0.2)"),
        ("0.2", "-0.5", "(x, y) = (0.2, -0.5)"),
        ("nan", "0.1", "(x, y) = (nan, 0.1)"),
        ("0.1", "inf", "(x, y) = (0.1, inf)"),
        ("1e-320", "1e-320", "(x, y) = (1e-320, 1e-320)"),  # both subnormal
        ("1e308", "1e308", "(x, y) = (1e+308, 1e+308)"),  # lambda^2 overflows
    ])
    def test_refusals_name_their_input(self, capsys, x, y, named):
        code, out, err = run(capsys, "phi", "--level", "2", "--x", x, "--y", y)
        assert (code, out) == (2, "")
        assert named in err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.1", "--frob", "1")
        assert exc.value.code == 2

    def test_non_finite_exit_2(self, capsys):
        for x, y in (("0.1", "nan"), ("inf", "0.1"), ("nan", "nan")):
            code, out, err = run(capsys, "phi", "--level", "2", "--x", x, "--y", y)
            assert code == 2
            assert out == ""
            assert "finite" in err


# Each report command in every format it takes, and a verify run that fails (exit 1).
OUT_CASES = [
    *((("mu", "--loops", "2", "--k-max", "5", "--format", f), 0) for f in ("text", "json", "csv")),
    *((("acoeff", "--loops", "3", "--k", "4", "--format", f), 0) for f in ("text", "json", "csv")),
    (("magic", "--loops", "3", "--k-max", "4"), 0),
    (("magic", "--loops", "3", "--k-max", "4", "--json"), 0),
    (("verify", "normalization", "--nodes", "8"), 0),
    (("verify", "normalization", "--nodes", "8", "--json"), 0),
    (("verify", "normalization", "--nodes", "8", "--tol", "1e-300"), 1),
    (("verify", "normalization", "--nodes", "8", "--tol", "1e-300", "--json"), 1),
]


class TestOut:
    @pytest.mark.parametrize("argv, expected", OUT_CASES, ids=[" ".join(a) for a, _ in OUT_CASES])
    def test_file_holds_what_stdout_would(self, capsys, tmp_path, argv, expected):
        # With --out the report goes to the file alone, byte for byte, and the exit code stays.
        code, printed, _ = run(capsys, *argv)
        assert code == expected and printed
        path = tmp_path / "report"
        assert run(capsys, *argv, "--out", str(path)) == (expected, "", "")
        assert path.read_text(encoding="utf-8") == printed


# (argv, exit code): usage errors exit 2, a check that really fails exits 1.
# "{missing}" stands for a file in a directory that does not exist,
# "{file}" for an existing file, "{full}" for /dev/full (every write fails
# with ENOSPC) and "{dots}" for a directory where the first DOT file's name
# is taken by a directory.  A last argument ">{full}" sends standard output
# to /dev/full, ">{closed}" to a pipe whose reading end is already closed
# (every write fails with EPIPE).
CONTRACT_GRID = [
    (("verify", "normalization", "--nodes", "8"), 0),
    (("verify", "normalization", "--nodes", "8", "--tol", "1e-300"), 1),
    (("verify", "normalization", "--nodes", "3"), 2),
    (("verify", "orthogonality", "--nodes", "3"), 2),
    (("verify", "normalization", "--nodes", "65"), 2),
    (("verify", "poisson", "--nodes", "65"), 2),  # one pass holds n^3 <= 2^18 nodes on either cycle
    (("verify", "orthogonality", "--nodes", "65"), 2),
    (("verify", "normalization", "--radius", "-1"), 2),
    (("verify", "poisson", "--radius", "nan"), 2),
    (("verify", "collapse", "--tol", "0"), 2),
    (("verify", "collapse", "--tol", "1e308"), 0),  # the radius independence counts 100 times at every tol
    (("verify", "orthogonality", "--radius", "1e-3"), 0),  # each Gram entry against its size R^D
    (("verify", "orthogonality", "--radius", "1000"), 0),
    (("verify", "orthogonality", "--radius", "1e25"), 0),
    # The cycle duals' 1/N(Z)^6 is subnormal, or zero, yet finite: refused, not a failed pairing.
    (("verify", "orthogonality", "--radius", "1e27"), 2),
    (("verify", "orthogonality", "--radius", "1e30"), 2),
    (("verify", "conformal", "--radius", "1e-3"), 0),
    (("verify", "conformal", "--radius", "100"), 0),
    # Radii whose charts or integrands leave the float range.
    *((("verify", suite, "--radius", "1e-200", "--nodes", "8"), 2)
      for suite in ("normalization", "poisson", "lemma-zp", "collapse")),
    *((("verify", suite, "--radius", "1e200", "--nodes", "8"), 2)
      for suite in ("normalization", "poisson", "lemma-zp", "collapse", "orthogonality")),
    (("verify", "orthogonality", "--radius", "1e60", "--nodes", "8"), 2),
    (("verify", "orthogonality", "--radius", "1e-60", "--nodes", "8"), 2),
    (("verify", "conformal", "--radius", "1e60", "--nodes", "8"), 2),
    # R^3 subnormal or zero: refused as a float-range radius before a point is drawn or side-checked.
    (("verify", "conformal", "--radius", "1e-310"), 2),
    (("verify", "conformal", "--radius", "5e-324"), 2),
    # R^3 subnormal (1e-321) or zero: the s3 weights would lose their digits.
    (("verify", "poisson", "--radius", "1e-107"), 2),
    (("verify", "poisson", "--radius", "1e-110"), 2),
    (("verify", "normalization", "--nodes", "8", "--out", "{missing}"), 2),
    (("phi", "--level", "2", "--x", "0.1", "--y", "0.2"), 0),
    (("phi", "--level", "2", "--x", "0.1", "--y", "nan"), 2),
    (("phi", "--level", "1", "--x", "inf", "--y", "0.1"), 2),
    (("phi", "--level", "1", "--x", "0.6", "--y", "0.6"), 0),  # lambda^2 < 0: once refused, now a value
    (("phi", "--level", "3", "--x", "0.1", "--y", "0.2"), 0),
    (("phi", "--level", "7", "--x", "0.1", "--y", "0.2"), 2),
    (("phi", "--level", "2", "--x", "1e-320", "--y", "0.2"), 0),
    (("phi", "--level", "2", "--x", "1e-320", "--y", "1e-320"), 2),
    # Values that the integral representation confirms (tests/test_polylog.py, test_huge_arguments_match_integral).
    (("phi", "--level", "2", "--x", "1e200", "--y", "1e200"), 0),
    (("phi", "--level", "3", "--x", "1e120", "--y", "1e-3"), 0),
    (("phi", "--level", "1", "--x", "1e308", "--y", "1e308"), 2),  # lambda^2 leaves the float range
    (("mu", "--loops", "2", "--k-max", "4", "--out", "{missing}"), 2),
    (("mu", "--loops", "0"), 2),
    (("acoeff", "--loops", "2", "--k", "x"), 2),
    (("magic", "--loops", "2", "--k-max", "-1"), 2),
    (("diagrams", "--loops", "9"), 2),
    (("diagrams", "--loops", "2", "--dot-dir", "{file}"), 2),
    (("diagrams", "--loops", "2", "--dot-dir", "{dots}"), 2),
    (("mu", "--loops", "2", "--k-max", "4", "--out", "{full}"), 2),
    (("acoeff", "--loops", "2", "--k", "3", "--format", "csv", "--out", "{full}"), 2),
    (("magic", "--loops", "2", "--k-max", "4", "--json", "--out", "{full}"), 2),
    (("verify", "normalization", "--nodes", "8", "--json", "--out", "{full}"), 2),
    (("mu", "--loops", "2", ">{full}"), 2),
    (("acoeff", "--loops", "2", "--k", "3", "--format", "csv", ">{full}"), 2),
    (("magic", "--loops", "2", "--k-max", "4", "--json", ">{full}"), 2),
    (("verify", "normalization", "--nodes", "8", ">{full}"), 2),
    (("verify", "normalization", "--nodes", "8", "--tol", "1e-300", ">{full}"), 2),
    (("phi", "--level", "2", "--x", "0.1", "--y", "0.2", ">{full}"), 2),
    (("mu", "--loops", "2", "--format", "json", ">{closed}"), 2),
    (("diagrams", "--loops", "3", ">{closed}"), 2),
    (("magic", "--loops", "2", "--k-max", "4", ">{closed}"), 2),
    (("verify", "normalization", "--nodes", "8", "--json", ">{closed}"), 2),
    (("phi", "--level", "1", "--x", "0.1", "--y", "0.2", ">{closed}"), 2),
    (("--help", ">{full}"), 2),
    (("mu", "--help", ">{full}"), 2),
    (("--help", ">{closed}"), 2),
    (("mu", "--help", ">{closed}"), 2),
]


class TestContract:
    @pytest.mark.parametrize("argv, expected", CONTRACT_GRID, ids=[" ".join(a) for a, _ in CONTRACT_GRID])
    def test_exit_code_and_no_traceback(self, tmp_path, argv, expected):
        if ("{full}" in argv or ">{full}" in argv) and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        paths = {"{missing}": str(tmp_path / "missing" / "out.txt"), "{file}": str(tmp_path / "file"),
                 "{full}": "/dev/full", "{dots}": str(tmp_path / "dots")}
        (tmp_path / "file").write_text("", encoding="utf-8")
        (tmp_path / "dots" / "boxdiag_n2_0.dot").mkdir(parents=True)
        with contextlib.ExitStack() as stack:
            stdout, buffering = subprocess.PIPE, [{}]
            if argv[-1] == ">{full}":
                stdout = stack.enter_context(open("/dev/full", "wb"))
            elif argv[-1] == ">{closed}":
                read_end, stdout = os.pipe()
                os.close(read_end)
                stack.callback(os.close, stdout)
            if stdout is not subprocess.PIPE:
                # Buffered, the write fails in main's final flush; unbuffered, in the write itself.
                *argv, _ = argv
                buffering = [{"PYTHONUNBUFFERED": ""}, {"PYTHONUNBUFFERED": "1"}]
            procs = [run_process(*(paths.get(a, a) for a in argv), env=env, stdout=stdout) for env in buffering]
        for proc in procs:
            assert proc.returncode in (0, 1, 2)
            assert "Traceback" not in proc.stderr
            assert "nan" not in (proc.stdout or "").lower()
            assert proc.returncode == expected, proc.stderr
            if expected == 2:
                assert proc.stderr.strip()
            if stdout is not subprocess.PIPE:
                assert proc.stderr.startswith("cannot write <stdout>: ")
            elif "{full}" in argv or "{dots}" in argv:
                assert "cannot write" in proc.stderr


# Prints the exit code of main(ARGV), None for ARGV None (the import alone), and the
# modules loaded since the interpreter came up; a .pth file may preload modules, and those
# count as loaded before.
_LOADED_BY_MAIN = """
import contextlib, io, sys
bare = set(sys.modules)
from boxmagic.cli import main
code = None
if {argv!r} is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main({argv!r})
print((code, sorted(set(sys.modules) - bare)))
"""


def loaded_by(argv: list[str] | None) -> tuple[int | None, set[str]]:
    """Exit code of main(argv) in a fresh interpreter, and the modules it loaded."""
    proc = run_process(code=_LOADED_BY_MAIN.format(argv=argv))
    assert proc.returncode == 0, proc.stderr
    code, modules = ast.literal_eval(proc.stdout.strip())
    return code, set(modules)


def layers(loaded: set[str]) -> set[str]:
    """The boxmagic modules among `loaded`, besides the package and the cli."""
    return {m for m in loaded if m.startswith("boxmagic.")} - {"boxmagic.cli"}


# Each command but verify, the layers it loads, and standard-library modules it must not load.
COMMAND_LAYERS = [
    (["mu", "--loops", "2", "--k-max", "4"], {"boxmagic.magic"}, {"dataclasses", "inspect", "json"}),
    (["acoeff", "--loops", "2", "--k", "3"], {"boxmagic.magic"}, {"dataclasses", "inspect", "json"}),
    (["diagrams", "--loops", "3"], {"boxmagic.diagrams"}, {"dataclasses", "inspect", "fractions", "json"}),
    (["magic", "--loops", "2", "--k-max", "4"], {"boxmagic.magic", "boxmagic.diagrams"},
     {"dataclasses", "inspect", "json"}),
    (["phi", "--level", "2", "--x", "0.1", "--y", "0.2"], {"boxmagic.polylog"}, {"dataclasses", "json"}),
]


class TestDependencies:
    def test_cli_import_leaves_quadrature_stack_out(self):
        # The import builds the parser and loads no layer.
        _, loaded = loaded_by(None)
        assert "boxmagic" in loaded and layers(loaded) == set()
        assert not loaded & {"numpy", "dataclasses", "inspect", "json", "fractions", "decimal", "typing"}

    @pytest.mark.parametrize("argv, own, absent", COMMAND_LAYERS, ids=[argv[0] for argv, *_ in COMMAND_LAYERS])
    def test_commands_leave_quadrature_stack_out(self, argv, own, absent):
        # Each command loads its own layer only; the quadrature layer and numpy are verify's.
        code, loaded = loaded_by(argv)
        assert code == 0 and layers(loaded) == own
        assert not loaded & (absent | {"numpy"})

    def test_verify_loads_quadrature_when_it_runs(self):
        code, loaded = loaded_by(["verify", "normalization", "--nodes", "8"])
        assert code == 0 and layers(loaded) == {"boxmagic.quadrature", "boxmagic.hc", "boxmagic.tbasis"}

    def test_seeded_check_leaves_numpy_random_out(self):
        # The seeded checks draw their points with the standard library's random.Random.
        code, loaded = loaded_by(["verify", "conformal", "--nodes", "8"])
        assert code == 0 and layers(loaded) == {"boxmagic.quadrature", "boxmagic.hc", "boxmagic.tbasis"}
        assert not {m for m in loaded if m == "numpy.random" or m.startswith("numpy.random.")}

    def test_suite_names_match_quadrature(self):
        assert SUITES == quadrature.SUITES

    def test_cli_import_leaves_scipy_out(self):
        proc = run_process(code="import sys, boxmagic.cli; "
                                "print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_numpy_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
        assert names == ["numpy"]

    def test_test_extra_installs_the_mpmath_oracles(self):
        # The mpmath oracle tests in test_polylog.py skip without mpmath; the test extra brings it.
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["optional-dependencies"]["test"]]
        assert "mpmath" in names


# Runs main(ARGV) and prints the exit code and the process's own peak RSS (kB).
_PEAK_RSS = """
import contextlib, io, resource
from boxmagic.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


# Peak RSS bounds in MB: `verify all`, and each check at --nodes 64; measured
# 43.0, and 32.1, 37.0, 34.1, 33.4, 43.7 and 38.1 MB.
BOUND_ALL = 52
BOUNDS_64 = {"normalization": 39, "poisson": 45, "lemma-zp": 41, "collapse": 40, "orthogonality": 53,
             "conformal": 46}
linux_rss = pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB and inherited on Linux")


def peak_rss_mb(*argv: str) -> float:
    """Peak RSS of one command that must exit 0.  A Linux child starts with its
    parent's peak RSS as its own, so the command runs in a grandchild started
    by a small interpreter."""
    wrapper = ("import subprocess, sys; "
               f"p = subprocess.run([sys.executable, '-c', {_PEAK_RSS.format(argv=list(argv))!r}], "
               "capture_output=True, text=True); "
               "sys.stdout.write(p.stdout); sys.stderr.write(p.stderr); sys.exit(p.returncode)")
    proc = run_process(code=wrapper)
    assert proc.returncode == 0, proc.stderr
    code, kb = proc.stdout.split()
    assert code == "0"
    return int(kb) / 1024


class TestMemory:
    # Peak RSS bounds about 1.2 times the peaks measured on a 2-core sandbox; the
    # interpreter and numpy alone take about 29 MB.  A pass holds one block of nodes at
    # a time, at any n.
    @linux_rss
    def test_verify_all_peak_rss(self):
        mb = peak_rss_mb("verify", "all", "--json")
        assert mb <= BOUND_ALL, f"verify all peaked at {mb:.1f} MB"

    @linux_rss
    def test_orthogonality_at_the_node_limit_peak_rss(self):
        # The Gram pass would take 953 MB in one piece.
        mb = peak_rss_mb("verify", "orthogonality", "--nodes", "64")
        assert mb <= BOUNDS_64["orthogonality"], f"verify orthogonality --nodes 64 peaked at {mb:.1f} MB"

    @linux_rss
    def test_poisson_at_the_node_limit_peak_rss(self):
        # The kernel pass would take 231 MB in one piece.
        mb = peak_rss_mb("verify", "poisson", "--nodes", "64")
        assert mb <= BOUNDS_64["poisson"], f"verify poisson --nodes 64 peaked at {mb:.1f} MB"

    @linux_rss
    @pytest.mark.parametrize("suite", ["normalization", "lemma-zp", "collapse", "conformal"])
    def test_check_at_the_node_limit_peak_rss(self, suite):
        mb = peak_rss_mb("verify", suite, "--nodes", "64")
        assert mb <= BOUNDS_64[suite], f"verify {suite} --nodes 64 peaked at {mb:.1f} MB"

    @pytest.mark.parametrize("chart", ["u2", "s3"])
    def test_passes_hold_a_few_blocks_of_rows(self, chart):
        # At n = 32 a pass runs over 8 blocks of GRAM_BLOCK nodes.  tracemalloc counts every
        # numpy buffer: the Gram pass of the 4-cycle orthogonality rows peaks at 1.6 blocks of
        # its 120 rows, and a kernel pass at 1.8 blocks of its 29 rows.  Building the n^3
        # grid first takes them to 3.3 and 2.9; stacking copies of the rows takes the Gram
        # pass to 4.0.
        idxs = list(quadrature._basis_indices())
        prims = [BasisExpansion({TIndex(L, n, m, k): 1}) for (L, n, m) in idxs for k in (0, 1)]
        duals = [quadrature._dual(L, n, m, -k - 2) for (L, n, m) in idxs for k in (0, 1)]
        W = [ComplexQuaternion(0.1 * i, 0.05j, -0.02 * i, 0.3 - 0.01j * i) for i in range(8)]
        rows = [(BasisExpansion.monomial("z11", k), (W[i], W[i + 1])) for i in range(7) for k in range(3)]
        rows += [(BasisExpansion.one(), (None, w)) for w in W]
        spec = quadrature.QuadratureSpec(chart, 0.9, 32)
        for run_pass, n_rows, bound in ((lambda: quadrature._gram(spec, prims, duals), len(prims) + len(duals), 2.0),
                                        (lambda: quadrature.integrate(spec, rows), len(rows), 2.5)):
            tracemalloc.start()
            try:
                run_pass()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * n_rows * quadrature.GRAM_BLOCK * 16, peak
