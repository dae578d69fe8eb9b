"""Tests for the command-line interface contract."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from boxmagic import quadrature
from boxmagic.cli import MAX_K, SUITES, main
from boxmagic.diagrams import MAX_LOOPS
from boxmagic.polylog import phi

ROOT = Path(__file__).resolve().parents[1]


def run_process(*argv: str, code: str | None = None, env: dict | None = None) -> subprocess.CompletedProcess:
    """`python -m boxmagic.cli ARGV` (or `python -c CODE`) in a fresh interpreter, with extra `env`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(env or {}))
    cmd = [sys.executable, "-c", code] if code else [sys.executable, "-m", "boxmagic.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


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
        code, out, _ = run(capsys, "mu", "--loops", "2", "--k-max", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,exact,decimal"

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
        ("normalization", "u2", "1e100"),
    ], ids=["normalization-u2", "poisson-s3", "conformal-u2", "normalization-u2-1e100"])
    def test_chart_overflow_is_named(self, capsys, suite, chart, radius):
        # The radius power in the chart density (R^4 on u2, R^3 on s3) leaves the float range;
        # the conformal points pass their side checks first.  At 1e100 only R^4 overflows: the
        # check refuses the radius rather than fail on an underflowed N(Z)^-2.
        code, out, err = run(capsys, "verify", suite, "--radius", radius, "--nodes", "8")
        assert (code, out) == (2, "")
        assert err == (f"verify: {suite} at radius {float(radius):g}: "
                       f"a value of the {chart} chart leaves the float range\n")

    def test_tiny_radius_names_the_integrand(self, capsys):
        # The s3 pass of the normalization meets N(Z)^-2 = inf before any division by R^3 = 0.
        code, out, err = run(capsys, "verify", "normalization", "--radius", "1e-200", "--nodes", "8")
        assert (code, out) == (2, "")
        assert err.startswith("verify: normalization at radius 1e-200: non-finite value of integrand 0 at node")

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
        # Level 2 as recorded when --level accepted only 1 and 2; level 1 is phi(1, x, y),
        # the closed form with the constant term pi^2/3.
        for level, text in (("1", "7.5422291378112707\n"), ("2", "34.328001574515021\n")):
            code, out, _ = run(capsys, "phi", "--level", level, "--x", "0.1", "--y", "0.2")
            assert (code, out) == (0, text)

    @pytest.mark.parametrize("level", range(3, 7))
    def test_higher_levels_are_phi(self, capsys, level):
        code, out, _ = run(capsys, "phi", "--level", str(level), "--x", "0.1", "--y", "0.2")
        assert code == 0
        assert out == f"{phi(level, 0.1, 0.2):.17g}\n"

    def test_constant_variant_flag(self, capsys):
        # Level 1 has one constant term, pi^2/3, so there is no flag to choose it.
        assert run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.1")[:2] == (0, "9.1077808919432748\n")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.1", "--constant", "pi-squared")
        assert exc.value.code == 2
        assert "--constant" in capsys.readouterr().err

    def test_region_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "phi", "--level", "1", "--x", "0.6", "--y", "0.6")
        assert code == 2
        assert "lambda" in err or "region" in err

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


# (argv, exit code): usage errors exit 2, a check that really fails exits 1.
# "{missing}" stands for a file in a directory that does not exist,
# "{file}" for an existing file, "{full}" for /dev/full (every write fails
# with ENOSPC) and "{dots}" for a directory where the first DOT file's name
# is taken by a directory.
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
    (("verify", "normalization", "--nodes", "8", "--out", "{missing}"), 2),
    (("phi", "--level", "2", "--x", "0.1", "--y", "0.2"), 0),
    (("phi", "--level", "2", "--x", "0.1", "--y", "nan"), 2),
    (("phi", "--level", "1", "--x", "inf", "--y", "0.1"), 2),
    (("phi", "--level", "1", "--x", "0.6", "--y", "0.6"), 2),
    (("phi", "--level", "3", "--x", "0.1", "--y", "0.2"), 0),
    (("phi", "--level", "7", "--x", "0.1", "--y", "0.2"), 2),
    (("phi", "--level", "2", "--x", "1e-320", "--y", "0.2"), 0),
    (("phi", "--level", "2", "--x", "1e-320", "--y", "1e-320"), 2),
    (("phi", "--level", "2", "--x", "1e200", "--y", "1e200"), 2),  # x + y >= 1: refused before lambda^2 overflows
    (("phi", "--level", "3", "--x", "1e120", "--y", "1e-3"), 2),
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
]


class TestContract:
    @pytest.mark.parametrize("argv, expected", CONTRACT_GRID, ids=[" ".join(a) for a, _ in CONTRACT_GRID])
    def test_exit_code_and_no_traceback(self, tmp_path, argv, expected):
        if "{full}" in argv and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        paths = {"{missing}": str(tmp_path / "missing" / "out.txt"), "{file}": str(tmp_path / "file"),
                 "{full}": "/dev/full", "{dots}": str(tmp_path / "dots")}
        (tmp_path / "file").write_text("", encoding="utf-8")
        (tmp_path / "dots" / "boxdiag_n2_0.dot").mkdir(parents=True)
        proc = run_process(*(paths.get(a, a) for a in argv))
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr
        assert "nan" not in proc.stdout.lower()
        assert proc.returncode == expected, proc.stderr
        if expected == 2:
            assert proc.stderr.strip()
        if "{full}" in argv or "{dots}" in argv:
            assert "cannot write" in proc.stderr


# Modules that only `verify` may load.
QUADRATURE_STACK = ("numpy", "boxmagic.quadrature", "boxmagic.hc", "boxmagic.tbasis")

# Prints the exit code of main(ARGV) and the QUADRATURE_STACK modules it left loaded.
_LOADED_BY_MAIN = """
import contextlib, io, sys
from boxmagic.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, [m for m in {modules!r} if m in sys.modules])
"""


class TestDependencies:
    def test_cli_import_leaves_quadrature_stack_out(self):
        proc = run_process(code=f"import sys, boxmagic.cli; print([m for m in {QUADRATURE_STACK!r} if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["mu", "--loops", "2", "--k-max", "4"],
        ["acoeff", "--loops", "2", "--k", "3"],
        ["diagrams", "--loops", "3"],
        ["magic", "--loops", "2", "--k-max", "4"],
        ["phi", "--level", "2", "--x", "0.1", "--y", "0.2"],
    ], ids=lambda argv: argv[0])
    def test_commands_leave_quadrature_stack_out(self, argv):
        proc = run_process(code=_LOADED_BY_MAIN.format(argv=argv, modules=QUADRATURE_STACK))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_verify_loads_quadrature_when_it_runs(self):
        argv = ["verify", "normalization", "--nodes", "8"]
        proc = run_process(code=_LOADED_BY_MAIN.format(argv=argv, modules=QUADRATURE_STACK))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"0 {list(QUADRATURE_STACK)}"

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


# Runs main(ARGV) and prints the exit code and the process's own peak RSS (kB).
_PEAK_RSS = """
import contextlib, io, resource
from boxmagic.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


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


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB and inherited on Linux")
class TestMemory:
    def test_verify_all_peak_rss(self):
        mb = peak_rss_mb("verify", "all", "--json")
        assert mb <= 120, f"verify all peaked at {mb:.1f} MB"

    def test_orthogonality_at_the_node_limit_peak_rss(self):
        # The Gram pass holds one block of nodes at a time (953 MB in one piece).
        mb = peak_rss_mb("verify", "orthogonality", "--nodes", "64")
        assert mb <= 200, f"verify orthogonality --nodes 64 peaked at {mb:.1f} MB"

    def test_poisson_at_the_node_limit_peak_rss(self):
        # The kernel pass holds the values of one block of nodes at a time (231 MB in one piece).
        mb = peak_rss_mb("verify", "poisson", "--nodes", "64")
        assert mb <= 120, f"verify poisson --nodes 64 peaked at {mb:.1f} MB"
