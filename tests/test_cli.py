"""Tests for the command-line interface contract."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from boxmagic.cli import MAX_K, main

ROOT = Path(__file__).resolve().parents[1]


def run_process(*argv: str, code: str | None = None) -> subprocess.CompletedProcess:
    """`python -m boxmagic.cli ARGV` (or `python -c CODE`) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
        code, _, _ = run(capsys, "diagrams", "--loops", "6")
        assert code == 2


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
        code, _, _ = run(capsys, "magic", "--loops", "9")
        assert code == 2

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

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "nonsense")
        assert exc.value.code == 2


class TestPhi:
    def test_seventeen_digits(self, capsys):
        code, out, _ = run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.2")
        assert code == 0
        text = out.strip()
        assert float(text) == pytest.approx(18.5455412166476515, rel=1e-15)
        assert len(text.replace(".", "").lstrip("-")) >= 17

    def test_level_two(self, capsys):
        code, out, _ = run(capsys, "phi", "--level", "2", "--x", "0.1", "--y", "0.2")
        assert code == 0
        assert out.strip().startswith("34.328001574515")

    def test_constant_variant_flag(self, capsys):
        code, out, _ = run(capsys, "phi", "--level", "1", "--x", "0.1", "--y", "0.1",
                           "--constant", "pi-squared")
        assert code == 0
        assert out.strip().startswith("9.10778089194327")

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
# "{file}" for an existing file.
CONTRACT_GRID = [
    (("verify", "normalization", "--nodes", "8"), 0),
    (("verify", "normalization", "--nodes", "8", "--tol", "1e-300"), 1),
    (("verify", "normalization", "--nodes", "3"), 2),
    (("verify", "orthogonality", "--nodes", "3"), 2),
    (("verify", "normalization", "--nodes", "65"), 2),
    (("verify", "normalization", "--radius", "-1"), 2),
    (("verify", "poisson", "--radius", "nan"), 2),
    (("verify", "collapse", "--tol", "0"), 2),
    (("verify", "normalization", "--nodes", "8", "--out", "{missing}"), 2),
    (("phi", "--level", "2", "--x", "0.1", "--y", "0.2"), 0),
    (("phi", "--level", "2", "--x", "0.1", "--y", "nan"), 2),
    (("phi", "--level", "1", "--x", "inf", "--y", "0.1"), 2),
    (("phi", "--level", "1", "--x", "0.6", "--y", "0.6"), 2),
    (("phi", "--level", "3", "--x", "0.1", "--y", "0.2"), 2),
    (("mu", "--loops", "2", "--k-max", "4", "--out", "{missing}"), 2),
    (("mu", "--loops", "0"), 2),
    (("acoeff", "--loops", "2", "--k", "x"), 2),
    (("magic", "--loops", "2", "--k-max", "-1"), 2),
    (("diagrams", "--loops", "9"), 2),
    (("diagrams", "--loops", "2", "--dot-dir", "{file}"), 2),
]


class TestContract:
    @pytest.mark.parametrize("argv, expected", CONTRACT_GRID, ids=[" ".join(a) for a, _ in CONTRACT_GRID])
    def test_exit_code_and_no_traceback(self, tmp_path, argv, expected):
        paths = {"{missing}": str(tmp_path / "missing" / "out.txt"), "{file}": str(tmp_path / "file")}
        (tmp_path / "file").write_text("", encoding="utf-8")
        proc = run_process(*(paths.get(a, a) for a in argv))
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr
        assert "nan" not in proc.stdout.lower()
        assert proc.returncode == expected, proc.stderr
        if expected == 2:
            assert proc.stderr.strip()


class TestDependencies:
    def test_cli_import_leaves_scipy_out(self):
        proc = run_process(code="import sys, boxmagic.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_numpy_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
        assert names == ["numpy"]
