"""Self-tests of the benchmark, at tiny job sizes (well under a minute in all).

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "ratio", "B")]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the job lists so that each workload process takes well under a second.

    run.main writes the job list before it starts the workload
    processes, so they run these tiny jobs too.
    """
    monkeypatch.setattr(jobs, "EXACT", [["mu", 4, 8], ["mu", 2, 8], ["diagrams", 4],
                                        ["magic", 3, 4], ["magic", 4, 4]])
    monkeypatch.setattr(jobs, "CHECKS", ("poisson", "lemma_zp", "conformal"))
    monkeypatch.setattr(jobs, "LADDER_POINTS", 40)


def _tiny_outputs(workload: str, tmp_path: Path) -> tuple[list, list]:
    """Job list and outputs of one tiny workload process."""
    spec_jobs = jobs.build(workload, 3)
    jobs_path = tmp_path / f"{workload}-jobs.json"
    jobs_path.write_text(json.dumps(spec_jobs), encoding="utf-8")
    outputs_path = tmp_path / f"{workload}-outputs.json"
    run._start_worker({"jobs_path": str(jobs_path), "outputs_path": str(outputs_path), "trace": False},
                      time.monotonic() + 120)
    return spec_jobs, json.loads(outputs_path.read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


def _result(capsys, workload: str, trace: int, seed: int = 1) -> dict:
    """The JSON result of run.main on the tiny jobs, with a one-second run."""
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_jobs_repeat_for_a_seed():
    for workload in jobs.WORKLOADS:
        assert jobs.build(workload, 5) == jobs.build(workload, 5)
    assert jobs.build("ladder", 5) != jobs.build("ladder", 6)
    radii = [abs(complex(*j[2])) for j in jobs.build("ladder", 5) if j[0] == "li"]
    assert min(radii) <= 0.5 < max(radii)


def test_wrong_pinned_digest_counts_as_failure(tiny, tmp_path):
    spec_jobs, outputs = _tiny_outputs("exact", tmp_path)
    assert checks.check_outputs(spec_jobs, [outputs])["failed"] == 0
    digests = dict(checks.DIGESTS)
    key = checks.digest_id(spec_jobs[0])
    digests[key] = digests[key][:-1] + ("0" if digests[key][-1] != "0" else "1")
    summary = checks.check_outputs(spec_jobs, [outputs], digests)
    assert summary["failed"] / summary["attempted"] > 0
    assert summary["known"] == 0


def test_perturbed_oracle_counts_as_failure(tiny, tmp_path, monkeypatch):
    spec_jobs, outputs = _tiny_outputs("exact", tmp_path)
    monkeypatch.setattr(checks, "mu2", lambda k, exact=checks.mu2: exact(k) + Fraction(1, 10**6))
    assert checks.check_outputs(spec_jobs, [outputs])["failed"] > 0
    monkeypatch.undo()

    spec_jobs, outputs = _tiny_outputs("ladder", tmp_path)
    base = checks.check_outputs(spec_jobs, [outputs])
    assert base["failed"] == base["known"] > 0  # phi2 off the diagonal, and nothing else
    assert set(base["by_op"]) == {"phi2"}
    exact = checks.phi_oracle
    monkeypatch.setattr(checks, "phi_oracle", lambda L, x, y: exact(L, x, y) * (1 + 1e-6))
    perturbed = checks.check_outputs(spec_jobs, [outputs])
    assert perturbed["failed"] > base["failed"]
    assert perturbed["by_op"]["phi1"] > 0


@pytest.mark.parametrize("bad_value", [lambda v: v * (1 + 1e-6), lambda v: float("nan"), lambda v: 0.0],
                         ids=["perturbed", "nan", "zero"])
def test_other_phi2_failure_is_not_the_known_defect(tiny, tmp_path, bad_value):
    spec_jobs, outputs = _tiny_outputs("ladder", tmp_path)
    i = next(i for i, j in enumerate(spec_jobs) if j[0] == "phi2" and j[1] != j[2])
    outputs[i] = {"value": bad_value(outputs[i]["value"])}
    summary = checks.check_outputs(spec_jobs, [outputs])
    assert summary["known"] == summary["failed"] - 1
    outputs[i] = {"error": "ValueError: raised by phi2"}
    summary = checks.check_outputs(spec_jobs, [outputs])
    assert summary["known"] == summary["failed"] - 1


def test_perturbed_phi2_output_makes_the_run_incorrect(tiny, capsys, monkeypatch):
    start_worker = run._start_worker

    def perturbing(spec, deadline):
        report, took = start_worker(spec, deadline)
        if spec.get("jobs_path"):
            specs = json.loads(Path(spec["jobs_path"]).read_text(encoding="utf-8"))
            path = Path(spec["outputs_path"])
            outputs = json.loads(path.read_text(encoding="utf-8"))
            i = next(i for i, j in enumerate(specs) if j[0] == "phi2" and j[1] != j[2])
            outputs[i]["value"] *= 1 + 1e-6
            path.write_text(json.dumps(outputs), encoding="utf-8")
        return report, took

    assert _result(capsys, "ladder", 0)["correct"] is True
    monkeypatch.setattr(run, "_start_worker", perturbing)
    result = _result(capsys, "ladder", 0)
    assert result["correct"] is False and result["failed"] > 0


def test_quadrature_checks_pass(tiny, tmp_path):
    spec_jobs, outputs = _tiny_outputs("quadrature", tmp_path)
    assert checks.check_outputs(spec_jobs, [outputs])["failed"] == 0


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(tiny, capsys, workload):
    result = _result(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_run_yields_every_per_layer_metric_and_repeats_its_counts(tiny, capsys, workload):
    first, second = _result(capsys, workload, 1), _result(capsys, workload, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    layer = {"exact": "diagrams.canonical_key.calls", "quadrature": "quadrature.integrate.calls",
             "ladder": "polylog.li_integral.calls"}[workload]
    assert first["metrics"][layer]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
