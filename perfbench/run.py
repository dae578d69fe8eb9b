"""boxmagic benchmark: cold-interpreter workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Every boxmagic command starts in a fresh interpreter with empty caches,
so each sample is a fresh workload process (worker.py) running the whole
job list of the workload; within a process the jobs share the caches,
as they do inside one command.  Processes run one at a time with one
thread each.  A run starts workload processes while the next one still
fits in --seconds, each after a set-up probe, a process that only does
the set-up (import boxmagic.cli), and fills the rest with probes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of
set-up time over every process, and of wall time and peak RSS over the
workload processes.  --trace 1 alternates plain and traced workload
processes; a traced process wraps boxmagic's functions (spans.py) and
runs under `python -X importtime`, and the run reports the per-layer
metrics of BENCHMARK.json, medians over the traced processes, plus the
tracing overhead, the median over the pairs of traced minus plain wall
time.  Every output is checked (checks.py); the last line
of stdout is the JSON result.  Exit status 1 means the benchmark could
not run, 2 a usage error; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

THREAD_ENV = {"BOXMAGIC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
OUT_DIR = ROOT / ".perfbench"  # job lists, outputs and spans of the last run
IMPORT_PACKAGES = ("numpy", "scipy", "boxmagic")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _run_record(args, samples: dict) -> dict:
    init = (ROOT / "src" / "boxmagic" / "__init__.py").read_text(encoding="utf-8")
    version = next((ln.split("=", 1)[1].strip().strip("\"'") for ln in init.splitlines()
                    if ln.startswith("__version__")), None)
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "commit": _git_commit(),
        "boxmagic_version": version,
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads_env": THREAD_ENV,
        "src_lines": src_lines,
        "samples": samples,
    }


def _import_times(stderr: str) -> dict[str, float]:
    """Self import time per package, in seconds, from `-X importtime` output."""
    out = {p: 0.0 for p in IMPORT_PACKAGES}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in out:
            out[package] += int(fields[0]) * 1e-6
    return out


def _python(args: list[str], stdin: str, deadline: float, trace: bool = False) -> subprocess.CompletedProcess:
    """Run a Python process of the benchmark with pinned threads and src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + args
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} exceeded the run limit of {RUN_LIMIT_S:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{tail}")
    return proc


def _start_worker(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one workload process to completion; returns its report and duration."""
    start = time.monotonic()
    proc = _python([str(HERE / "worker.py")], json.dumps(spec), deadline, trace=spec.get("trace", False))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if spec.get("trace"):
        report["imports"] = _import_times(proc.stderr)
    return report, time.monotonic() - start


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q[0]:.6g}, q3 {q[2]:.6g}, min {min(values):.6g}, max {max(values):.6g}"


def measure(args, jobs_path: Path, deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    """Run the processes of one run: (plain reports, traced reports, set-up samples).

    Without tracing, a set-up probe precedes each workload process and
    probes fill the time left after the last one, so that set-up samples
    spread over the whole run: the machine's speed drifts over tens of
    seconds.  Each report carries the path of the outputs its process wrote.
    """
    begin = time.monotonic()

    def elapsed() -> float:
        return time.monotonic() - begin

    def sample(kind: str, i: int) -> tuple[dict, float]:
        stem = OUT_DIR / f"{args.workload}-{kind}{i}"
        spec = {"jobs_path": str(jobs_path), "outputs_path": f"{stem}-outputs.json",
                "trace": kind == "traced", "run_id": f"{args.workload}-seed{args.seed}-{kind}{i}",
                "spans_path": f"{stem}-spans.json" if kind == "traced" else None}
        report, took = _start_worker(spec, deadline)
        report["outputs_path"] = spec["outputs_path"]
        return report, took

    def probe() -> float:
        report, took = _start_worker({"jobs_path": None, "trace": False}, deadline)
        setups.append(report["setup_s"])
        return took

    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    probe_s = 0.0
    while True:
        if not args.trace:
            probe_s = probe()
        report, step = sample("plain", len(plain))
        plain.append(report)
        if args.trace:
            report, took = sample("traced", len(traced))
            traced.append(report)
            step += took
        if elapsed() + probe_s + step > args.seconds:
            break
    while not args.trace and elapsed() + probe_s <= args.seconds:
        probe_s = probe()
    setups += [r["setup_s"] for r in plain]
    return plain, traced, setups


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "boxmagic" / "__init__.py").is_file():
        print(f"perfbench: no boxmagic sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_LIMIT_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    jobs_path = OUT_DIR / f"{args.workload}-jobs.json"
    jobs_path.write_text(json.dumps(jobs.build(args.workload, args.seed)), encoding="utf-8")
    try:
        plain, traced, setups = measure(args, jobs_path, deadline)
        outputs = [r["outputs_path"] for r in plain + traced]
        proc = _python([str(HERE / "checks.py"), str(jobs_path)] + outputs, "", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    check = json.loads(proc.stdout.strip().splitlines()[-1])
    attempted, failed = check["attempted"], check["failed"]

    walls = [r["wall_s"] for r in plain]
    e2e = {"setup_s": setups, "wall_s": walls, "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    if args.trace:
        # median_low keeps a measured value, so counts stay whole numbers
        values = {m: statistics.median_low([r["layers"][m] for r in traced]) for m in traced[0]["layers"]}
        for package in IMPORT_PACKAGES:
            values[f"cli.import_{package}_s"] = statistics.median_low([r["imports"][package] for r in traced])
        # plain and traced processes alternate, so each pair shares the machine's speed
        values["trace.overhead_s"] = _median([t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)])
        wanted = bench["per_layer"]
    else:
        values = {name: _median(samples) for name, samples in e2e.items()}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} plain and {len(traced)} traced workload process(es), {len(setups)} set-ups")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, samples in e2e.items():
        print(f"  {name:<12s} {_median(samples):.6g} {units[name]}  ({_describe(samples)})")
    known = f"; {check['known']} of them the known defect, phi2 off the diagonal" if check["known"] else ""
    print(f"  {'failed_frac':<12s} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations failed"
          f"{'; by operation ' + json.dumps(check['by_op']) if failed else ''}{known})")
    for why in check["unexpected"]:
        print(f"  FAILED {why}")
    if args.trace:
        print(f"  trace overhead {values['trace.overhead_s']:.6g} s (median over {len(traced)} pair(s) of traced"
              " wall minus plain wall)")
    job_s = {k: _median([r["job_s"][k] for r in plain]) for k in plain[0]["job_s"]}
    print("  job seconds (median): " + ", ".join(f"{k} {v:.4g}" for k, v in job_s.items()))
    samples = {"plain": len(plain), "traced": len(traced), "setups": len(setups)}
    print("run-record " + json.dumps(_run_record(args, samples)))
    print(json.dumps({"correct": failed == check["known"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
