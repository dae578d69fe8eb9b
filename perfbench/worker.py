"""One cold workload process: time set-up, run the jobs, report.

Reads a JSON spec on stdin: {"jobs_path": str or null, "outputs_path":
str, "trace": bool, "spans_path": str or null, "run_id": str}.  Times
the import of `boxmagic.cli` (set-up), then the job list read from
jobs_path (wall); writes the summarized outputs of the jobs to
outputs_path for checks.py, and prints one JSON line: setup_s, wall_s,
peak_rss_mb, seconds per kind of job and, when traced, the per-layer
metrics.  With no jobs_path it only times the set-up.

Started by `run.py` with src/ on PYTHONPATH.  Everything before the
import uses the standard library only, so the import is timed cold.
Peak RSS is the process's ru_maxrss, which also covers the RSS of the
parent at the time it started this process; run.py therefore stays a
small, standard-library-only process.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

# Bound after the timed import in main().
diagrams = magic = polylog = quadrature = None


def run(job: list):
    """Execute one job through the boxmagic API and return its raw result."""
    op = job[0]
    if op == "phi1":
        return polylog.phi1(job[1], job[2], constant="pi-squared")
    if op == "phi2":
        return polylog.phi2(job[1], job[2])
    if op == "li":
        return polylog.li(job[1], complex(job[2][0], job[2][1]))
    if op == "mu":
        return magic.payload_to_json(magic.mu_table_payload(job[1], job[2]))
    if op == "diagrams":
        return diagrams.enumerate_diagrams(job[1])
    if op == "magic":
        return magic.verify_magic(job[1], job[2])
    if op == "check":
        fn = getattr(quadrature, f"{job[1]}_check")
        return fn() if job[2] is None else fn(seed=job[2])
    raise ValueError(f"unknown job {job!r}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(job: list, raw) -> dict:
    """Plain JSON values of a job's result, for the checks in checks.py."""
    op = job[0]
    if op in ("phi1", "phi2"):
        return {"value": raw}
    if op == "li":
        return {"value": [raw.real, raw.imag]}
    if op == "mu":
        return {"sha256": _sha256(raw), "exact": [row["exact"] for row in json.loads(raw)["values"]]}
    if op == "diagrams":
        return {"count": len(raw), "diagrams": [[d.n, d.solid, d.dashed, sorted(d.order)] for d in raw]}
    if op == "magic":
        text = json.dumps([raw.diagram_count, list(raw.failures)])
        return {"sha256": _sha256(text), "count": raw.diagram_count, "passed": bool(raw.passed)}
    if op == "check":
        return {"passed": bool(raw.passed), "residual": float(raw.residual)}
    raise ValueError(f"unknown job {job!r}")


def main() -> int:
    global diagrams, magic, polylog, quadrature
    spec = json.load(sys.stdin)
    jobs = []
    if spec.get("jobs_path"):
        with open(spec["jobs_path"], encoding="utf-8") as fh:
            jobs = json.load(fh)

    start = time.perf_counter()
    import boxmagic.cli  # noqa: F401  (the set-up every boxmagic command pays)
    setup_s = time.perf_counter() - start
    from boxmagic import diagrams, magic, polylog, quadrature

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()

    raws = []
    job_s: dict[str, float] = {}
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        t0 = clock()
        try:
            raws.append(run(job))
        except Exception as exc:  # a failed operation, reported and counted
            raws.append(exc)
        label = job[0] if job[0] in ("phi1", "phi2") else f"{job[0]}:{job[1]}"
        job_s[label] = job_s.get(label, 0.0) + (clock() - t0)
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])

    if spec.get("outputs_path"):
        outputs = [{"error": f"{type(r).__name__}: {r}"} if isinstance(r, Exception) else summarize(j, r)
                   for j, r in zip(jobs, raws)]
        with open(spec["outputs_path"], "w", encoding="utf-8") as fh:
            json.dump(outputs, fh)
    json.dump({"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
               "job_s": job_s, "layers": layers}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
