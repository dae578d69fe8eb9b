"""Checks of workload outputs against pinned digests and independent oracles.

Exact jobs are checked twice: against SHA-256 digests pinned in
digests.json, and against facts computed here (the two-loop closed form
of mu, the known diagram counts, verify_magic passing).  Enumerated
diagrams are digested through a canonical form computed here, so the
digest holds for any choice of representative and of key format in the
program, and the forms must be distinct.  Quadrature
checks must pass.  Ladder evaluations are compared with oracles
computed here with numpy: the Usyukina-Davydychev one-dimensional
integral for Phi^(L) and the integral Li_N(z) = z/(N-1)! Int_0^1
(-ln t)^(N-1) / (1 - z t) dt, both by Gauss-Legendre after the
substitution t = s^6, which tames the logarithmic end-point singularity.

Every mismatch is a failure.  `known_defect` names the failures the
program has at the commit that defined the benchmark: off the diagonal
x == y, phi2 returns the value of a wrong formula, `phi2_defect`
computed here.  Such failures are counted like any other; they only do
not make a run incorrect.  A phi2 value that matches neither formula is
an unexpected failure.

run.py calls this module as a separate process, so that numpy and the
oracle arrays never enlarge the run.py process:

    python3 perfbench/checks.py JOBS.json OUTPUTS.json [OUTPUTS.json ...]

prints one JSON line with the operations attempted and failed.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text(encoding="utf-8"))

# Number of distinct n-loop box diagrams, n = 1..6 (OEIS A006012).
DIAGRAM_COUNTS = {1: 1, 2: 2, 3: 6, 4: 20, 5: 68, 6: 232}

# Ladder values must agree with the oracle to this share of max(1, |oracle|).
# The program and the oracles agree to about 1e-13 where both are right;
# phi2's off-diagonal error is above 1e-5.
LADDER_TOL = 1e-9

_NODES = 400
_POWER = 6


def _nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] after t = s^_POWER."""
    x, w = np.polynomial.legendre.leggauss(_NODES)
    s = 0.5 * (x + 1.0)
    return s**_POWER, 0.5 * w * _POWER * s ** (_POWER - 1)


def phi_oracle(L: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi^(L)(x, y) from the Usyukina-Davydychev integral representation.

    Phi^(L) = -1/(L!(L-1)!) Int_0^1 ln^(L-1)(t) (ln(y/x) + ln t)^(L-1)
              (ln(y/x) + 2 ln t) / (y t^2 + (1-x-y) t + x) dt.
    """
    t, w = _nodes()
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[:, None]
    lt = np.log(t)[None, :]
    lyx = np.log(y / x)
    f = lt ** (L - 1) * (lyx + lt) ** (L - 1) * (lyx + 2.0 * lt) / (y * t * t + (1.0 - x - y) * t + x)
    return -(f @ w) / (math.factorial(L) * math.factorial(L - 1))


def li_oracle(N: int, z: np.ndarray) -> np.ndarray:
    """Li_N(z) for |z| < 1 from z/(N-1)! Int_0^1 (-ln t)^(N-1) / (1 - z t) dt."""
    t, w = _nodes()
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    for lo in range(0, z.size, 2048):
        zc = z[lo:lo + 2048, None]
        out[lo:lo + 2048] = zc[:, 0] * ((w * (-np.log(t)) ** (N - 1)) / (1.0 - zc * t)).sum(axis=1)
    return out / math.factorial(N - 1)


def phi2_defect(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The value phi2 returns at the commit that defined the benchmark.

    It is the Usyukina-Davydychev closed form for Phi^(2) with two terms
    wrong: the difference Li_2(-rho x) - Li_2(-rho y) in place of their
    sum, and pi^2/12 ln(y/x) in place of pi^2/12 ln^2(y/x).  Both terms
    vanish on the diagonal x == y, where phi2 is right.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.sqrt((1.0 - x - y) ** 2 - 4.0 * x * y)
    rho = 2.0 / (1.0 - x - y + lam)
    a, b = -rho * x, -rho * y
    lyx = np.log(y / x)
    lx, ly = np.log(rho * x), np.log(rho * y)

    def li_re(N: int, z: np.ndarray) -> np.ndarray:
        return li_oracle(N, z).real

    val = (6.0 * (li_re(4, a) + li_re(4, b))
           + 3.0 * lyx * (li_re(3, a) - li_re(3, b))
           + 0.5 * lyx**2 * (li_re(2, a) - li_re(2, b))
           + 0.25 * lx**2 * ly**2
           + 0.5 * math.pi**2 * lx * ly
           + math.pi**2 * lyx / 12.0
           + 7.0 * math.pi**4 / 60.0)
    return val / lam


def mu2(k: int) -> Fraction:
    """Two-loop eigenvalue: 1 at k = 1, then (-1)^(k+1) / (k(k-1))."""
    return Fraction(1) if k == 1 else Fraction((-1) ** (k + 1), k * (k - 1))


def oracle(jobs: list) -> list:
    """Expected values of the ladder jobs (None for other jobs)."""
    out: list = [None] * len(jobs)
    for op, L in (("phi1", 1), ("phi2", 2)):
        idx = [i for i, j in enumerate(jobs) if j[0] == op]
        if idx:
            vals = phi_oracle(L, [jobs[i][1] for i in idx], [jobs[i][2] for i in idx])
            for i, v in zip(idx, vals):
                out[i] = float(v)
    for N in sorted({j[1] for j in jobs if j[0] == "li"}):
        idx = [i for i, j in enumerate(jobs) if j[0] == "li" and j[1] == N]
        vals = li_oracle(N, [complex(*jobs[i][2]) for i in idx])
        for i, v in zip(idx, vals):
            out[i] = complex(v)
    return out


def canonical_form(n: int, solid, dashed, order) -> tuple:
    """Form of a diagram invariant under relabelling its internal vertices T1..Tn.

    Internal vertices are first sorted by a signature (their relations to
    the fixed externals and their counts of internal relations); the form
    is the least edge encoding over the relabellings that keep that
    order, so only vertices with equal signatures are permuted.
    """
    internals = [f"T{i}" for i in range(1, n + 1)]

    def signature(v: str) -> tuple:
        def others(pairs):
            return sorted(b if a == v else a for a, b in pairs if v in (a, b))
        return (others(solid), others(dashed),
                sorted(b for a, b in order if a == v), sorted(a for a, b in order if b == v))

    def external(sig: tuple) -> tuple:
        return tuple(tuple((x if not x.startswith("T") else "T") for x in part) for part in sig)

    classes: dict[tuple, list[str]] = {}
    for v in internals:
        classes.setdefault(external(signature(v)), []).append(v)
    groups = [classes[k] for k in sorted(classes)]

    best = None
    for perms in itertools.product(*(itertools.permutations(g) for g in groups)):
        names = {v: f"T{i}" for i, v in enumerate(itertools.chain(*perms), start=1)}

        def rn(v: str) -> str:
            return names.get(v, v)

        form = (tuple(sorted(tuple(sorted((rn(a), rn(b)))) for a, b in solid)),
                tuple(sorted(tuple(sorted((rn(a), rn(b)))) for a, b in dashed)),
                tuple(sorted((rn(a), rn(b)) for a, b in order)))
        if best is None or form < best:
            best = form
    return best


@functools.lru_cache(maxsize=8)
def _diagrams_digest(diagrams_json: str) -> tuple[str, bool]:
    """SHA-256 of the sorted canonical forms, and whether the forms are distinct."""
    forms = sorted(canonical_form(*d) for d in json.loads(diagrams_json))
    text = repr(forms)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(set(forms)) == len(forms)


def digest_id(job: list) -> str:
    """Key of a job's pinned digest in digests.json."""
    return ":".join(str(part) for part in job)


def failure(job: list, output: dict, expected, digests: dict = DIGESTS) -> str | None:
    """Why the output of one job is wrong, or None when every check holds."""
    if "error" in output:
        return output["error"]
    op = job[0]
    if op == "diagrams":
        sha256, distinct = _diagrams_digest(json.dumps(output["diagrams"]))
        if not distinct:
            return f"enumerate_diagrams({job[1]}) returned isomorphic diagrams"
        output = dict(output, sha256=sha256)
    if op in ("mu", "diagrams", "magic"):
        pinned = digests.get(digest_id(job))
        if output["sha256"] != pinned:
            return f"sha256 {output['sha256']} != pinned {pinned}"
    if op == "mu":
        exact = output["exact"]
        if len(exact) != job[2] or exact[0] != "1/1":
            return "mu table must have k_max rows and mu_1 = 1"
        if job[1] == 2:
            for k, got in enumerate(exact, start=1):
                want = mu2(k)
                if got != f"{want.numerator}/{want.denominator}":
                    return f"mu^(2)_{k} = {got}, closed form gives {want}"
        return None
    if op in ("diagrams", "magic"):
        if output["count"] != DIAGRAM_COUNTS.get(job[1]):
            return f"{output['count']} diagrams at n={job[1]}, expected {DIAGRAM_COUNTS.get(job[1])}"
        if op == "magic" and not output["passed"]:
            return "verify_magic reported failures"
        return None
    if op == "check":
        if not (output["passed"] and math.isfinite(output["residual"])):
            return f"check {job[1]} did not pass: residual {output['residual']}"
        return None
    got = output["value"]
    got = complex(*got) if op == "li" else got
    if not abs(got - expected) <= LADDER_TOL * max(1.0, abs(expected)):
        return f"{op}{tuple(job[1:])} = {got}, oracle {expected}"
    return None


def defects(jobs: list) -> list:
    """Value of the known defect for phi2 jobs off the diagonal (None for other jobs)."""
    out: list = [None] * len(jobs)
    idx = [i for i, j in enumerate(jobs) if j[0] == "phi2" and j[1] != j[2]]
    if idx:
        for i, v in zip(idx, phi2_defect([jobs[i][1] for i in idx], [jobs[i][2] for i in idx])):
            out[i] = float(v)
    return out


def known_defect(job: list, output: dict, defect) -> bool:
    """Whether a failed output is the defect present when the benchmark was defined."""
    if defect is None or "value" not in output:
        return False
    got = output["value"]
    return abs(got - defect) <= LADDER_TOL * max(1.0, abs(defect))


def check_outputs(jobs: list, outputs_per_process: list[list], digests: dict = DIGESTS) -> dict:
    """Check the outputs of every process against one oracle evaluation."""
    expected, defect = oracle(jobs), defects(jobs)
    attempted = failed = known = 0
    by_op: dict[str, int] = {}
    unexpected: list[str] = []
    for outputs in outputs_per_process:
        if len(outputs) != len(jobs):
            raise ValueError(f"{len(outputs)} outputs for {len(jobs)} jobs")
        for job, output, want, bad in zip(jobs, outputs, expected, defect):
            attempted += 1
            why = failure(job, output, want, digests)
            if why is None:
                continue
            failed += 1
            by_op[job[0]] = by_op.get(job[0], 0) + 1
            if known_defect(job, output, bad):
                known += 1
            elif len(unexpected) < 5:
                unexpected.append(why)
    return {"attempted": attempted, "failed": failed, "known": known, "by_op": by_op,
            "unexpected": unexpected}


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        jobs = json.load(fh)
    outputs = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            outputs.append(json.load(fh))
    print(json.dumps(check_outputs(jobs, outputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
