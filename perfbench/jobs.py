"""Workload job lists.

A job is a JSON-serialisable list whose first element names the
operation.  `build` makes the list for a workload from the seed: the
same seed gives the same list.  `worker.py` executes the jobs and
`checks.py` checks their results.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact", "quadrature", "ladder")

# Exact jobs, keeping the share of work of each layer: diagram
# enumeration about 60 %, the mu recursion about 20 %, history peeling
# in verify_magic about 25 %.
EXACT = [["mu", 20, 96], ["mu", 2, 96], ["diagrams", 6], ["magic", 4, 24], ["magic", 5, 12]]

# Quadrature checks, called with run_suite's defaults (those of `boxmagic
# verify all`); the four that accept a seed get one derived from the
# workload seed.
CHECKS = ("normalization", "poisson", "lemma_zp", "collapse", "orthogonality", "conformal")
SEEDED_CHECKS = ("poisson", "lemma_zp", "collapse", "conformal")

# Ladder evaluations: per drawn point, phi1 (pi-squared constant) and
# phi2 at (x, y), then li(N, z) for N = 2, 3, 4 at three drawn z.
LADDER_POINTS = 4000
DIAGONAL_EVERY = 8  # every 8th phi point has x == y, where phi2 is expected to be right


def build(workload: str, seed: int) -> list:
    """The job list of a workload, made from the seed."""
    rng = random.Random(seed)
    if workload == "exact":
        jobs = [list(j) for j in EXACT]
        rng.shuffle(jobs)
        return jobs
    if workload == "quadrature":
        check_seed = rng.randrange(2**32)
        return [["check", name, check_seed if name in SEEDED_CHECKS else None]
                for name in CHECKS]
    if workload == "ladder":
        jobs = []
        for i in range(LADDER_POINTS):
            x, y = _principal_point(rng, diagonal=i % DIAGONAL_EVERY == 0)
            jobs.append(["phi1", x, y])
            jobs.append(["phi2", x, y])
            for order in (2, 3, 4):
                jobs.append(["li", order, _disc_point(rng)])
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _principal_point(rng: random.Random, diagonal: bool) -> tuple[float, float]:
    """(x, y) with sqrt(x) + sqrt(y) < 0.95 and both square roots >= 0.05."""
    if diagonal:
        a = rng.uniform(0.05, 0.475)
        return a * a, a * a
    a = rng.uniform(0.05, 0.85)
    b = rng.uniform(0.05, 0.95 - a)
    return (a * a, b * b) if rng.random() < 0.5 else (b * b, a * a)


def _disc_point(rng: random.Random) -> list[float]:
    """z with 0.05 <= |z| <= 0.95 and uniform argument, as [re, im].

    About half the draws have |z| <= 1/2 (power series inside li), the
    rest go through the integral representation.
    """
    r = rng.uniform(0.05, 0.95)
    t = rng.uniform(-math.pi, math.pi)
    return [r * math.cos(t), r * math.sin(t)]

