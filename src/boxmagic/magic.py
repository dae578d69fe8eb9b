"""Exact-rational engine for the operators attached to box diagrams.

An n-loop box diagram induces an operator on pairs of harmonic
polynomials; on the generator families

    left:  (z11)^k (x) 1        right:  1 (x) (z'11)^k

its image is a homogeneous polynomial sum_p c_p (w11)^(k-p) (w'11)^p
with exact rational coefficients.  For the n-loop ladder the
coefficients are the a^k(n, p) defined by

    a^k(1, p) = 1/(k+1),
    a^k(n+1, p) = sum_{q=p}^{k} a^k(n, q) / (q+1),

and the operator acts on the k-th irreducible component of the tensor
square by the scalar

    mu^(n)_k = sum_{p=0}^{k-1} (-1)^(k+p+1) a^(k-1)(n, p) C(k-1, p).

The closed row a^k(n, p) = sum_m (-1)^(m-1-p) C(k, m-1) C(m-1, p) / m^n and
Vandermonde's identity give mu^(n)_k = sum_{m=1}^{k} (-1)^(k+m) C(k-1, m-1)
C(k+m-2, k-1) / m^n, which `mu_table` sums for every k in one pass; the tests
hold it to the a-recursion and to the eigenvalues extracted from ladder images.

An n-loop diagram is the one-loop box with n-1 slingshots attached in
turn.  The rule of the last site (`_attach`) gives its image from the
images one loop below, and each site has one directly reducible
generator family:

* site Z1, left family:  multiply the degree-p image by (w'11)^(k-p),
  summed over p <= k with weight 1/(k+1);
* site Z2, right family: same with (w11)^(k-p) (this is the ladder
  recursion);
* site W1, left family:  substitute the w11 slot of the image below by
  the new vertex and re-integrate, sending (w11)^a to
  1/(a+1) sum_r (w11)^r (w'11)^(a-r);
* site W2, right family: mirror of the previous rule on the w'11 slot.

The opposite family follows from the swap symmetry
image_left(w, w') = image_right(w', w).  A rule sees the history only
through the images below, so `verify_magic` proves the identities for
all 4^(n-1) histories by induction over the last slingshot.  It counts
the diagram classes by a(n) = 4 a(n-1) - 2 a(n-2), not by enumeration.

All arithmetic is exact; no floating point enters this module.  Rows
and images are carried as integer numerators over lcm(1..k+1)^n and
become Fractions only in the public results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product

from .diagrams import EXTERNALS, MAX_LOOPS, BoxDiagram, from_history

__all__ = [
    "CoeffTable", "GeneratorImage", "EigenvalueTable", "MagicReport", "a_table", "mu_table",
    "ladder_image", "diagram_image", "verify_magic", "fraction_str", "fraction_decimal",
    "mu_table_payload", "a_table_payload", "payload_to_csv", "payload_to_json",
]

SIDES = ("left", "right")


@dataclass(frozen=True)
class CoeffTable:
    """Exact coefficients a^k(n, 0..k) of the n-loop ladder on degree-k generators."""

    n: int
    k: int
    a: tuple[Fraction, ...]


@dataclass(frozen=True)
class GeneratorImage:
    """Image polynomial sum_p coeffs[p] * (w11)^(k-p) * (w'11)^p.

    `side` records which generator family was applied: "left" for
    (z11)^k (x) 1, "right" for 1 (x) (z'11)^k.
    """

    k: int
    side: str
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if len(self.coeffs) != self.k + 1:
            raise ValueError("image must have k+1 coefficients")


@dataclass(frozen=True)
class EigenvalueTable:
    """Eigenvalues mu^(n)_k for k = 1..k_max, exact rationals."""

    n: int
    values: tuple[Fraction, ...]


@lru_cache(maxsize=None)  # m = k + 1 <= 65 from the commands (k <= cli.MAX_K)
def _lcm_upto(m: int) -> int:
    """lcm(1, 2, ..., m)."""
    return math.lcm(*range(1, m + 1))


def _a_numerators(n: int, k: int) -> tuple[tuple[int, ...], int]:
    """Row a^k(n, .) as integer numerators over the common denominator lcm(1..k+1)^n.

    Returns (numerators, denominator).  With L = lcm(1..k+1), the
    recursion becomes A_1[p] = L/(k+1), A_n[p] = sum_{q >= p} A_{n-1}[q] L/(q+1):
    every step is exact in integers.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    lcm = _lcm_upto(k + 1)
    weights = [lcm // (q + 1) for q in range(k + 1)]
    row = [weights[k]] * (k + 1)
    for _ in range(n - 1):
        acc = 0
        for q in range(k, -1, -1):
            acc += row[q] * weights[q]
            row[q] = acc
    return tuple(row), lcm**n


@lru_cache(maxsize=None)
def a_table(n: int, k: int) -> CoeffTable:
    """The coefficient row a^k(n, .), by the exact recursion."""
    nums, den = _a_numerators(n, k)
    return CoeffTable(n=n, k=k, a=tuple(Fraction(a, den) for a in nums))


def mu_table(n: int, k_max: int) -> EigenvalueTable:
    """mu^(n)_k for k <= k_max by the closed sum in one pass: numerators over L^n, L = lcm(1..k_max)."""
    if n < 1 or k_max < 0:
        raise ValueError("need n >= 1 and k_max >= 0")
    lcm = _lcm_upto(k_max)
    powers = [(lcm // m) ** n for m in range(1, k_max + 1)]
    den = lcm**n
    values = []
    for k in range(1, k_max + 1):
        total, c = 0, (-1) ** (k + 1)  # c = (-1)^(k+m) C(k-1, m-1) C(k+m-2, k-1), from m = 1
        for m in range(1, k + 1):
            total += c * powers[m - 1]
            c = -c * (k - m) * (k + m - 1) // (m * m)  # exact: both binomials step by one
        values.append(Fraction(total, den))
    return EigenvalueTable(n=n, values=tuple(values))


def ladder_image(n: int, k: int, side: str = "right") -> GeneratorImage:
    """Image of the degree-k generator under the n-loop ladder operator.

    Read off the coefficient table; the one-step ladder recursion that
    agrees with it lives in the tests as an oracle.
    """
    row = a_table(n, k).a
    coeffs = row if side == "right" else tuple(reversed(row))
    return GeneratorImage(k=k, side=side, coeffs=coeffs)


# The generator family that each site's rule reduces directly, then the other one.
_SIDES_OF = {"Z1": SIDES, "Z2": SIDES[::-1], "W1": SIDES, "W2": SIDES[::-1]}


def _attach(site: str, image, m: int, k: int) -> dict[str, tuple[int, ...]]:
    """Level-(m+1) image of the degree-k generator, on both sides, after a slingshot at `site`.

    `image[p][side]` is the level-m image of degree p <= k as integer numerators
    over lcm(1..p+1)^m; the result is over L^(m+1), L = lcm(1..k+1).  The rule
    gives the site's direct side, and the other side is its reversal.
    """
    lcm = _lcm_upto(k + 1)
    side, other = _SIDES_OF[site]
    if site == "W1":
        # (w11)^(k-q) (w'11)^q -> 1/(k-q+1) sum_{j >= q} (w11)^(k-j) (w'11)^j: a prefix sum.
        out = list(accumulate(c * (lcm // (k - q + 1)) for q, c in enumerate(image[k][side])))
    elif site == "W2":
        # The mirror on the w'11 slot: a suffix sum.
        sub = image[k][side]
        out = list(accumulate(sub[q] * (lcm // (q + 1)) for q in range(k, -1, -1)))[::-1]
    else:
        # Multiply the degree-p image by (w'11)^(k-p) (Z1) or (w11)^(k-p) (Z2), weight 1/(k+1).
        out = [0] * (k + 1)
        for p in range(k + 1):
            scale = (lcm // _lcm_upto(p + 1)) ** m * (lcm // (k + 1))
            shift = k - p if site == "Z1" else 0
            for q, c in enumerate(image[p][side]):
                out[shift + q] += c * scale
    return {side: tuple(out), other: tuple(out[::-1])}


def _ladder_images(n: int, k_max: int) -> list[dict[str, tuple[int, ...]]]:
    """The n-loop ladder image of every degree p <= k_max on both sides, laid out as `_attach` takes it."""
    rows = (_a_numerators(n, p)[0] for p in range(k_max + 1))
    return [{"left": row[::-1], "right": row} for row in rows]


def diagram_image(d: BoxDiagram, side: str, k: int) -> GeneratorImage:
    """Image of the degree-k generator under diagram d: `_attach` folded over its history.

    The fold starts from the one-loop images 1/(p+1) sum_q (w11)^(p-q) (w'11)^q, p <= k.
    """
    if side not in SIDES:
        raise ValueError(f"unsupported generator family {side!r}")
    if k < 0:
        raise ValueError("generator degree must be >= 0")
    if from_history(d.history).solid != d.solid:
        raise ValueError("diagram history does not reproduce the diagram")
    images = _ladder_images(1, k)
    for m, site in enumerate(d.history, start=1):
        images = [_attach(site, images, m, p) for p in range(k + 1)]
    den = _lcm_upto(k + 1) ** d.n
    return GeneratorImage(k, side, tuple(Fraction(c, den) for c in images[k][side]))


@dataclass(frozen=True)
class MagicReport:
    """Outcome at n loops, k <= k_max: n-loop diagram classes, one failure per level, site, side and k."""

    n: int
    k_max: int
    diagram_count: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_magic(n: int, k_max: int) -> MagicReport:
    """Check that every n-loop diagram has the ladder image, by induction over the last slingshot.

    At every level m < n, each site must send the m-loop ladder images (every
    degree, both sides) to the (m+1)-loop ladder image: one `_attach` call per
    level, site and k <= k_max, whatever the number of histories.  Images are
    compared as integer numerators; Fractions are made only for failure messages.
    The class count is a(n) = 4 a(n-1) - 2 a(n-2), a(1) = 1, a(2) = 2 (OEIS A006012),
    held to `enumerate_diagrams` for every n <= MAX_LOOPS by the tests.
    """
    if not (1 <= n <= MAX_LOOPS and k_max >= 0):
        raise ValueError(f"need 1 <= n <= {MAX_LOOPS} and k_max >= 0")
    before, diagram_count = 1, 1  # a(0) = 1 gives a(2) = 4 a(1) - 2 a(0) = 2
    for _ in range(n - 1):
        before, diagram_count = diagram_count, 4 * diagram_count - 2 * before
    failures: list[str] = []
    ladder = _ladder_images(1, k_max)
    for m in range(1, n):
        target = _ladder_images(m + 1, k_max)
        for site, k in product(EXTERNALS, range(k_max + 1)):
            got = _attach(site, ladder, m, k)
            for side in SIDES:
                if got[side] != target[k][side]:
                    den = _lcm_upto(k + 1) ** (m + 1)
                    got_f, want_f = (tuple(Fraction(c, den) for c in x) for x in (got[side], target[k][side]))
                    failures.append(f"level {m}->{m + 1} site={site} side={side} k={k}: {got_f} != {want_f}")
        ladder = target
    return MagicReport(n=n, k_max=k_max, diagram_count=diagram_count, failures=tuple(failures))


def fraction_str(x: Fraction) -> str:
    """Exact "num/den" rendering used in JSON artifacts."""
    return f"{x.numerator}/{x.denominator}"


def fraction_decimal(x: Fraction, digits: int = 30) -> str:
    """Decimal rendering at the given number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def mu_table_payload(n: int, k_max: int) -> dict:
    table = mu_table(n, k_max)
    return {
        "schema": "boxmagic.mu-table/1",
        "loops": n,
        "k_max": k_max,
        "values": [
            {"k": k + 1, "exact": fraction_str(v), "decimal": fraction_decimal(v)}
            for k, v in enumerate(table.values)
        ],
    }


def a_table_payload(n: int, k: int) -> dict:
    table = a_table(n, k)
    return {
        "schema": "boxmagic.a-table/1",
        "loops": n,
        "k": k,
        "values": [
            {"p": p, "exact": fraction_str(v), "decimal": fraction_decimal(v)}
            for p, v in enumerate(table.a)
        ],
    }


def payload_to_csv(payload: dict) -> str:
    """CSV rendering of a mu- or a-table payload (exact and decimal columns)."""
    key = "k" if payload["schema"].startswith("boxmagic.mu-table") else "p"
    lines = [f"{key},exact,decimal"]
    for row in payload["values"]:
        lines.append(f'{row[key]},{row["exact"]},{row["decimal"]}')
    return "\n".join(lines) + "\n"


def payload_to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
