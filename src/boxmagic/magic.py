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

For an arbitrary diagram the image is computed by peeling the recorded
last slingshot.  Each site has one directly reducible generator family:

* site Z1, left family:  multiply by (w'11)^(k-p) and recurse at p,
  with weight 1/(k+1);
* site Z2, right family: same with (w11)^(k-p) (this is the ladder
  recursion);
* site W1, left family:  substitute the w11 slot of the predecessor
  image by the peeled vertex and re-integrate, sending (w11)^a to
  1/(a+1) sum_r (w11)^r (w'11)^(a-r);
* site W2, right family: mirror of the previous rule on the w'11 slot.

The opposite family is routed through the swap symmetry
image_left(w, w') = image_right(w', w); `verify_magic` is the
correctness gate for this reconstruction: it peels the history of
every enumerated diagram and requires the integer numerators of its
image to equal those of the ladder row, degree by degree.

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

from .diagrams import BoxDiagram, enumerate_diagrams, from_history

__all__ = [
    "CoeffTable",
    "GeneratorImage",
    "EigenvalueTable",
    "MagicReport",
    "a_table",
    "mu",
    "mu_table",
    "ladder_image",
    "diagram_image",
    "verify_magic",
    "fraction_str",
    "fraction_decimal",
    "mu_table_payload",
    "a_table_payload",
    "payload_to_csv",
    "payload_to_json",
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


def mu(n: int, k: int) -> Fraction:
    """Eigenvalue mu^(n)_k via the alternating-binomial sum over a^(k-1)(n, .)."""
    if k < 1:
        raise ValueError("component index k must be >= 1")
    nums, den = _a_numerators(n, k - 1)
    sign = -1 if k % 2 == 0 else 1  # (-1)^(k+p+1) at p = 0
    total = 0
    for p, a in enumerate(nums):
        total += sign * a * math.comb(k - 1, p)
        sign = -sign
    return Fraction(total, den)


def mu_table(n: int, k_max: int) -> EigenvalueTable:
    return EigenvalueTable(n=n, values=tuple(mu(n, k) for k in range(1, k_max + 1)))


def ladder_image(n: int, k: int, side: str = "right") -> GeneratorImage:
    """Image of the degree-k generator under the n-loop ladder operator.

    Read off the coefficient table; the one-step ladder recursion that
    agrees with it lives in the tests as an oracle.
    """
    row = a_table(n, k).a
    coeffs = row if side == "right" else tuple(reversed(row))
    return GeneratorImage(k=k, side=side, coeffs=coeffs)


_DIRECT_SIDE = {"Z1": "left", "Z2": "right", "W1": "left", "W2": "right"}


@lru_cache(maxsize=None)
def _image_numerators(history: tuple[str, ...], side: str, k: int) -> tuple[int, ...]:
    """Image coefficients as integer numerators over lcm(1..k+1)^(len(history)+1).

    Every rule divides by an integer in 1..k+1 once per loop, so the
    common denominator of a degree-k image grows by one factor
    L = lcm(1..k+1) per peeled slingshot; a degree-p sub-image is
    brought over to L by the integer factor (L/lcm(1..p+1))^loops.
    """
    lcm = _lcm_upto(k + 1)
    if not history:
        return (lcm // (k + 1),) * (k + 1)
    site = history[-1]
    if _DIRECT_SIDE[site] != side:
        # Route through the swap symmetry: the other family is direct.
        other = "left" if side == "right" else "right"
        return tuple(reversed(_image_numerators(history, other, k)))
    prev = history[:-1]
    out = [0] * (k + 1)
    if site in ("Z1", "Z2"):
        # Multiply by (w'11)^(k-p) (Z1) or (w11)^(k-p) (Z2), recurse at p, weight 1/(k+1).
        shift = site == "Z1"
        for p in range(k + 1):
            scale = (lcm // _lcm_upto(p + 1)) ** len(history) * (lcm // (k + 1))
            for q, c in enumerate(_image_numerators(prev, side, p)):
                out[k - p + q if shift else q] += c * scale
    elif site == "W1":
        # (w11)^(k-q) (w'11)^q -> 1/(k-q+1) sum_{j >= q} (w11)^(k-j) (w'11)^j: a prefix sum.
        acc = 0
        for q, c in enumerate(_image_numerators(prev, side, k)):
            acc += c * (lcm // (k - q + 1))
            out[q] = acc
    else:  # W2, the mirror: a suffix sum.
        sub = _image_numerators(prev, side, k)
        acc = 0
        for q in range(k, -1, -1):
            acc += sub[q] * (lcm // (q + 1))
            out[q] = acc
    return tuple(out)


@lru_cache(maxsize=None)
def _history_solid(history: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return from_history(history).solid


def diagram_image(d: BoxDiagram, side: str, k: int) -> GeneratorImage:
    """Image of the degree-k generator under the operator of diagram d.

    Evaluates by peeling the recorded attachment history; the base case
    is the one-loop image 1/(k+1) sum_p (w11)^(k-p) (w'11)^p.
    """
    if side not in SIDES:
        raise ValueError(f"unsupported generator family {side!r}")
    if k < 0:
        raise ValueError("generator degree must be >= 0")
    if _history_solid(d.history) != d.solid:
        raise ValueError("diagram history does not reproduce the diagram")
    den = _lcm_upto(k + 1) ** d.n
    return GeneratorImage(k, side, tuple(Fraction(c, den) for c in _image_numerators(d.history, side, k)))


@dataclass(frozen=True)
class MagicReport:
    """Outcome of comparing all n-loop diagram images against the ladder."""

    n: int
    k_max: int
    diagram_count: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_magic(n: int, k_max: int) -> MagicReport:
    """Check that every enumerated n-loop diagram yields the same images.

    For both generator families and every degree k <= k_max, each
    diagram's image must coincide exactly with the ladder image: both are
    integer numerators over lcm(1..k+1)^n (the ladder row reversed on the
    left), compared as tuples; Fractions are made only for failure messages.
    """
    diagrams = enumerate_diagrams(n)
    failures: list[str] = []
    for side in SIDES:
        for k in range(k_max + 1):
            row, den = _a_numerators(n, k)
            expected = row if side == "right" else row[::-1]
            for i, d in enumerate(diagrams):
                got = _image_numerators(d.history, side, k)
                if got != expected:
                    failures.append(
                        f"n={n} side={side} k={k} diagram#{i} history={d.history}: "
                        f"{tuple(Fraction(c, den) for c in got)} != {tuple(Fraction(c, den) for c in expected)}"
                    )
    return MagicReport(n=n, k_max=k_max, diagram_count=len(diagrams), failures=tuple(failures))


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
