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
turn, and its image follows from the images one loop below by the rule
of the last site.  The engine holds the right family only; swapping
Z1 <-> Z2 and W1 <-> W2 exchanges the two families and reverses every
image, image_left(w, w') = image_right(w', w), so on the right family
Z1 and Z2 share one rule, W1 and W2 share another, and the left family
is the reversal, taken only in `ladder_image` and `diagram_image`:

* the ladder step (`_ladder_step`), the rule of W1 and W2: substitute
  the w'11 slot of the degree-k image by the new vertex and re-integrate,
  sending (w11)^(k-q) (w'11)^q to 1/(q+1) sum_{r<=q} (w11)^(k-r) (w'11)^r;
  on the coefficients this is the suffix sum of the a-recursion above,
  and `_a_numerators` is the one-loop row followed by n-1 of these steps;
* the Z rule (`_z_rule`), the rule of Z1 and Z2: multiply the degree-p
  image by (w11)^(k-p) and sum over p <= k with weight 1/(k+1).

So the W sites give the ladder by construction, and the magic identity
is "the Z rule reproduces the ladder step": a rule sees the history only
through the images below, and `verify_magic` proves the identities for
all 4^(n-1) histories by checking that at every level.  It counts the
diagram classes by a(n) = 4 a(n-1) - 2 a(n-2), not by enumeration.

All arithmetic is exact; no floating point enters this module.  Rows
and images are carried as integer numerators over lcm(1..k+1)^n and
become Fractions only in the public results.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

__all__ = [
    "MagicReport", "a_table", "mu_table", "ladder_image", "diagram_image", "verify_magic",
    "fraction_str", "fraction_decimal", "mu_table_payload", "a_table_payload", "payload_to_json",
]

SIDES = ("left", "right")


@lru_cache(maxsize=None)  # m = k + 1 <= 65 from the commands (k <= cli.MAX_K)
def _lcm_upto(m: int) -> int:
    """lcm(1, 2, ..., m)."""
    return math.lcm(*range(1, m + 1))


def _ladder_step(row: tuple[int, ...]) -> tuple[int, ...]:
    """One ladder step on a degree-k row of integer numerators, L = lcm(1..k+1).

    A'[p] = sum_{q >= p} A[q] L/(q+1): the recursion a^k(n+1, p) = sum_{q >= p}
    a^k(n, q)/(q+1) over one more factor L of the denominator, and the rule of
    the sites W1 and W2 on the right family.
    """
    lcm = _lcm_upto(len(row))
    return tuple(accumulate(row[q] * (lcm // (q + 1)) for q in range(len(row) - 1, -1, -1)))[::-1]


def _a_numerators(n: int, k: int) -> tuple[tuple[int, ...], int]:
    """Row a^k(n, .) as integer numerators over the common denominator lcm(1..k+1)^n.

    Returns (numerators, denominator): the one-loop row L/(k+1), L = lcm(1..k+1),
    followed by n-1 ladder steps, every one exact in integers.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    lcm = _lcm_upto(k + 1)
    row = (lcm // (k + 1),) * (k + 1)
    for _ in range(n - 1):
        row = _ladder_step(row)
    return row, lcm**n


def a_table(n: int, k: int) -> tuple[Fraction, ...]:
    """The coefficient row a^k(n, 0..k), by the exact recursion."""
    nums, den = _a_numerators(n, k)
    return tuple(Fraction(a, den) for a in nums)


def mu_table(n: int, k_max: int) -> tuple[Fraction, ...]:
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
    return tuple(values)


def ladder_image(n: int, k: int, side: str = "right") -> tuple[Fraction, ...]:
    """Coefficients c_0..c_k of the degree-k generator's image under the n-loop ladder operator.

    Read off the coefficient table; the one-step ladder recursion that
    agrees with it lives in the tests as an oracle.
    """
    if side not in SIDES:
        raise ValueError(f"unsupported generator family {side!r}")
    row = a_table(n, k)
    return row if side == "right" else row[::-1]


def _z_rule(images: list[tuple[int, ...]], m: int, k: int) -> tuple[int, ...]:
    """Level-(m+1) right image of degree k after a slingshot at Z1 or Z2: 1/(k+1) sum_p (w11)^(k-p) images[p].

    `images[p]` is the level-m right image of degree p <= k as integer numerators
    over lcm(1..p+1)^m; the result is over L^(m+1), L = lcm(1..k+1).
    """
    lcm = _lcm_upto(k + 1)
    out = [0] * (k + 1)
    for p in range(k + 1):
        scale = (lcm // _lcm_upto(p + 1)) ** m * (lcm // (k + 1))
        for q, c in enumerate(images[p]):
            out[q] += c * scale
    return tuple(out)


def diagram_image(d, side: str, k: int) -> tuple[Fraction, ...]:
    """Image coefficients of the degree-k generator under diagram d: the site rules folded over its history.

    The fold runs on the right images of every degree p <= k, from the one-loop
    rows 1/(p+1) sum_q (w11)^(p-q) (w'11)^q; the left image is the reversal.
    `d` is a `diagrams.BoxDiagram`.
    """
    if side not in SIDES:
        raise ValueError(f"unsupported generator family {side!r}")
    if k < 0:
        raise ValueError("generator degree must be >= 0")
    images = [_a_numerators(1, p)[0] for p in range(k + 1)]
    for m, site in enumerate(d.history, start=1):
        if site.startswith("W"):
            images = [_ladder_step(row) for row in images]
        else:
            images = [_z_rule(images, m, p) for p in range(k + 1)]
    den = _lcm_upto(k + 1) ** d.n
    coeffs = images[k] if side == "right" else images[k][::-1]
    return tuple(Fraction(c, den) for c in coeffs)


class MagicReport(namedtuple("MagicReport", "n k_max diagram_count failures")):
    """Outcome at n loops, k <= k_max: n-loop diagram classes, one failure per level and k (both Z sites)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_magic(n: int, k_max: int) -> MagicReport:
    """Check that every n-loop diagram has the ladder image, by induction over the last slingshot.

    At every level m < n, the m-loop ladder rows of every degree k <= k_max are
    advanced by one ladder step (the W sites), and the Z rule applied to them
    must give the same (m+1)-loop rows: (n-1)(k_max+1) rule applications and as
    many ladder steps, whatever the number of histories.  The left family is
    the reversal of the right, so the right rows cover both.  Rows are compared
    as integer numerators; Fractions are made only for failure messages.
    The class count is a(n) = 4 a(n-1) - 2 a(n-2), a(1) = 1, a(2) = 2 (OEIS A006012),
    held to `enumerate_diagrams` for every n <= MAX_LOOPS by the tests.
    """
    from .diagrams import MAX_LOOPS

    if not (1 <= n <= MAX_LOOPS and k_max >= 0):
        raise ValueError(f"need 1 <= n <= {MAX_LOOPS} and k_max >= 0")
    before, diagram_count = 1, 1  # a(0) = 1 gives a(2) = 4 a(1) - 2 a(0) = 2
    for _ in range(n - 1):
        before, diagram_count = diagram_count, 4 * diagram_count - 2 * before
    failures: list[str] = []
    ladder = [_a_numerators(1, k)[0] for k in range(k_max + 1)]
    for m in range(1, n):
        target = [_ladder_step(row) for row in ladder]
        for k in range(k_max + 1):
            got = _z_rule(ladder, m, k)
            if got != target[k]:
                den = _lcm_upto(k + 1) ** (m + 1)
                got_f, want_f = (tuple(Fraction(c, den) for c in x) for x in (got, target[k]))
                failures.append(f"level {m}->{m + 1} site=Z1,Z2 k={k}: {got_f} != {want_f}")
        ladder = target
    return MagicReport(n=n, k_max=k_max, diagram_count=diagram_count, failures=tuple(failures))


def fraction_str(x: Fraction) -> str:
    """Exact "num/den" rendering used in JSON artifacts."""
    return f"{x.numerator}/{x.denominator}"


def fraction_decimal(x: Fraction) -> str:
    """Decimal rendering at 30 significant digits, in a local decimal context."""
    with localcontext() as ctx:
        ctx.prec = 30
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _table_payload(schema: str, head: dict, key: str, rows) -> dict:
    """A table payload: `schema`, the `head` fields, then one {key: i, exact, decimal} row per (i, value) in `rows`."""
    values = [{key: i, "exact": fraction_str(v), "decimal": fraction_decimal(v)} for i, v in rows]
    return {"schema": schema, **head, "values": values}


def mu_table_payload(n: int, k_max: int) -> dict:
    return _table_payload("boxmagic.mu-table/1", {"loops": n, "k_max": k_max}, "k", enumerate(mu_table(n, k_max), 1))


def a_table_payload(n: int, k: int) -> dict:
    return _table_payload("boxmagic.a-table/1", {"loops": n, "k": k}, "p", enumerate(a_table(n, k)))


def payload_to_json(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"
