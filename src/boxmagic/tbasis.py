"""Matrix-coefficient polynomial bases on complexified quaternions.

The basic objects are the matrix coefficients t^l_{n,m}(Z) of the
irreducible (2l+1)-dimensional representations of GL(2,C), realized as
homogeneous harmonic polynomials of degree 2l in the matrix entries:

    t^l_{n,m}(Z) = [s^(l-n)] (s*z11 + z21)^(l-m) * (s*z12 + z22)^(l+m),

with l = 0, 1/2, 1, 3/2, ... and m, n in {-l, ..., l}, m, n = l mod 1.
Indices are stored doubled (two_l = 2l, ...) so everything is integer.
The extreme cases are plain powers of single entries, e.g.
t^l_{-l,-l} = (z11)^(2l) and t^l_{l,l} = (z22)^(2l).

Products t^l_{n,m}(Z) * N(Z)^k with k in Z form a basis of the space of
polynomials in the entries and 1/N; sparse linear combinations of them
(`BasisExpansion`) are the integrands of the verification checks, and
`EntryPowers` evaluates many of them at shared points.  Terms written
with argument Z^-1 normalize back to plain indices via the exact
identity

    t^l_{a,b}(Z^-1) * N(Z)^(2l)
        = (-1)^(2l+a+b) * (l-b)!(l+b)!/((l+a)!(l-a)!) * t^l_{-b,-a}(Z),

which gives the duals of the orthogonality relations
(`term_of_inverse_argument`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .hc import ComplexQuaternion

__all__ = [
    "TIndex",
    "BasisExpansion",
    "EntryPowers",
    "term_of_inverse_argument",
]


@dataclass(frozen=True, order=True)
class TIndex:
    """Doubled index (2l, 2n, 2m, k) of the basis element t^l_{n,m} * N^k.

    `two_n` is the row index, `two_m` the column index of the matrix
    coefficient; `k` is the power of the norm N(Z).
    """

    two_l: int
    two_n: int
    two_m: int
    k: int = 0

    def __post_init__(self):
        if self.two_l < 0:
            raise ValueError("two_l must be nonnegative")
        for v, name in ((self.two_n, "two_n"), (self.two_m, "two_m")):
            if abs(v) > self.two_l:
                raise ValueError(f"|{name}| must not exceed two_l")
            if (v - self.two_l) % 2 != 0:
                raise ValueError(f"{name} must have the same parity as two_l")


def _nu(two_l: int, two_a: int, two_b: int) -> Fraction:
    """Conversion factor nu(l,a,b) of the inverse-argument identity.

    t^l_{a,b}(Z^-1) = nu * t^l_{-b,-a}(Z) * N^(-2l) with
    nu = (-1)^(2l+a+b) (l-b)!(l+b)!/((l+a)!(l-a)!).
    """
    sign = -1 if (two_l + (two_a + two_b) // 2) % 2 else 1
    lmb = (two_l - two_b) // 2
    lpb = (two_l + two_b) // 2
    lma = (two_l - two_a) // 2
    lpa = (two_l + two_a) // 2
    return Fraction(sign * math.factorial(lmb) * math.factorial(lpb),
                    math.factorial(lpa) * math.factorial(lma))


def term_of_inverse_argument(two_l: int, two_a: int, two_b: int, k: int) -> tuple[TIndex, Fraction]:
    """Normalize t^l_{a,b}(Z^-1) * N(Z)^k to a plain-index term.

    Returns (index, factor) with
    t^l_{a,b}(Z^-1) N^k = factor * t^l_{-b,-a}(Z) * N^(k - 2l).
    """
    return TIndex(two_l, -two_b, -two_a, k - two_l), _nu(two_l, two_a, two_b)


class BasisExpansion:
    """Sparse linear combination of basis elements t^l_{n,m} * N^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[TIndex, object] | None = None):
        self.coeffs: dict[TIndex, object] = {i: c for i, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def one() -> "BasisExpansion":
        return BasisExpansion({TIndex(0, 0, 0, 0): 1})

    @staticmethod
    def monomial(ij: str, power: int) -> "BasisExpansion":
        """The harmonic monomial (z_ij)^power: t^l_{n,m} with 2l = power and 2n, 2m = +-power."""
        row, col = {"z11": (-1, -1), "z12": (-1, 1), "z21": (1, -1), "z22": (1, 1)}[ij]
        return BasisExpansion({TIndex(power, row * power, col * power, 0): 1})

    def degt(self) -> "BasisExpansion":
        """Degree-plus-one operator: each term gains the factor 2l + 2k + 1."""
        return BasisExpansion(
            {i: c * (i.two_l + 2 * i.k + 1) for i, c in self.coeffs.items()}
        )

    def __call__(self, Z: ComplexQuaternion) -> complex:
        return self.eval_entries(Z.z11, Z.z12, Z.z21, Z.z22)

    def eval_entries(self, z11, z12, z21, z22):
        """Evaluate at entries (scalars or numpy arrays)."""
        return EntryPowers(z11, z12, z21, z22).value(self)


class EntryPowers:
    """Powers of the entries and of N(Z)^(+-1) at fixed points, each built once.

    Each power is the one below it times its base, and each t^l_{n,m}
    is summed once from them, so evaluating many basis elements t * N^k
    at the same points (scalars or numpy arrays) repeats no product.
    """

    __slots__ = ("_cache",)

    def __init__(self, z11, z12, z21, z22):
        n = z11 * z22 - z12 * z21
        self._cache = {(b, 1): v for b, v in zip((0, 1, 2, 3, "N"), (z11, z12, z21, z22, n))}

    def power(self, base, e: int):
        """base^e for e >= 1; base is an entry position 0..3 (z11, z12, z21, z22), "N" or "1/N"."""
        if (base, e) not in self._cache:  # at e = 1 only "1/N" is missing
            self._cache[base, e] = (self.power(base, e - 1) * self.power(base, 1) if e > 1
                                    else 1.0 / self._cache["N", 1])
        return self._cache[base, e]

    def t(self, two_l: int, two_n: int, two_m: int):
        """t^l_{n,m} = sum_{i+j = l-n} C(l-m, i) C(l+m, j) z11^i z21^(l-m-i) z12^j z22^(l+m-j)."""
        key = ("t", two_l, two_n, two_m)
        if key not in self._cache:
            lm, lpm, ln = (two_l - two_m) // 2, (two_l + two_m) // 2, (two_l - two_n) // 2
            val = 0
            for i in range(max(0, ln - lpm), min(lm, ln) + 1):
                term = math.comb(lm, i) * math.comb(lpm, ln - i)
                for base, e in ((0, i), (2, lm - i), (1, ln - i), (3, lpm - ln + i)):
                    if e:
                        term = term * self.power(base, e)
                val = val + term
            self._cache[key] = val
        return self._cache[key]

    def value(self, f: BasisExpansion):
        """f at the points: the sum of c * t^l_{n,m} * N^k over its terms."""
        val = 0
        for idx, c in f.coeffs.items():
            term = complex(c) * self.t(idx.two_l, idx.two_n, idx.two_m)
            if idx.k:
                term = term * (self.power("N", idx.k) if idx.k > 0 else self.power("1/N", -idx.k))
            val = val + term
        return val
