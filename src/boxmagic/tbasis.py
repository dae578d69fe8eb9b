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
(`BasisExpansion`) represent harmonic polynomials (k = 0), harmonic
functions regular at infinity (k = -(2l+1)) and everything in between.
Terms written with argument Z^-1 normalize back to plain indices via the
exact identity

    t^l_{a,b}(Z^-1) * N(Z)^(2l)
        = (-1)^(2l+a+b) * (l-b)!(l+b)!/((l+a)!(l-a)!) * t^l_{-b,-a}(Z),

so the three bilinear pairings and the unitary inner product below are
pure index lookups with exact rational values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .hc import ComplexQuaternion

__all__ = [
    "TIndex",
    "MultiPoly",
    "BasisExpansion",
    "t_poly",
    "EntryPowers",
    "eval_basis",
    "classify",
    "term_of_inverse_argument",
    "monomial_index",
    "pair_H",
    "pair_Zh",
    "pair_H2",
    "inner_product",
    "expand_1_over_N",
]


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c


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

    @property
    def degree(self) -> int:
        """Homogeneity degree 2l + 2k of the basis element."""
        return self.two_l + 2 * self.k


class MultiPoly:
    """Sparse polynomial in the entries z11, z12, z21, z22.

    Monomials are keyed by exponent 4-tuples (e11, e12, e21, e22);
    coefficients may be int, Fraction or complex.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int, int], object] | None = None):
        self.terms = {}
        if terms:
            for expo, c in terms.items():
                if c != 0:
                    self.terms[tuple(expo)] = self.terms.get(tuple(expo), 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c != 0}

    @staticmethod
    def constant(c) -> "MultiPoly":
        return MultiPoly({(0, 0, 0, 0): c} if c != 0 else {})

    @staticmethod
    def norm_poly() -> "MultiPoly":
        """N(Z) = z11 z22 - z12 z21."""
        return MultiPoly({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def scale(self, s) -> "MultiPoly":
        return MultiPoly({e: s * c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, int, int, int], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(out)

    def pow(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, var: int) -> "MultiPoly":
        """Partial derivative with respect to entry index var in 0..3."""
        out = {}
        for e, c in self.terms.items():
            if e[var] > 0:
                ne = list(e)
                ne[var] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[var]
        return MultiPoly(out)

    def laplacian(self) -> "MultiPoly":
        """4 (d^2/dz11 dz22 - d^2/dz12 dz21), zero exactly on harmonics."""
        return (self.diff(0).diff(3) - self.diff(1).diff(2)).scale(4)

    def euler(self) -> "MultiPoly":
        """Degree operator sum_ij z_ij d/dz_ij (multiplies degree-d terms by d)."""
        out = {}
        for e, c in self.terms.items():
            d = sum(e)
            if d:
                out[e] = out.get(e, 0) + c * d
        return MultiPoly(out)

    def __call__(self, z11, z12, z21, z22):
        val = 0
        for (e11, e12, e21, e22), c in self.terms.items():
            val = val + complex(c) * z11**e11 * z12**e12 * z21**e21 * z22**e22
        return val


def t_poly(two_l: int, two_n: int, two_m: int) -> MultiPoly:
    """Exact polynomial form of t^l_{n,m}, by binomial convolution.

    The loop-integral definition extracts the s^(l-n) coefficient of
    (s z11 + z21)^(l-m) (s z12 + z22)^(l+m); equivalently

        sum_{i+j = l-n} C(l-m, i) C(l+m, j)
                        z11^i z21^(l-m-i) z12^j z22^(l+m-j).

    Homogeneous of degree 2l and harmonic.
    """
    idx = TIndex(two_l, two_n, two_m, 0)
    lm = (idx.two_l - idx.two_m) // 2   # l - m
    lpm = (idx.two_l + idx.two_m) // 2  # l + m
    ln = (idx.two_l - idx.two_n) // 2   # l - n
    out = {}
    for i in range(max(0, ln - lpm), min(lm, ln) + 1):
        j = ln - i
        coeff = math.comb(lm, i) * math.comb(lpm, j)
        expo = (i, j, lm - i, lpm - j)
        out[expo] = coeff
    return MultiPoly(out)


def eval_basis(idx: TIndex, Z: ComplexQuaternion) -> complex:
    """Value t^l_{n,m}(Z) * N(Z)^k; requires N(Z) != 0 when k < 0."""
    if idx.k < 0 and Z.z11 * Z.z22 - Z.z12 * Z.z21 == 0:
        raise ZeroDivisionError("negative norm power at a norm-zero point")
    return complex(BasisExpansion({idx: 1})(Z))


def classify(idx: TIndex) -> frozenset[str]:
    """Invariant-subspace membership flags of a basis element.

    The (2l, k) lattice splits into overlapping invariant regions:
    Zh+ (k >= 0), Zh- (k <= -(2l+2)), Zh0 (-(2l+1) <= k <= -1),
    Zh2- (k <= -(2l+3)), I2- (k <= -2), I2+ (k >= -(2l+1)) and
    J2 (-(2l+1) <= k <= -2).
    """
    L, k = idx.two_l, idx.k
    tags = set()
    if k >= 0:
        tags.add("Zh+")
    if k <= -(L + 2):
        tags.add("Zh-")
    if -(L + 1) <= k <= -1:
        tags.add("Zh0")
    if k <= -(L + 3):
        tags.add("Zh2-")
    if k <= -2:
        tags.add("I2-")
    if k >= -(L + 1):
        tags.add("I2+")
    if -(L + 1) <= k <= -2:
        tags.add("J2")
    return frozenset(tags)


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


def monomial_index(ij: str, power: int) -> TIndex:
    """Index of the pure-entry monomial (z_ij)^power as a basis element."""
    row_col = {
        "z11": (-1, -1),
        "z12": (-1, 1),
        "z21": (1, -1),
        "z22": (1, 1),
    }[ij]
    return TIndex(power, row_col[0] * power, row_col[1] * power, 0)


class BasisExpansion:
    """Sparse linear combination of basis elements t^l_{n,m} * N^k.

    The optional space tag ("H+", "H-", "H", "Zh+", "Zh") is validated
    against the k-pattern of the stored indices.
    """

    __slots__ = ("coeffs", "space")

    def __init__(self, coeffs: Mapping[TIndex, object] | None = None, space: str | None = None):
        self.coeffs: dict[TIndex, object] = {}
        if coeffs:
            for idx, c in coeffs.items():
                if c != 0:
                    self.coeffs[idx] = self.coeffs.get(idx, 0) + c
            self.coeffs = {i: c for i, c in self.coeffs.items() if c != 0}
        self.space = space
        if space is not None:
            self._check_space(space)

    def _check_space(self, space: str) -> None:
        for idx in self.coeffs:
            ok = {
                "H+": idx.k == 0,
                "H-": idx.k == -(idx.two_l + 1),
                "H": idx.k == 0 or idx.k == -(idx.two_l + 1),
                "Zh+": idx.k >= 0,
                "Zh": True,
            }.get(space)
            if ok is None:
                raise ValueError(f"unknown space tag {space!r}")
            if not ok:
                raise ValueError(f"term {idx} does not lie in {space}")

    @staticmethod
    def one() -> "BasisExpansion":
        return BasisExpansion({TIndex(0, 0, 0, 0): 1}, "H+")

    @staticmethod
    def monomial(ij: str, power: int) -> "BasisExpansion":
        """The harmonic monomial (z_ij)^power."""
        return BasisExpansion({monomial_index(ij, power): 1}, "H+")

    def __add__(self, other: "BasisExpansion") -> "BasisExpansion":
        d = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            d[idx] = d.get(idx, 0) + c
        return BasisExpansion(d)

    def scale(self, s) -> "BasisExpansion":
        return BasisExpansion({i: s * c for i, c in self.coeffs.items()}, self.space)

    def degt(self) -> "BasisExpansion":
        """Degree-plus-one operator: each term gains the factor 2l + 2k + 1."""
        return BasisExpansion(
            {i: c * (i.two_l + 2 * i.k + 1) for i, c in self.coeffs.items()}
        )

    def div_norm(self, j: int = 1) -> "BasisExpansion":
        """Divide by N(Z)^j, shifting every k down by j."""
        return BasisExpansion(
            {TIndex(i.two_l, i.two_n, i.two_m, i.k - j): c for i, c in self.coeffs.items()}
        )

    def in_space(self, space: str) -> bool:
        try:
            self._check_space(space)
        except ValueError:
            return False
        return True

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


def _match_dual(i1: TIndex, i2: TIndex) -> bool:
    """Index matching of the orthogonality relations, in plain-index form.

    A pair (t^l'_{n',m'} N^k', t^l_{a,b} N^c) pairs nontrivially exactly
    when the second factor is the normalized form of the dual element
    t^l_{m',n'}(Z^-1) N^(-k'-2), i.e. when l = l', a = -n', b = -m' and
    k' + c = -(2l + 2).
    """
    return (
        i1.two_l == i2.two_l
        and i2.two_n == -i1.two_n
        and i2.two_m == -i1.two_m
        and i1.k + i2.k == -(i1.two_l + 2)
    )


def _dual_value(i2: TIndex) -> Fraction:
    """Pairing value contributed by a matched plain-index pair.

    The dual of t^l_{n',m'} in the orthogonality relations is written
    with argument Z^-1; normalizing it to the plain element i2 divides
    the unit pairing value by nu(l, -b, -a) for (a, b) = (n, m) of i2.
    """
    return 1 / _nu(i2.two_l, -i2.two_m, -i2.two_n)


def pair_Zh(f1: BasisExpansion, f2: BasisExpansion):
    """Invariant symmetric pairing on polynomials in the entries and 1/N.

    On basis elements: <t^l'_{n',m'} N^k', t^l_{m,n}(Z^-1) N^(-k-2)> =
    delta_kk' delta_ll' delta_mm' delta_nn' / (2l+1), extended
    bilinearly after normalizing inverse-argument terms to plain indices.
    Exact; equals the cycle integral (i/2 pi^3) Int f1 f2 dV for any R.
    """
    total = 0
    for i1, c1 in f1.coeffs.items():
        for i2, c2 in f2.coeffs.items():
            if _match_dual(i1, i2):
                total = total + c1 * c2 * _dual_value(i2) / (i1.two_l + 1)
    return total


def pair_H(f1: BasisExpansion, f2: BasisExpansion):
    """Invariant antisymmetric pairing between harmonic spaces.

    Nonzero only across H+ x H-; on basis elements
    (t^l'_{n',m'}, t^l_{m,n}(Z^-1) N^-1) = delta_ll' delta_mm' delta_nn',
    and the reversed order carries a minus sign.  Inputs must lie in
    H = H- (+) H+ termwise.
    """
    for f in (f1, f2):
        if not f.in_space("H"):
            raise ValueError("pair_H arguments must lie in H = H- + H+")
    total = 0
    for i1, c1 in f1.coeffs.items():
        for i2, c2 in f2.coeffs.items():
            if i1.k == 0 and i2.k == -(i2.two_l + 1):
                if i1.two_l == i2.two_l and i2.two_n == -i1.two_n and i2.two_m == -i1.two_m:
                    total = total + c1 * c2 * _dual_value(i2)
            elif i1.k == -(i1.two_l + 1) and i2.k == 0:
                if i1.two_l == i2.two_l and i1.two_n == -i2.two_n and i1.two_m == -i2.two_m:
                    total = total - c1 * c2 * _dual_value(i1)
    return total


def pair_H2(f1: BasisExpansion, f2: BasisExpansion):
    """Alternative harmonic pairing <degt(f1)/N, f2>; equals pair_H on H+ x H-."""
    for f in (f1, f2):
        if not f.in_space("H"):
            raise ValueError("pair_H2 arguments must lie in H = H- + H+")
    return pair_Zh(f1.degt().div_norm(), f2)


def inner_product(f1: BasisExpansion, f2: BasisExpansion):
    """Unitary inner product on harmonic polynomials (both arguments in H+).

    Basis elements are orthogonal with squared norms
    (l-m)! (l+m)! / ((l-n)! (l+n)!); coefficients of the second argument
    are conjugated.  Exact rational when the inputs are rational.
    """
    for f in (f1, f2):
        if not f.in_space("H+"):
            raise ValueError("inner_product arguments must lie in H+")
    total = 0
    for i1, c1 in f1.coeffs.items():
        c2 = f2.coeffs.get(i1)
        if c2 is None:
            continue
        lm = (i1.two_l - i1.two_m) // 2
        lpm = (i1.two_l + i1.two_m) // 2
        ln = (i1.two_l - i1.two_n) // 2
        lpn = (i1.two_l + i1.two_n) // 2
        w = Fraction(math.factorial(lm) * math.factorial(lpm),
                     math.factorial(ln) * math.factorial(lpn))
        total = total + c1 * _conj(c2) * w
    return total


def expand_1_over_N(W: ComplexQuaternion, two_l_max: int) -> BasisExpansion:
    """Truncated matrix-coefficient expansion of 1/N(Z - W) in Z.

    Returns sum over 2l <= two_l_max of t^l_{m,n}(Z) t^l_{n,m}(W^-1) / N(W),
    valid where Z W^-1 lies inside the unit-boundary domain; the l = 0
    term alone is N(W)^-1.
    """
    nw = W.z11 * W.z22 - W.z12 * W.z21
    if nw == 0:
        raise ZeroDivisionError("expansion point has zero norm")
    winv = EntryPowers(W.z22 / nw, -W.z12 / nw, -W.z21 / nw, W.z11 / nw)
    terms: dict[TIndex, complex] = {}
    for two_l in range(two_l_max + 1):
        for two_m in range(-two_l, two_l + 1, 2):
            for two_n in range(-two_l, two_l + 1, 2):
                c = complex(winv.t(two_l, two_n, two_m)) / complex(nw)
                if c != 0:
                    terms[TIndex(two_l, two_m, two_n, 0)] = c
    return BasisExpansion(terms)
