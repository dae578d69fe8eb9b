"""Independent exact oracles used by the tests.

Harmonic polynomials have an exact symbolic form: `MultiPoly`, a sparse
polynomial in the four entries with derivatives, and `t_poly`, the
matrix coefficient t^l_{n,m} by binomial convolution.  The invariant
pairing on polynomials in the entries and 1/N is an index lookup
(`pair_Zh`) with exact rational values.

The main tool is closed-form integration of polynomials over the unit
3-sphere: a monomial x0^a0 x1^a1 x2^a2 x3^a3 integrates to zero unless
every exponent is even, and otherwise to

    2 * prod_i Gamma((ai+1)/2) / Gamma((|a|+4)/2),

which is a rational multiple of pi^2.  Carrying coefficients as
Gaussian rationals keeps every sphere integral exact, so the pairing
and inner-product tables can be checked with no numerical tolerance.

The exact combinatorial layers have brute-force oracles here too: the
fixpoint transitive closure of an order, the structural invariants of
a box diagram, the all-permutations canonical key and the string-keyed
colour-refinement key, the a-table rows and the eigenvalues as closed
binomial sums over 1/m^n (no recursion in the loop order) and as the
coefficients of the nested-cycle kernel Li_n(xi)/(xi (1 - u b)) expanded
term by term, every
eigenvalue extracted from a ladder image, the ladder image by the
one-step ladder recursion, diagram images by peeling the history in
Fractions, and the magic check comparing Fraction images.

The polylogarithms, the ladder functions and the eigenvalues mu (as
shifted Legendre moments of the loop kernel) are checked against
one-dimensional integral representations, summed by a Gauss-Legendre
rule after the substitution t = s^6, which tames the logarithmic
end-point singularities (for Phi^(L) at x > 1 split near t = 1, where the
integrand peaks); the power series of Li_N has a reference that runs in
complex arithmetic with integer powers at every argument, and the
Bernoulli numbers one by their defining recurrence.

The quadrature grids have a reference build that evaluates exp, cos
and sin over full meshgrids, the 4-cycle a chart of its own
(`chart_u2`), the basis values a reference that sums the terms of each
t^l_{n,m} with fresh powers (`t_poly` evaluated), the orthogonality Gram
matrices a reference that sums each pair of value rows separately, and
each batched check a reference that integrates one integrand per call;
the one-loop integral has its closed form F_1 in the cross ratios.
The conformal action has a second, left-quotient form.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import cache
from itertools import chain, permutations, product

import numpy as np

from boxmagic import quadrature
from boxmagic.diagrams import EXTERNALS, BoxDiagram, enumerate_diagrams
from boxmagic.hc import (ComplexQuaternion, GroupElement, conformal_act, domain_side, inverse, norm,
                         random_near_identity)
from boxmagic.magic import diagram_image, ladder_image
from boxmagic.tbasis import BasisExpansion, TIndex, _nu, term_of_inverse_argument


class MultiPoly:
    """Sparse polynomial in the entries z11, z12, z21, z22.

    Monomials are keyed by exponent 4-tuples (e11, e12, e21, e22);
    coefficients may be int, Fraction or complex.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int], object] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

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
        out = MultiPoly({(0, 0, 0, 0): 1})
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
        return (self.diff(0).diff(3) + self.diff(1).diff(2).scale(-1)).scale(4)

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


class GC:
    """Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(c) -> "GC":
        if isinstance(c, GC):
            return c
        if isinstance(c, complex):
            re = Fraction(c.real).limit_denominator(10**12)
            im = Fraction(c.imag).limit_denominator(10**12)
            return GC(re, im)
        return GC(Fraction(c), 0)

    def __add__(self, o):
        o = GC.of(o)
        return GC(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        o = GC.of(o)
        return GC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __eq__(self, o):
        o = GC.of(o)
        return self.re == o.re and self.im == o.im

    def __repr__(self):
        return f"GC({self.re}, {self.im})"


# Entries as Gaussian-rational linear forms in the real coordinates
# x0..x3: z11 = x0 - i x3, z12 = -i x1 - x2, z21 = -i x1 + x2,
# z22 = x0 + i x3.
_ENTRY_FORMS = {
    0: {(1, 0, 0, 0): GC(1), (0, 0, 0, 1): GC(0, -1)},
    1: {(0, 1, 0, 0): GC(0, -1), (0, 0, 1, 0): GC(-1)},
    2: {(0, 1, 0, 0): GC(0, -1), (0, 0, 1, 0): GC(1)},
    3: {(1, 0, 0, 0): GC(1), (0, 0, 0, 1): GC(0, 1)},
}


def _coord_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, int, int, int], GC] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, GC()) + c1 * c2
    return out


def coord_poly(p: MultiPoly) -> dict:
    """Exact expansion of an entry polynomial in the real coordinates."""
    total: dict[tuple[int, int, int, int], GC] = {}
    for expo, c in p.terms.items():
        cur = {(0, 0, 0, 0): GC.of(c)}
        for var, e in enumerate(expo):
            for _ in range(e):
                cur = _coord_mul(cur, _ENTRY_FORMS[var])
        for e, v in cur.items():
            total[e] = total.get(e, GC()) + v
    return {e: v for e, v in total.items() if not (v.re == 0 and v.im == 0)}


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sphere_integral_over_2pi2(p: MultiPoly) -> GC:
    """(1 / 2 pi^2) Int_{S^3} p dS for an entry polynomial, exactly.

    Uses Int x^a dS = 2 prod Gamma((ai+1)/2) / Gamma((|a|+4)/2), i.e.
    2 pi^2 prod (ai-1)!! / (2^(|a|/2) ((|a|+2)/2)!) for even exponents.
    """
    total = GC()
    for expo, c in coord_poly(p).items():
        if any(e % 2 for e in expo):
            continue
        s = sum(expo)
        num = 1
        for e in expo:
            num *= _double_factorial(e - 1)
        weight = Fraction(num, 2 ** (s // 2) * math.factorial((s + 2) // 2))
        total = total + c * GC(weight)
    return total


def _drop_norm_powers(f: BasisExpansion) -> MultiPoly:
    """Restrict to the unit sphere, where N(Z) = 1: keep only the t factors."""
    out = MultiPoly()
    for idx, c in f.coeffs.items():
        out = out + t_poly(idx.two_l, idx.two_n, idx.two_m).scale(c)
    return out


def exact_H_pairing(f1: BasisExpansion, f2: BasisExpansion) -> GC:
    """The sphere pairing (1/2 pi^2) Int degt(f1) f2 dS at R = 1, exactly."""
    p1 = _drop_norm_powers(f1.degt())
    p2 = _drop_norm_powers(f2)
    return sphere_integral_over_2pi2(p1 * p2)


def _conj_poly(p: MultiPoly) -> MultiPoly:
    """conj(p(X)) for real-quaternion X: entries map by
    (z11, z12, z21, z22) -> (z22, -z21, -z12, z11), coefficients conjugate."""
    out = {}
    for (e11, e12, e21, e22), c in p.terms.items():
        sign = (-1) ** (e12 + e21)
        cc = c.conjugate() if isinstance(c, complex) else c
        key = (e22, e21, e12, e11)
        out[key] = out.get(key, 0) + sign * cc
    return MultiPoly(out)


def exact_inner_product(f1: BasisExpansion, f2: BasisExpansion) -> GC:
    """The unitary inner product (1/2 pi^2) Int degt(f1) conj(f2) dS, exactly."""
    p1 = _drop_norm_powers(f1.degt())
    p2 = _conj_poly(_drop_norm_powers(f2))
    return sphere_integral_over_2pi2(p1 * p2)


def unitary_norm(idx: TIndex) -> Fraction:
    """Squared unitary norm (l-m)! (l+m)! / ((l-n)! (l+n)!) of t^l_{n,m}, the value of `exact_inner_product`."""
    lm, lpm = (idx.two_l - idx.two_m) // 2, (idx.two_l + idx.two_m) // 2
    ln, lpn = (idx.two_l - idx.two_n) // 2, (idx.two_l + idx.two_n) // 2
    return Fraction(math.factorial(lm) * math.factorial(lpm), math.factorial(ln) * math.factorial(lpn))


def pair_Zh(f1: BasisExpansion, f2: BasisExpansion):
    """Invariant symmetric pairing on polynomials in the entries and 1/N.

    On basis elements: <t^l'_{n',m'} N^k', t^l_{m,n}(Z^-1) N^(-k-2)> =
    delta_kk' delta_ll' delta_mm' delta_nn' / (2l+1), extended
    bilinearly.  Exact; equals the cycle integral (i/2 pi^3) Int f1 f2 dV
    for any R.  In plain indices a pair (t^l'_{n',m'} N^k', t^l_{a,b} N^c)
    pairs exactly when the second factor is the normalized dual, i.e.
    l = l', a = -n', b = -m' and k' + c = -(2l + 2); normalizing the dual
    divides the unit value by nu(l, -b, -a).
    """
    total = 0
    for i1, c1 in f1.coeffs.items():
        for i2, c2 in f2.coeffs.items():
            if (i1.two_l, -i1.two_n, -i1.two_m, -(i1.two_l + 2)) == (i2.two_l, i2.two_n, i2.two_m, i1.k + i2.k):
                total = total + c1 * c2 / (_nu(i2.two_l, -i2.two_m, -i2.two_n) * (i1.two_l + 1))
    return total


def transitive_closure(pairs) -> frozenset[tuple[str, str]]:
    """Transitive closure of a relation by composing pairs until nothing new appears."""
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def net_degree(d: BoxDiagram, v: str) -> int:
    """Solid degree minus dashed degree at vertex v."""
    return sum(e.count(v) for e in d.solid) - sum(e.count(v) for e in d.dashed)


def validate_diagram(d: BoxDiagram) -> None:
    """Check the structural invariants of a box diagram; raises ValueError on failure."""
    if len(d.solid) != 3 * d.n + 1:
        raise ValueError(f"expected {3*d.n+1} solid edges, got {len(d.solid)}")
    if len(d.dashed) != d.n - 1:
        raise ValueError(f"expected {d.n-1} dashed edges, got {len(d.dashed)}")
    for v in d.internals:
        if net_degree(d, v) != 4:
            raise ValueError(f"internal vertex {v} has net degree {net_degree(d, v)} != 4")
    for v in EXTERNALS:
        if net_degree(d, v) != 1:
            raise ValueError(f"external vertex {v} has net degree {net_degree(d, v)} != 1")
    order = d.order  # BoxDiagram derives it on every read
    for (a, b) in order:
        if a == b:
            raise ValueError(f"order is not irreflexive at {a}")
        if (b, a) in order:
            raise ValueError(f"order contains a 2-cycle {a} <-> {b}")
    if transitive_closure(order) != order:
        raise ValueError(f"order is not transitively closed: {sorted(transitive_closure(order) - order)} missing")
    # Each Z lies outside some cycle and each W inside one: an internal vertex below each Z, above each W.
    for v in EXTERNALS:
        below = v.startswith("Z")
        if not any((t, v) in order if below else (v, t) in order for t in d.internals):
            raise ValueError(f"no internal vertex {'below' if below else 'above'} {v}")


def brute_force_key(d: BoxDiagram) -> tuple:
    """Least (n, solid, dashed, order) encoding over all n! internal relabellings."""
    internals, order = d.internals, d.order
    best = None
    for perm in permutations(internals):
        mapping = dict(zip(internals, perm))

        def rn(v: str) -> str:
            return mapping.get(v, v)

        key = (
            d.n,
            tuple(sorted(tuple(sorted((rn(a), rn(b)))) for (a, b) in d.solid)),
            tuple(sorted(tuple(sorted((rn(a), rn(b)))) for (a, b) in d.dashed)),
            tuple(sorted((rn(a), rn(b)) for (a, b) in order)),
        )
        if best is None or key < best:
            best = key
    return best


def refinement_key(d: BoxDiagram) -> tuple:
    """Least (n, solid, dashed, order) encoding over the relabellings within colour cells.

    A graph canonicalisation, independent of the history that
    `canonical_key` reads, and the reference its proof rests on (checked
    against `brute_force_key`): the internal vertices are split by colour
    refinement on name-keyed relations (solid and dashed
    multiplicity, v < u, u < v), starting from the relations to the four
    externals; the relabellings number the cells in colour order and
    permute vertices only within a cell.
    """
    solid: dict[tuple[str, str], int] = {}
    dashed: dict[tuple[str, str], int] = {}
    for edges, count in ((d.solid, solid), (d.dashed, dashed)):
        for (a, b) in edges:
            count[(a, b)] = count[(b, a)] = count.get((a, b), 0) + 1
    internals, order = d.internals, d.order
    rel = {v: {u: (solid.get((v, u), 0), dashed.get((v, u), 0), (v, u) in order, (u, v) in order)
               for u in EXTERNALS + internals if u != v}
           for v in internals}
    colour = {v: tuple(rel[v][x] for x in EXTERNALS) for v in internals}
    cells = len(set(colour.values()))
    while True:
        sig = {v: (colour[v], tuple(sorted((colour[u], r) for u, r in rel[v].items() if u in colour)))
               for v in internals}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        colour = {v: rank[sig[v]] for v in internals}
        if len(rank) == cells:
            break
        cells = len(rank)
    best = None
    for perms in product(*(permutations(v for v in internals if colour[v] == c) for c in range(cells))):
        mapping = {v: f"T{i}" for i, v in enumerate(chain.from_iterable(perms), start=1)}

        def rn(v: str) -> str:
            return mapping.get(v, v)

        key = (
            d.n,
            tuple(sorted(tuple(sorted((rn(a), rn(b)))) for (a, b) in d.solid)),
            tuple(sorted(tuple(sorted((rn(a), rn(b)))) for (a, b) in d.dashed)),
            tuple(sorted((rn(a), rn(b)) for (a, b) in order)),
        )
        if best is None or key < best:
            best = key
    return best


def a_row_closed(n: int, k: int) -> tuple[Fraction, ...]:
    """a^k(n, p) = sum_{m=p+1..k+1} (-1)^(m-1-p) C(k, m-1) C(m-1, p) / m^n, p = 0..k, in Fractions.

    The coefficients of u^k a^p b^(k-p) in Li_n(xi) / (xi (1 - u b)),
    xi = u (a - b) / (1 - u b): a sum, not the recursion in n.
    """
    return tuple(sum((Fraction((-1) ** (m - 1 - p) * math.comb(k, m - 1) * math.comb(m - 1, p), m**n)
                      for m in range(p + 1, k + 2)), Fraction(0))
                 for p in range(k + 1))


def li_kernel_series(n: int, k_max: int) -> list[dict[tuple[int, int], Fraction]]:
    """Li_n(xi) / (xi (1 - u b)), xi = u (a - b) / (1 - u b), expanded in u to u^k_max in Fractions.

    Entry k maps (power of a, power of b) to the coefficient of u^k a^i b^j.
    The series are multiplied out term by term as polynomials in a and b,
    from Li_n(xi) / xi = sum_{m >= 1} xi^(m-1) / m^n: no closed form enters.
    """
    def mul(f, g):
        out = [{} for _ in range(k_max + 1)]
        for i, fi in enumerate(f):
            for j, gj in enumerate(g[:k_max + 1 - i]):
                for (a1, b1), c1 in fi.items():
                    for (a2, b2), c2 in gj.items():
                        out[i + j][a1 + a2, b1 + b2] = out[i + j].get((a1 + a2, b1 + b2), 0) + c1 * c2
        return out

    geometric = [{(0, j): 1} for j in range(k_max + 1)]  # 1 / (1 - u b)
    xi = mul([{}, {(1, 0): 1, (0, 1): -1}], geometric)  # u (a - b) / (1 - u b)
    power = [{(0, 0): 1}] + [{} for _ in range(k_max)]  # xi^(m-1), integer coefficients
    total = [{} for _ in range(k_max + 1)]
    for m in range(1, k_max + 2):
        for k, terms in enumerate(power):
            for key, c in terms.items():
                total[k][key] = total[k].get(key, 0) + Fraction(c, m**n)
        power = mul(power, xi)
    return [{key: c for key, c in terms.items() if c} for terms in mul(total, geometric)]


def mu_closed(n: int, k: int) -> Fraction:
    """mu^(n)_k = sum_{m=1..k} (-1)^(k+m) C(k-1, m-1) C(k+m-2, k-1) / m^n in Fractions.

    At n = 2 this is 1, then (-1)^(k+1) / (k (k-1)).  This is the sum that
    `mu_table` evaluates, here term by term in Fractions; the oracles that do
    not share its formula are `eigenvalue_extract` of a ladder image (the
    a-recursion) and `mu_legendre`.
    """
    if k < 1:
        raise ValueError("component index k must be >= 1")
    return sum((Fraction((-1) ** (k + m) * math.comb(k - 1, m - 1) * math.comb(k + m - 2, k - 1), m**n)
                for m in range(1, k + 1)), Fraction(0))


def eigenvalue_extract(coeffs: tuple[Fraction, ...], k: int, side: str = "right") -> Fraction:
    """Scalar action on the k-th irreducible component, from the coefficients of a degree-(k-1) image.

    The ratio-of-inner-products formula: with orthonormal extreme
    monomials, the right-family image gives
    sum_p (-1)^(k+p+1) C(k-1, p) c_p (and the mirrored sum on the left).
    """
    if len(coeffs) != k:
        raise ValueError(f"image has degree {len(coeffs) - 1}, expected {k - 1}")
    total = Fraction(0)
    for p, c in enumerate(coeffs):
        if side == "right":
            sign = -1 if (k + p + 1) % 2 else 1
        else:
            sign = -1 if p % 2 else 1
        total += sign * math.comb(k - 1, p) * c
    return total


def ladder_image_recursive(n: int, k: int, side: str) -> tuple[Fraction, ...]:
    """Ladder image coefficients via image^(n) = 1/(k+1) sum_p monomial * image^(n-1)(p).

    Unmemoised, so exponential in n: keep n and k small.
    """
    if n == 1:
        return tuple(Fraction(1, k + 1) for _ in range(k + 1))
    out = [Fraction(0)] * (k + 1)
    for p in range(k + 1):
        sub = ladder_image_recursive(n - 1, p, side)
        for q in range(p + 1):
            if side == "right":
                # multiplier (w11)^(k-p) keeps the w' exponent q
                out[q] += sub[q] / (k + 1)
            else:
                # multiplier (w'11)^(k-p) raises the w' exponent to k-p+q
                out[k - p + q] += sub[q] / (k + 1)
    return tuple(out)


_DIRECT_SIDE = {"Z1": "left", "Z2": "right", "W1": "left", "W2": "right"}


def image_by_history_fraction(history: tuple[str, ...], side: str, k: int) -> tuple[Fraction, ...]:
    """Diagram image by peeling the last slingshot, rule by rule, in Fractions."""
    if not history:
        return tuple(Fraction(1, k + 1) for _ in range(k + 1))
    site = history[-1]
    if _DIRECT_SIDE[site] != side:
        other = "left" if side == "right" else "right"
        return tuple(reversed(image_by_history_fraction(history, other, k)))
    prev = history[:-1]
    out = [Fraction(0)] * (k + 1)
    if site == "Z1":
        for p in range(k + 1):
            sub = image_by_history_fraction(prev, "left", p)
            for q in range(p + 1):
                out[k - p + q] += sub[q] / (k + 1)
    elif site == "Z2":
        for p in range(k + 1):
            sub = image_by_history_fraction(prev, "right", p)
            for q in range(p + 1):
                out[q] += sub[q] / (k + 1)
    elif site == "W1":
        sub = image_by_history_fraction(prev, "left", k)
        for q in range(k + 1):
            w = sub[q] / (k - q + 1)
            for j in range(q, k + 1):
                out[j] += w
    else:  # W2
        sub = image_by_history_fraction(prev, "right", k)
        for q in range(k + 1):
            w = sub[q] / (q + 1)
            for r in range(q + 1):
                out[r] += w
    return tuple(out)


def magic_failures_fraction(n: int, k_max: int) -> list[str]:
    """The magic check by enumeration: Fraction images of diagram_image against ladder_image.

    Every enumerated n-loop diagram is rebuilt from its history by
    diagram_image; a failure names the diagram's index and history.
    """
    diagrams = enumerate_diagrams(n)
    failures = []
    for side in ("left", "right"):
        for k in range(k_max + 1):
            expected = ladder_image(n, k, side)
            for i, d in enumerate(diagrams):
                got = diagram_image(d, side, k)
                if got != expected:
                    failures.append(f"n={n} side={side} k={k} diagram#{i} history={d.history}: "
                                    f"{got} != {expected}")
    return failures


def li_series_complex(N: int, z: complex, tol: float = 1e-17, max_terms: int = 10_000) -> complex:
    """sum_{j>=1} z^j / j^N in complex arithmetic with integer powers j**N at every z, term by term.

    A reference for `polylog.li_series`, which sums a fixed number of terms
    by Horner's rule; where one term decides the sum (huge N) the two give
    the same bits.
    """
    if abs(z) >= 1.0:
        raise ValueError("series representation requires |z| < 1")
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for j in range(1, max_terms + 1):
        term = term * z
        inc = term / j**N
        total += inc
        scale = abs(total)
        if abs(inc) <= tol * (scale if scale > 1e-300 else 1e-300):
            return total
    raise RuntimeError("polylogarithm series did not converge")


def bernoulli_recurrence(m: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_m (B_1 = -1/2) by sum_{k<=n} C(n+1, k) B_k = 0, exact.

    The reference for `polylog._bernoulli`, which takes them from the tangent numbers.
    """
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return tuple(b)


_GL_NODES = 400
_GL_POWER = 6


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_NODES-point Gauss-Legendre rule on [-1, 1].

    numpy's nodes after two Newton steps on P_n, and the weights
    2 / ((1 - x^2) P_n'(x)^2) at them: numpy's own weights are only good to
    about 1e-13 at 400 nodes (the x^2 moment is 3.5e-14 off), these to 1e-16.
    """

    def legendre(x):  # P_n(x), P_n'(x) by the three-term recurrence
        p0, p1 = np.ones_like(x), x
        for k in range(2, _GL_NODES + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, _GL_NODES * (x * p1 - p0) / (x * x - 1.0)

    x, _ = np.polynomial.legendre.leggauss(_GL_NODES)
    for _ in range(2):
        p, dp = legendre(x)
        x = x - p / dp
    _, dp = legendre(x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@cache
def _gauss_legendre_01() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights on [0, 1] of a Gauss-Legendre rule in s, t = s^6, built once.

    The arrays are shared by every caller and marked read-only.
    """
    x, w = _gauss_legendre()
    s = 0.5 * (x + 1.0)
    t, wt = s**_GL_POWER, 0.5 * w * _GL_POWER * s ** (_GL_POWER - 1)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def li_oracle(N: int, z) -> np.ndarray:
    """Li_N(z) = z/(N-1)! Int_0^1 (-ln t)^(N-1) / (1 - z t) dt, for z off the cut [1, oo)."""
    t, w = _gauss_legendre_01()
    z = np.atleast_1d(np.asarray(z, dtype=complex))[:, None]
    return z[:, 0] * ((w * (-np.log(t)) ** (N - 1)) / (1.0 - z * t)).sum(axis=1) / math.factorial(N - 1)


def phi_oracle(L: int, x, y) -> np.ndarray:
    """Phi^(L)(x, y) from the Usyukina-Davydychev integral representation.

    Phi^(L) = -1/(L!(L-1)!) Int_0^1 ln^(L-1)(t) (ln(y/x) + ln t)^(L-1)
              (ln(y/x) + 2 ln t) / (y t^2 + (1-x-y) t + x) dt.

    The integrand peaks within about 1/sqrt(x) of t = 1, so for x > 1 the
    rule is split at t0 = 1 - 1/sqrt(x): the rule of `li_oracle` scaled to
    [0, t0] and a plain Gauss-Legendre rule on [t0, 1].  For x <= 1, t0 = 1
    and the second part has zero weight.  Unsplit, the rule is 7.5e-10 off
    at (1000, 10); split, within 9e-16 of the integral in mpmath for
    x = 30 .. 1000.
    """
    t, w = _gauss_legendre_01()
    g, gw = _gauss_legendre()
    x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    y = np.atleast_1d(np.asarray(y, dtype=float))[:, None]
    t0 = np.where(x > 1.0, 1.0 - 1.0 / np.sqrt(np.maximum(x, 1.0)), 1.0)
    t = np.concatenate([t0 * t, t0 + (1.0 - t0) * 0.5 * (g + 1.0)], axis=1)
    w = np.concatenate([t0 * w, (1.0 - t0) * 0.5 * gw], axis=1)
    lt = np.log(t)
    lyx = np.log(y / x)
    f = lt ** (L - 1) * (lyx + lt) ** (L - 1) * (lyx + 2.0 * lt) / (y * t * t + (1.0 - x - y) * t + x)
    return -(f * w).sum(axis=1) / (math.factorial(L) * math.factorial(L - 1))


def mu_legendre(n: int, k: int) -> float:
    """mu^(n)_k = 1/(n-1)! Int_0^1 P_(k-1)(2x - 1) (-ln x)^(n-1) dx, in floats.

    The shifted Legendre moments of the n-loop kernel (-ln x)^(n-1)/(n-1)!,
    summed by the Gauss-Legendre rule of `li_oracle`; no recursion in n or k.
    """
    t, w = _gauss_legendre_01()
    p = np.polynomial.legendre.legval(2.0 * t - 1.0, [0] * (k - 1) + [1])
    return float((w * p * (-np.log(t)) ** (n - 1)).sum()) / math.factorial(n - 1)


def one_loop_closed_form(Z1: ComplexQuaternion, Z2: ComplexQuaternion,
                         W1: ComplexQuaternion, W2: ComplexQuaternion) -> complex:
    """F_1 = ln((1 - zb)/(1 - z)) / ((z - zb) D), the one-loop integral over U(2)_R.

    D = N(Z1 - W2) N(Z2 - W1); z and zb are the roots of u^2 - (1 + s - t) u + s
    with s = N(Z1 - Z2) N(W1 - W2)/D and t = N(Z1 - W1) N(Z2 - W2)/D.  F_1 is
    symmetric in z and zb, so the sign of the square root does not matter.
    """
    D = norm(Z1 - W2) * norm(Z2 - W1)
    s = norm(Z1 - Z2) * norm(W1 - W2) / D
    t = norm(Z1 - W1) * norm(Z2 - W2) / D
    root = cmath.sqrt((1 + s - t) ** 2 - 4 * s)
    z, zb = (1 + s - t + root) / 2, (1 + s - t - root) / 2
    return cmath.log((1 - zb) / (1 - z)) / ((z - zb) * D)


def basis_value(f: BasisExpansion, z11, z12, z21, z22):
    """f at entries, each term t^l_{n,m} N^k with its own powers, from `t_poly` and a power of N."""
    n = z11 * z22 - z12 * z21
    return sum(complex(c) * t_poly(i.two_l, i.two_n, i.two_m)(z11, z12, z21, z22) * n**i.k
               for i, c in f.coeffs.items())


def kernel_integral(grid, f: BasisExpansion, poles) -> complex:
    """Weighted sum of f(Z) / prod_P N(Z - P) over a whole grid (pole None: N(Z)), one np.sum."""
    z11, z12, z21, z22, w = grid
    vals = basis_value(f, z11, z12, z21, z22)
    for P in poles:
        P = P or ComplexQuaternion(0, 0, 0, 0)
        vals = vals / ((z11 - P.z11) * (z22 - P.z22) - (z12 - P.z12) * (z21 - P.z21))
    return complex(np.sum(vals * w))


def conformal_draws(r: float, seed: int):
    """The conformal check's five moved point sets, drawing h of scale 0.05 one at a time.

    Returns the sets and, for each, whether it keeps Z1, Z2 outside and
    W1, W2 inside the cycle.
    """
    rng = random.Random(seed)
    points = quadrature._covariance_points(rng, r)
    draws = []
    for _ in range(5):
        h = random_near_identity(rng, 0.05, r)
        moved = tuple(conformal_act(h, P) for P in points)
        draws.append((moved, [domain_side(P, r) for P in moved] == ["minus", "minus", "plus", "plus"]))
    return draws


def conformal_act_alt(h: GroupElement, Z: ComplexQuaternion) -> ComplexQuaternion:
    """Equivalent left-quotient form (a' - Z c')^-1 (-b' + Z d')."""
    return inverse(h.ap - Z * h.cp) * (Z * h.dp - h.bp)


def chart_u2(R: float, phi, psi, theta, chi):
    """Chart of U(2)_R at angles (phi, psi, theta, chi); numpy-broadcasting.

    Returns (z11, z12, z21, z22, density) for the points
    R * e^{i phi} * q(psi, theta, chi), with q the unit quaternion of
    `hc.chart_s3`; ranges phi in [0, pi), psi, chi in [0, 2 pi), theta in
    [0, pi/2].  The density

        -i * R^4 * e^{4 i phi} * cos(theta) * sin(theta)

    is the closed-form Jacobian of dV = (1/4) dz11^dz12^dz21^dz22 in this
    chart, with the global sign calibrated so that integrating
    density / N(Z)^2 over the chart yields -2*pi^3*i.  The package keeps
    only the S^3_R chart and reaches U(2)_R through its phases.
    """
    c, s = np.cos(theta), np.sin(theta)
    e = np.exp(1j * phi)
    z11 = R * c * e * np.exp(1j * psi)
    z12 = R * s * e * np.exp(1j * chi)
    z21 = -R * s * e * np.exp(-1j * chi)
    z22 = R * c * e * np.exp(-1j * psi)
    density = -1j * R**4 * np.exp(4j * phi) * c * s
    return z11, z12, z21, z22, density


def meshgrid_grid(chart: str, radius: float, n: int):
    """Flattened chart arrays (z11, z12, z21, z22, weights) built over meshgrids."""
    psi = np.arange(n) * (2.0 * np.pi / n)
    chi = np.arange(n) * (2.0 * np.pi / n)
    x, wgl = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * np.pi * (x + 1.0)
    wth = wgl * 0.25 * np.pi
    R = radius
    if chart == "u2":
        phi = np.arange(n) * (np.pi / n)
        PHI, PSI, TH, CHI = np.meshgrid(phi, psi, theta, chi, indexing="ij")
        WTH = np.broadcast_to(wth[None, None, :, None], PHI.shape)
        c, s = np.cos(TH), np.sin(TH)
        e = np.exp(1j * PHI)
        z11 = R * c * e * np.exp(1j * PSI)
        z12 = R * s * e * np.exp(1j * CHI)
        z21 = -R * s * e * np.exp(-1j * CHI)
        z22 = R * c * e * np.exp(-1j * PSI)
        cell = (np.pi / n) * (2.0 * np.pi / n) ** 2
        w = -1j * R**4 * np.exp(4j * PHI) * c * s * WTH * cell
    else:
        PSI, TH, CHI = np.meshgrid(psi, theta, chi, indexing="ij")
        WTH = np.broadcast_to(wth[None, :, None], PSI.shape)
        c, s = np.cos(TH), np.sin(TH)
        z11 = R * c * np.exp(1j * PSI)
        z12 = R * s * np.exp(1j * CHI)
        z21 = -R * s * np.exp(-1j * CHI)
        z22 = R * c * np.exp(-1j * PSI)
        cell = (2.0 * np.pi / n) ** 2
        w = (R**3 * c * s * WTH * cell).astype(complex)
    return tuple(a.ravel().copy() for a in (z11, z12, z21, z22, w))


def orthogonality_pairs(two_l_max: int, R: float, nodes_s3: int, nodes_u2: int):
    """Both orthogonality pairing matrices, one np.sum per pair of value rows."""
    idxs = [(L, n, m) for L in range(two_l_max + 1)
            for n in range(-L, L + 1, 2) for m in range(-L, L + 1, 2)]

    a, b, c, d, w = meshgrid_grid("s3", R, nodes_s3)
    prim, dual = {}, {}
    for (L, n, m) in idxs:
        prim[(L, n, m)] = basis_value(BasisExpansion({TIndex(L, n, m, 0): 1}).degt(), a, b, c, d)
        di, fac = term_of_inverse_argument(L, m, n, -1)
        dual[(L, n, m)] = basis_value(BasisExpansion({di: fac}), a, b, c, d)
    sphere = np.array([[np.sum(w * prim[i1] * dual[i2]) / (2.0 * np.pi**2 * R) for i2 in idxs]
                       for i1 in idxs])

    a, b, c, d, w = meshgrid_grid("u2", R, nodes_u2)
    nz = a * d - b * c
    prim_u, dual_u = {}, {}
    for (L, n, m) in idxs:
        base = basis_value(BasisExpansion({TIndex(L, n, m, 0): 1}), a, b, c, d)
        for kk in (0, 1):
            prim_u[(L, n, m, kk)] = base * nz**kk
            di, fac = term_of_inverse_argument(L, m, n, -kk - 2)
            dual_u[(L, n, m, kk)] = basis_value(BasisExpansion({di: fac}), a, b, c, d)
    cycle = np.array([[1j / (2.0 * np.pi**3) * np.sum(w * v1 * v2) for v2 in dual_u.values()]
                      for v1 in prim_u.values()])
    return sphere, cycle
