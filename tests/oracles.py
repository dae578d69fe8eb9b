"""Independent exact oracles used by the tests.

The main tool is closed-form integration of polynomials over the unit
3-sphere: a monomial x0^a0 x1^a1 x2^a2 x3^a3 integrates to zero unless
every exponent is even, and otherwise to

    2 * prod_i Gamma((ai+1)/2) / Gamma((|a|+4)/2),

which is a rational multiple of pi^2.  Carrying coefficients as
Gaussian rationals keeps every sphere integral exact, so the pairing
and inner-product tables can be checked with no numerical tolerance.

The exact combinatorial layers have brute-force oracles here too: the
all-permutations canonical key of a box diagram, the a-table row by
Fraction suffix sums, the ladder image by the one-step ladder
recursion, and diagram images by peeling the history in Fractions.

The polylogarithms and ladder functions are checked against
one-dimensional integral representations, summed by a Gauss-Legendre
rule after the substitution t = s^6, which tames the logarithmic
end-point singularities.

The quadrature grids have a reference build that evaluates exp, cos
and sin over full meshgrids, and the orthogonality Gram matrices a
reference that sums each pair of value rows separately.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from boxmagic.diagrams import BoxDiagram
from boxmagic.magic import GeneratorImage
from boxmagic.tbasis import BasisExpansion, MultiPoly, TIndex, t_poly, term_of_inverse_argument


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

    def conj(self) -> "GC":
        return GC(self.re, -self.im)

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


def brute_force_key(d: BoxDiagram) -> tuple:
    """Least (n, solid, dashed, order) encoding over all n! internal relabellings."""
    internals = d.internals
    best = None
    for perm in permutations(internals):
        mapping = dict(zip(internals, perm))

        def rn(v: str) -> str:
            return mapping.get(v, v)

        key = (
            d.n,
            tuple(sorted(tuple(sorted((rn(a), rn(b)))) for (a, b) in d.solid)),
            tuple(sorted(tuple(sorted((rn(a), rn(b)))) for (a, b) in d.dashed)),
            tuple(sorted((rn(a), rn(b)) for (a, b) in d.order)),
        )
        if best is None or key < best:
            best = key
    return best


def a_row_fraction(n: int, k: int) -> tuple[Fraction, ...]:
    """a^k(n, .) by a^k(n, p) = sum_{q >= p} a^k(n-1, q)/(q+1) in Fractions."""
    row = [Fraction(1, k + 1)] * (k + 1)
    for _ in range(n - 1):
        acc = Fraction(0)
        for q in range(k, -1, -1):
            acc += row[q] / (q + 1)
            row[q] = acc
    return tuple(row)


def mu_fraction(n: int, k: int) -> Fraction:
    """mu^(n)_k = sum_p (-1)^(k+p+1) a^(k-1)(n, p) C(k-1, p) in Fractions."""
    return sum(((-1) ** (k + p + 1) * a * math.comb(k - 1, p)
                for p, a in enumerate(a_row_fraction(n, k - 1))), Fraction(0))


def ladder_image_recursive(n: int, k: int, side: str) -> GeneratorImage:
    """Ladder image via image^(n) = 1/(k+1) sum_p monomial * image^(n-1)(p).

    Unmemoised, so exponential in n: keep n and k small.
    """
    if n == 1:
        row = tuple(Fraction(1, k + 1) for _ in range(k + 1))
        return GeneratorImage(k, side, row)
    out = [Fraction(0)] * (k + 1)
    for p in range(k + 1):
        sub = ladder_image_recursive(n - 1, p, side).coeffs
        for q in range(p + 1):
            if side == "right":
                # multiplier (w11)^(k-p) keeps the w' exponent q
                out[q] += sub[q] / (k + 1)
            else:
                # multiplier (w'11)^(k-p) raises the w' exponent to k-p+q
                out[k - p + q] += sub[q] / (k + 1)
    return GeneratorImage(k, side, tuple(out))


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


_GL_NODES = 400
_GL_POWER = 6


def _gauss_legendre_01() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights on [0, 1] of a Gauss-Legendre rule in s, t = s^6."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    s = 0.5 * (x + 1.0)
    return s**_GL_POWER, 0.5 * w * _GL_POWER * s ** (_GL_POWER - 1)


def li_oracle(N: int, z) -> np.ndarray:
    """Li_N(z) = z/(N-1)! Int_0^1 (-ln t)^(N-1) / (1 - z t) dt, for z off the cut [1, oo)."""
    t, w = _gauss_legendre_01()
    z = np.atleast_1d(np.asarray(z, dtype=complex))[:, None]
    return z[:, 0] * ((w * (-np.log(t)) ** (N - 1)) / (1.0 - z * t)).sum(axis=1) / math.factorial(N - 1)


def phi_oracle(L: int, x, y) -> np.ndarray:
    """Phi^(L)(x, y) from the Usyukina-Davydychev integral representation.

    Phi^(L) = -1/(L!(L-1)!) Int_0^1 ln^(L-1)(t) (ln(y/x) + ln t)^(L-1)
              (ln(y/x) + 2 ln t) / (y t^2 + (1-x-y) t + x) dt.
    """
    t, w = _gauss_legendre_01()
    x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    y = np.atleast_1d(np.asarray(y, dtype=float))[:, None]
    lt = np.log(t)[None, :]
    lyx = np.log(y / x)
    f = lt ** (L - 1) * (lyx + lt) ** (L - 1) * (lyx + 2.0 * lt) / (y * t * t + (1.0 - x - y) * t + x)
    return -(f @ w) / (math.factorial(L) * math.factorial(L - 1))


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
        prim[(L, n, m)] = BasisExpansion({TIndex(L, n, m, 0): 1}, "H+").degt().eval_entries(a, b, c, d)
        di, fac = term_of_inverse_argument(L, m, n, -1)
        dual[(L, n, m)] = BasisExpansion({di: fac}, "H-").eval_entries(a, b, c, d)
    sphere = np.array([[np.sum(w * prim[i1] * dual[i2]) / (2.0 * np.pi**2 * R) for i2 in idxs]
                       for i1 in idxs])

    a, b, c, d, w = meshgrid_grid("u2", R, nodes_u2)
    nz = a * d - b * c
    prim_u, dual_u = {}, {}
    for (L, n, m) in idxs:
        base = BasisExpansion({TIndex(L, n, m, 0): 1}).eval_entries(a, b, c, d)
        for kk in (0, 1):
            prim_u[(L, n, m, kk)] = base * nz**kk
            di, fac = term_of_inverse_argument(L, m, n, -kk - 2)
            dual_u[(L, n, m, kk)] = BasisExpansion({di: fac}).eval_entries(a, b, c, d)
    cycle = np.array([[1j / (2.0 * np.pi**3) * np.sum(w * v1 * v2) for v2 in dual_u.values()]
                      for v1 in prim_u.values()])
    return sphere, cycle
