"""Polylogarithms and the ladder functions Phi^(L).

Li_N(z), for integer N >= 1, is evaluated on the principal branch (cut
along [1, oo)) by one of three deterministic series (Crandall, "Note on
fast polylogarithm computation", 2006):

* |z| <= 1/2: the defining power series sum_{j>=1} z^j / j^N
  (`li_series`);
* 1/2 < |z| <= 1: the expansion in w = ln z (`li_integral`),

      Li_N(z) = sum_{k != N-1} zeta(N-k) w^k / k!
                + w^(N-1) / (N-1)! * (H_{N-1} - ln(-w)),

  which converges for |w| < 2 pi; zeta at the non-positive integers
  comes from exact Bernoulli numbers, zeta(n >= 2) from Euler-Maclaurin
  summation;
* |z| > 1: the inversion relation

      Li_N(z) = -(-1)^N Li_N(1/z) - (2 pi i)^N / N! * B_N(1/2 + ln(-z) / (2 pi i)),

  which moves the argument into one of the first two regions.

Li_1(z) = -ln(1-z) in closed form.  The coefficient tables are exact
rationals built once per order N and rounded to floats; the Bernoulli
numbers come from the integer tangent numbers (Brent and Harvey), and
the inversion term is a polynomial in ln(-z) with real coefficients
2 eta(N-j) / j!, eta(m) = (1 - 2^(1-m)) zeta(m), free of powers of pi.

Both series run by Horner's rule over a number of terms fixed up front:
the power series over K terms of a table of 1/j^N, K chosen from |z| so
that the dropped tail is below 2^-60 |Li_N(z)|; the ln z expansion over
the coefficients whose terms |ln z| does not make negligible, which fall
like (2 pi)^-k.  A real argument runs in float arithmetic throughout:
the series for |x| <= 1/2, the ln x expansion for 1/2 < x < 1, the
duplication relation Li_N(x) = 2^(1-N) Li_N(x^2) - Li_N(-x) (both
terms by the expansion, at 2 ln(-x) and ln(-x)) for -1 <= x < -1/2, and
the inversion relation, whose Bernoulli polynomial is real in ln(-x),
for x < -1.  Against mpmath at 40 digits the real path is within
6.8e-16 (relative) of Li_N(x) for N = 2..6 at 2 700 points of [-60, 1),
the band -1.1 .. -0.5 included, and the power series within 2.8e-16 for
|z| < 0.95.

The ladder functions Phi^(L)(x, y) come from one closed form for every loop
order L and every x, y > 0 (Usyukina and Davydychev, Phys. Lett. B 305
(1993) 136).  With x >= y, z and zbar the roots of u^2 - (1+x-y) u + x,
w = 1 - 1/z and wbar = 1 - 1/zbar lie below 1 where lambda^2 =
(1-x-y)^2 - 4xy >= 0, and `phi` hands them to the float path; they are
complex conjugates where lambda^2 is negative:

    Phi^(L) = 1/(z - zbar) sum_{f=0}^{L} c_f ln^f(y/x) [Li_{2L-f}(w) - Li_{2L-f}(wbar)],
    c_f = (-1)^f (2L-f)! / (L! f! (L-f)!);

at lambda = 0 the bracket over z - zbar is its limit Li_{2L-f-1}(w)/(x w).
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from fractions import Fraction

__all__ = ["li", "li_series", "li_integral", "phi", "phi1", "phi2"]

_SERIES_RADIUS = 0.5
_SERIES_MAX_TERMS = 10_000
# The power series stops where its tail is below 2^-62 |z| (`_series_table`); every
# |Li_N(z)| with |z| < 1 is at least (2 - zeta(2)) |z| > |z|/4.
_SERIES_LN_TOL = 62 * math.log(2.0)

# The ln z expansion is accepted for |ln z| <= _LOG_RADIUS; every |z| in
# (1/2, 1] has |ln z| <= 3.22.  Its coefficients fall like (2 pi)^-k:
# a call keeps those whose terms exceed _LOG_TOL |ln z| (which puts the
# tail near 2^-65 |ln z|), and all _LOG_TERMS + 1 of them leave about
# 2e-17 at |ln z| = 4 and below 1e-20 at 3.22.
_LOG_RADIUS = 4.0
_LOG_TERMS = 72
_LOG_TOL = 2.0**-68

# Below |z - zbar| = _NEAR_ROOTS (z + zbar) the plain difference would lose up to 1e-15 (z + zbar)/|z - zbar|; there
# the bracket is the mean of Li_{n-1}(w)/(x w) over [wbar, w] by the 4-point Gauss rule, (node, weight/2): <= 2e-15.
_NEAR_ROOTS = 0.03
_GAUSS4 = tuple((s * (3 / 7 - t * 2 / 7 * 1.2**0.5) ** 0.5, (18 + t * 30**0.5) / 72) for t in (1, -1) for s in (1, -1))

def _check_branch(z: complex) -> None:
    if z.imag == 0 and z.real >= 1.0:
        raise ValueError(f"Li argument {z} lies on the branch cut [1, oo)")


@functools.lru_cache(maxsize=None)
def _bernoulli(m: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_m (B_1 = -1/2), exact, from the tangent numbers T_k.

    T_1..T_n by Brent and Harvey's integer recurrence, then
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); the odd B_j, j >= 3, vanish.
    """
    n = m // 2
    t = [0, 1] + [0] * (n - 1)  # t[k] = T_k
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    b = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (m - 1)
    for k in range(1, n + 1):
        b[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
    return tuple(b[: m + 1])


def _zeta(s: int, bern: tuple[Fraction, ...]) -> Fraction:
    """zeta(s) for integer s: exact for s <= 0, Euler-Maclaurin (M = 10, 10 corrections) for s >= 2."""
    if s <= 0:
        n = -s
        return (-1) ** n * bern[n + 1] / (n + 1)
    M = 10
    total = sum(Fraction(1, k**s) for k in range(1, M))
    total += Fraction(1, (s - 1) * M ** (s - 1)) + Fraction(1, 2 * M**s)
    rising = Fraction(s)  # s (s+1) ... (s+2j-2)
    for j in range(1, 11):
        total += bern[2 * j] / math.factorial(2 * j) * rising / M ** (s + 2 * j - 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


@functools.lru_cache(maxsize=None)
def _tables(N: int) -> tuple[list[float], tuple[float, ...], tuple[float, ...]]:
    """Coefficients of order N: (c_k) of the ln z expansion, (e_j) of the inversion term, and the radii.

    The ln z expansion is sum_k c_k w^k - w^(N-1)/(N-1)! ln(-w), with
    c_k = zeta(N-k)/k! except c_(N-1) = H_(N-1)/(N-1)!.  The inversion
    term (2 pi i)^N/N! B_N(1/2 + v/(2 pi i)) is sum_j e_j v^j with
    v = ln(-z) and e_j = (2 pi i)^m C(N, j) B_m(1/2) / N!, m = N - j.
    B_m(1/2) = (2^(1-m) - 1) B_m vanishes for odd m, and for even m
    (2 pi i)^m B_m / m! = -2 zeta(m) (-1 at m = 0), so e_j = 2 eta(m) / j!
    with eta(m) = (1 - 2^(1-m)) zeta(m): real, and one rounding from an
    exact rational, with no power of a rounded pi.
    Up to |w| = radii[K], every term c_k w^k with k >= K is below
    _LOG_TOL |w|: the expansion keeps c_0 .. c_(K-1), a slice of the list c
    (see `_series_table`).
    """
    bern = _bernoulli(max(N, _LOG_TERMS) + 1)
    harmonic = sum(Fraction(1, k) for k in range(1, N))
    c = [float((harmonic if k == N - 1 else _zeta(N - k, bern)) / math.factorial(k)) for k in range(_LOG_TERMS + 1)]
    radii, bound = [], math.inf
    for k in range(_LOG_TERMS, 1, -1):
        if c[k]:
            bound = min(bound, (_LOG_TOL / abs(c[k])) ** (1.0 / (k - 1)))
        radii.append(bound)
    e = tuple(0.0 if (N - j) % 2 else float(2 * (1 - Fraction(2) ** (1 - N + j)) * _zeta(N - j, bern) / math.factorial(j))
              for j in range(N + 1))
    return c, e, (0.0, 0.0, *reversed(radii))


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j, float for float x, complex for complex x."""
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


@functools.lru_cache(maxsize=None)
def _series_table(N: int, size: int) -> tuple[list[float], list[float]]:
    """(1/j^N for j = 1..size, radii): K terms of the power series suffice up to |z| = radii[K-1].

    The tail after K terms is at most t^(K+1) / ((K+1)^N (1-t)) at t = |z|,
    below 2^-62 t wherever t^K <= 2^-62 (K+1)^N (1-t).  That holds at
    t = s (1-s)^(1/K) for every s <= (2^-62 (K+1)^N)^(1/K); s = K/(K+1),
    where s (1-s)^(1/K) peaks, is the cap (taken in logarithms, where the
    first bound overflows at large N).  Each 1/j^N is correctly rounded
    (0.0 where it underflows).  Lists: the slices that `_series` takes are
    freed, where tuples of fewer than 20 items would stay on the
    interpreter's free lists.
    """
    radii = []
    for K in range(1, size + 1):
        s = math.exp(min((N * math.log(K + 1) - _SERIES_LN_TOL) / K, -math.log1p(1.0 / K)))
        radii.append(s * (1.0 - s) ** (1.0 / K))
    return [1 / j**N for j in range(1, size + 1)], radii


def _series(N: int, z, r: float):
    """sum_{j=1}^{K} z^j / j^N by Horner's rule, r = |z| < 1, float for float z and complex for complex z.

    K is the least count that `_series_table` allows at r; the table doubles
    in size until it reaches r, and refuses beyond _SERIES_MAX_TERMS terms.
    """
    size = 64
    recips, radii = _series_table(N, size)
    while radii[-1] < r and size < _SERIES_MAX_TERMS:
        size *= 2
        recips, radii = _series_table(N, size)
    K = bisect.bisect_left(radii, r) + 1
    if K > _SERIES_MAX_TERMS:
        raise RuntimeError(f"polylogarithm series would need more than {_SERIES_MAX_TERMS} terms at |z| = {r}")
    total = 0.0
    for c in recips[K - 1::-1]:
        total = total * z + c
    return total * z


def _expansion(N: int, w, first: int):
    """sum_{k >= first} c_k w^k - w^(N-1)/(N-1)! ln(-w), first 0 or 1: Li_N(e^w), less zeta(N) when first is 1.

    Float for float w (then w < 0), complex for complex w; Horner's rule over
    the coefficients that |w| needs (`_tables`).
    """
    c, _, radii = _tables(N)
    total = 0.0
    for ck in reversed(c[first:bisect.bisect_left(radii, abs(w))]):
        total = total * w + ck
    if first:
        total *= w
    log = math.log if isinstance(w, float) else cmath.log
    return total - w ** (N - 1) / math.factorial(N - 1) * log(-w)


def li_series(N: int, z: complex) -> complex:
    """Power series sum_{j>=1} z^j / j^N; converges for |z| < 1.

    On the real axis it runs on z.real in float arithmetic.  It raises
    RuntimeError where |z| is so close to 1 that the series would need
    more than 10 000 terms.
    """
    r = abs(z)
    if not r < 1.0:  # also refuses a non-finite z, whose |z| is inf or nan
        raise ValueError(f"series representation requires |z| < 1, got z = {z}")
    return complex(_series(N, z.real if z.imag == 0 else complex(z), r))


def li_integral(N: int, z: complex) -> complex:
    """The ln z branch of Li_N: its expansion in powers of w = ln z.

    Sum_{k != N-1} zeta(N-k) w^k/k! + w^(N-1)/(N-1)! (H_{N-1} - ln(-w)).
    `li` uses it for 1/2 < |z| <= 1; it is accurate wherever |ln z| <= 4
    and raises ValueError beyond.
    """
    if N < 1:
        raise ValueError("polylogarithm order must be >= 1")
    z = complex(z)
    _check_branch(z)
    if z == 0:
        return 0.0 + 0.0j
    w = cmath.log(z)
    if not abs(w) <= _LOG_RADIUS:  # also refuses a non-finite z, whose |ln z| is inf or nan
        raise ValueError(f"ln z expansion requires |ln z| <= {_LOG_RADIUS}, got {abs(w):.3g} at z = {z}")
    return complex(_expansion(N, w, 0))


def _log1m(z):
    """ln(1 - z), float for float z < 1: log1p keeps the digits of a small |z|; cmath.log(1 - z) those near z = 1."""
    if isinstance(z, float):
        return math.log1p(-z)
    if abs(z) < 0.5:  # ln|1 - z| = log1p(x (x - 2) + y^2) / 2, whose argument rounds to -1 near z = 1
        return complex(0.5 * math.log1p(z.real * (z.real - 2.0) + z.imag**2), math.atan2(-z.imag, 1.0 - z.real))
    return cmath.log(1.0 - z)


def _li_real(N: int, x: float) -> float:
    """Li_N(x) for real x < 1 in float arithmetic: the series, the ln x expansion, duplication or inversion."""
    if N == 1:
        return -_log1m(x)
    if -_SERIES_RADIUS <= x <= _SERIES_RADIUS:
        return _series(N, x, abs(x))
    if x > 0.0:
        return _expansion(N, math.log(x), 0)
    if x >= -1.0:  # 2^(1-N) Li_N(x^2) - Li_N(-x), zeta(N) of both terms taken together
        eta = (2.0 ** (1 - N) - 1.0) * _tables(N)[0][0]  # Li_N(-1)
        if x == -1.0:
            return eta
        v = math.log(-x)
        return eta + (2.0 ** (1 - N) * _expansion(N, 2.0 * v, 1) - _expansion(N, v, 1))
    return (-1) ** (N + 1) * _li_real(N, 1.0 / x) - _horner(_tables(N)[1], math.log(-x))


def li(N: int, z: complex) -> complex:
    """Principal-branch polylogarithm Li_N(z) for integer N >= 1.

    Li_1(z) = -ln(1-z) in closed form (`_log1m`); otherwise the power series for
    |z| <= 1/2, the ln z expansion for 1/2 < |z| <= 1 and the inversion
    relation for |z| > 1.  A real z runs in float arithmetic, with the
    duplication relation for -1 <= z < -1/2.
    """
    if N < 1:
        raise ValueError("polylogarithm order must be >= 1")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"Li argument {z} is not finite")
    _check_branch(z)
    if z.imag == 0:
        return complex(_li_real(N, z.real))
    if N == 1:
        return -_log1m(z)
    r = abs(z)
    if r <= _SERIES_RADIUS:
        return li_series(N, z)
    if r <= 1.0:
        return li_integral(N, z)
    inner = li(N, 1.0 / z)
    return (-1) ** (N + 1) * inner - _horner(_tables(N)[1], cmath.log(-z))


def _li_one_minus(N: int, u: complex) -> tuple[complex, float]:
    """Li_N(1 - u) = rest + constant, N >= 1: for |u| < 1/2 the ln z expansion at ln(1 - u), zeta(N) kept apart.

    A float u (0 < u, where lambda^2 >= 0) runs in float arithmetic.
    """
    if abs(u) >= 0.5:
        return (_li_real(N, 1.0 - u) if isinstance(u, float) else li(N, 1.0 - u)), 0.0
    return _expansion(N, _log1m(u), 1), _tables(N)[0][0]


def phi(L: int, x: float, y: float) -> float:
    """L-loop ladder function Phi^(L)(x, y) by the closed form above, so phi(L, x, y) == phi(L, y, x) exactly."""
    if L < 1:
        raise ValueError("loop order must be >= 1")
    given = (x, y)  # named by every refusal, in the order given
    if not (0 < x < math.inf and 0 < y < math.inf):
        raise ValueError(f"arguments must be finite and positive, got (x, y) = {given}")
    x, y = max(x, y), min(x, y)
    p = math.sqrt(x) + math.sqrt(y)
    m = (x - y) / p  # sqrt(x) - sqrt(y) to a relative 2e-16, even where they nearly cancel
    a, d = (1.0 - p) * (1.0 + p), (1.0 - m) * (1.0 + m)  # lambda^2 = a d, each factor without overflow
    lam, b = math.sqrt(abs(a)) * math.sqrt(abs(d)) * (1j if (a < 0) != (d < 0) else 1.0), 1.0 + x - y
    z = 0.5 * b + 0.5 * lam  # z - zbar = lambda, without cancellation since b >= 1
    u, ubar = 1.0 / z, z / x  # 1 - w and 1 - wbar
    if not cmath.isfinite(ubar):  # with x >= y, where both arguments are subnormal or near the float maximum
        raise ValueError(f"1 - wbar = z/x is not finite at (x, y) = {given}: the arguments leave the float range")
    q = y / x  # ln(y/x) to a relative 2e-16: y - x is exact where q > 1/2, and q may be subnormal or 0
    lyx = math.log1p((y - x) / x) if q > 0.5 else math.log(q) if q > 1e-300 else math.log(y) - math.log(x)
    nodes = [(weight, 0.5 * (b - node * lam) / x) for node, weight in _GAUSS4] if abs(lam) < _NEAR_ROOTS * b else []
    total = 0.0
    for f in range(L + 1):
        n = 2 * L - f
        if nodes:  # z near zbar: the mean of Li_{n-1}(w)/(x w) over [wbar, w], by u = 1 - w; 1/u at n = 1, 1 at w = 0
            bracket = sum(g * (1.0 if v == 1 else 1.0 / v if n == 1 else sum(_li_one_minus(n - 1, v)) / (1.0 - v))
                          for g, v in nodes) / x
        else:
            (rest, const), (rest_bar, const_bar) = _li_one_minus(n, u), _li_one_minus(n, ubar)
            bracket = ((rest - rest_bar) + (const - const_bar)) / lam
        total += (-1) ** f * math.comb(2 * L - f, L) / math.factorial(f) * lyx**f * bracket
    return total.real


def phi1(x: float, y: float, constant: str = "pi-squared") -> float:
    """One-loop ladder function Phi^(1) = phi(1, x, y); "pi-squared" names its constant term pi^2/3."""
    if constant != "pi-squared":
        raise ValueError(f"Phi^(1) has the constant term pi^2/3 ('pi-squared'), got {constant!r}")
    return phi(1, x, y)


def phi2(x: float, y: float) -> float:
    """Two-loop ladder function Phi^(2)."""
    return phi(2, x, y)
