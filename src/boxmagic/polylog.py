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
rationals built once per order N and rounded to floats.

The ladder functions Phi^(L)(x, y) come from one closed form for every loop
order L and every x, y > 0 (Usyukina and Davydychev, Phys. Lett. B 305
(1993) 136).  With x >= y, z and zbar the roots of u^2 - (1+x-y) u + x,
w = 1 - 1/z and wbar = 1 - 1/zbar lie below 1 where lambda^2 =
(1-x-y)^2 - 4xy >= 0 and are complex conjugates where it is negative:

    Phi^(L) = 1/(z - zbar) sum_{f=0}^{L} c_f ln^f(y/x) [Li_{2L-f}(w) - Li_{2L-f}(wbar)],
    c_f = (-1)^f (2L-f)! / (L! f! (L-f)!);

at lambda = 0 the bracket over z - zbar is its limit Li_{2L-f-1}(w)/(x w).
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

__all__ = ["li", "li_series", "li_integral", "phi", "phi1", "phi2"]

_SERIES_RADIUS = 0.5
_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 10_000

# The ln z expansion is accepted for |ln z| <= _LOG_RADIUS; every |z| in
# (1/2, 1] has |ln z| <= 3.22.  Its coefficients fall like (2 pi)^-k, so
# after _LOG_TERMS terms the truncation error is about 2e-17 at
# |ln z| = 4 and below 1e-20 at 3.22.
_LOG_RADIUS = 4.0
_LOG_TERMS = 72

# Below |z - zbar| = _NEAR_ROOTS (z + zbar) the plain difference would lose up to 1e-15 (z + zbar)/|z - zbar|; there
# the bracket is the mean of Li_{n-1}(w)/(x w) over [wbar, w] by the 4-point Gauss rule, (node, weight/2): <= 2e-15.
_NEAR_ROOTS = 0.03
_GAUSS4 = tuple((s * (3 / 7 - t * 2 / 7 * 1.2**0.5) ** 0.5, (18 + t * 30**0.5) / 72) for t in (1, -1) for s in (1, -1))

def _check_branch(z: complex) -> None:
    if z.imag == 0 and z.real >= 1.0:
        raise ValueError(f"Li argument {z} lies on the branch cut [1, oo)")


@functools.lru_cache(maxsize=None)
def _bernoulli(m: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_m (B_1 = -1/2), exact."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return tuple(b)


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
def _tables(N: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of order N: (c_k) of the ln z expansion, (e_j) of the inversion term.

    The ln z expansion is sum_k c_k w^k - w^(N-1)/(N-1)! ln(-w), with
    c_k = zeta(N-k)/k! except c_(N-1) = H_(N-1)/(N-1)!.  The inversion
    term (2 pi i)^N/N! B_N(1/2 + v/(2 pi i)) is sum_j e_j v^j with
    v = ln(-z) and e_j = (2 pi i)^(N-j) C(N, j) B_(N-j)(1/2) / N!; since
    B_m(1/2) = (2^(1-m) - 1) B_m vanishes for odd m, every e_j is real.
    """
    bern = _bernoulli(max(N, _LOG_TERMS) + 1)
    harmonic = sum(Fraction(1, k) for k in range(1, N))
    c = tuple(float((harmonic if k == N - 1 else _zeta(N - k, bern)) / math.factorial(k))
              for k in range(_LOG_TERMS + 1))
    e = []
    for j in range(N + 1):
        m = N - j
        if m % 2:
            e.append(0.0)
            continue
        b_half = (Fraction(2) ** (1 - m) - 1) * bern[m]
        # (2 pi i)^m = (-1)^(m/2) (2 pi)^m for even m
        e.append(float((-1) ** (m // 2) * math.comb(N, j) * b_half / math.factorial(N)) * (2.0 * math.pi) ** m)
    return c, tuple(e)


def _horner(coeffs: tuple[float, ...], x: complex) -> complex:
    total = 0.0 + 0.0j
    for c in reversed(coeffs):
        total = total * x + c
    return total


# _POWERS[N][j] = float(j**N), the divisors of the series of order N
# (index 0 unused), grown by doubling as far as a call reaches: about 60
# entries for the |z| <= 1/2 of every call from `li`.
_POWERS: dict[int, list[float]] = {}


def _extend_powers(powers: list[float], N: int, stop: int) -> None:
    """Append float(j**N) up to j = stop - 1; inf where it overflows, which ends the series there."""
    for j in range(len(powers), stop):
        try:
            powers.append(float(j**N))
        except OverflowError:
            powers.append(math.inf)


def li_series(N: int, z: complex) -> complex:
    """Power series sum_{j>=1} z^j / j^N; converges for |z| < 1.

    On the real axis the same loop runs on z.real in float arithmetic:
    the imaginary parts of complex arithmetic would stay zero, so the
    result has the same bits, at a fraction of the cost.
    """
    if not abs(z) < 1.0:  # also refuses a non-finite z, whose |z| is inf or nan
        raise ValueError(f"series representation requires |z| < 1, got z = {z}")
    if z.imag == 0:
        z, total, term = z.real, 0.0, 1.0
    else:
        total, term = 0.0 + 0.0j, 1.0 + 0.0j
    powers = _POWERS.get(N)
    if powers is None:
        powers = _POWERS[N] = [math.nan]
    tol = _SERIES_TOL  # a local, read once per call rather than once per term
    for j in range(1, _SERIES_MAX_TERMS + 1):
        term = term * z
        try:
            inc = term / powers[j]
        except IndexError:
            _extend_powers(powers, N, 2 * j)
            inc = term / powers[j]
        total += inc
        scale = abs(total)  # max(scale, 1e-300) without the call, which costs more than the rest of the loop
        if abs(inc) <= tol * (scale if scale > 1e-300 else 1e-300):
            return complex(total)
    raise RuntimeError("polylogarithm series did not converge")


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
    c, _ = _tables(N)
    return _horner(c, w) - w ** (N - 1) / math.factorial(N - 1) * cmath.log(-w)


def li(N: int, z: complex) -> complex:
    """Principal-branch polylogarithm Li_N(z) for integer N >= 1.

    Li_1(z) = -ln(1-z) in closed form; otherwise the power series for
    |z| <= 1/2, the ln z expansion for 1/2 < |z| <= 1 and the inversion
    relation for |z| > 1.
    """
    if N < 1:
        raise ValueError("polylogarithm order must be >= 1")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"Li argument {z} is not finite")
    _check_branch(z)
    if N == 1:
        return -cmath.log(1.0 - z)
    r = abs(z)
    if r <= _SERIES_RADIUS:
        return li_series(N, z)
    if r <= 1.0:
        return li_integral(N, z)
    inner = li(N, 1.0 / z)
    return (-1) ** (N + 1) * inner - _horner(_tables(N)[1], cmath.log(-z))


def _li_one_minus(N: int, u: complex) -> tuple[complex, float]:
    """Li_N(1 - u) = rest + constant, N >= 1: for |u| < 1/2 the ln z expansion at ln(1 - u), zeta(N) kept apart."""
    if abs(u) >= 0.5:
        return li(N, 1.0 - u), 0.0
    c = _tables(N)[0]
    v = complex(0.5 * math.log1p(u.real * (u.real - 2.0) + u.imag**2), math.atan2(-u.imag, 1.0 - u.real))  # ln(1-u)
    return v * _horner(c[1:], v) - v ** (N - 1) / math.factorial(N - 1) * cmath.log(-v), c[0]


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
