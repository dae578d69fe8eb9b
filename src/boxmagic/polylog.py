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

The ladder functions take cross-ratio arguments x, y in the region
x, y > 0, lambda^2 = (1-x-y)^2 - 4xy > 0, x + y < 1.  One closed form
serves every loop order L (Usyukina and Davydychev, Phys. Lett. B 305
(1993) 136):

    Phi^(L) = -1/(L! lambda) sum_{j=L}^{2L} (-1)^j j! ln^(2L-j)(y/x)
              / ((j-L)! (2L-j)!) * [Li_j(-1/(rho x)) - Li_j(-rho y)].

Its constant term at L = 1 is pi^2/3; `phi1` can replace it by the
pi^3/3 of the "printed" variant, its default.  Only "pi-squared" agrees
with the one-dimensional integral representation of Phi^(1).
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

__all__ = [
    "li",
    "li_series",
    "li_integral",
    "lambda_rho",
    "phi",
    "phi1",
    "phi2",
    "PHI1_CONSTANTS",
]

_SERIES_RADIUS = 0.5
_SERIES_TOL = 1e-17

# The ln z expansion is accepted for |ln z| <= _LOG_RADIUS; every |z| in
# (1/2, 1] has |ln z| <= 3.22.  Its coefficients fall like (2 pi)^-k, so
# after _LOG_TERMS terms the truncation error is about 2e-17 at
# |ln z| = 4 and below 1e-20 at 3.22.
_LOG_RADIUS = 4.0
_LOG_TERMS = 72

# Selectable constant term of Phi^(1): "printed" is pi^3/3, "pi-squared"
# the pi^2/3 of the closed form, the only one the integral confirms.
PHI1_CONSTANTS = {
    "printed": math.pi**3 / 3.0,
    "pi-squared": math.pi**2 / 3.0,
}


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


def li_series(N: int, z: complex, tol: float = _SERIES_TOL, max_terms: int = 10_000) -> complex:
    """Power series sum_{j>=1} z^j / j^N; converges for |z| < 1."""
    if abs(z) >= 1.0:
        raise ValueError("series representation requires |z| < 1")
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for j in range(1, max_terms + 1):
        term = term * z
        inc = term / j**N
        total += inc
        scale = abs(total)  # max(scale, 1e-300) without the call, which costs more than the rest of the loop
        if abs(inc) <= tol * (scale if scale > 1e-300 else 1e-300):
            return total
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
    if abs(w) > _LOG_RADIUS:
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


def lambda_rho(x: float, y: float) -> tuple[float, float]:
    """The auxiliary pair lambda = sqrt((1-x-y)^2 - 4xy), rho = 2/(1-x-y+lambda)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"arguments must be finite, got (x, y) = ({x}, {y})")
    if x <= 0 or y <= 0:
        raise ValueError("arguments must be positive")
    lam2 = (1.0 - x - y) ** 2 - 4.0 * x * y
    if lam2 <= 0:
        raise ValueError(f"lambda^2 = {lam2} is not positive at (x, y) = ({x}, {y})")
    lam = math.sqrt(lam2)
    rho = 2.0 / (1.0 - x - y + lam)
    return lam, rho


def _check_region(x: float, y: float) -> tuple[float, float]:
    lam, rho = lambda_rho(x, y)
    if rho * x <= 0 or rho * y <= 0:
        raise ValueError(f"(x, y) = ({x}, {y}) leaves the principal region (rho*x, rho*y must be > 0)")
    return lam, rho


def phi(L: int, x: float, y: float) -> float:
    """L-loop ladder function Phi^(L)(x, y), the real part of the closed form above."""
    if L < 1:
        raise ValueError("loop order must be >= 1")
    lam, rho = _check_region(x, y)
    lyx = math.log(y / x)
    a, b = -1.0 / (rho * x), -rho * y
    total = 0.0
    for j in range(L, 2 * L + 1):
        weight = (-1) ** j * math.factorial(j) / (math.factorial(j - L) * math.factorial(2 * L - j))
        total += weight * lyx ** (2 * L - j) * (li(j, a) - li(j, b)).real
    return -total / (math.factorial(L) * lam)


def phi1(x: float, y: float, constant: str = "printed") -> float:
    """One-loop ladder function Phi^(1) with the selected constant term (see PHI1_CONSTANTS)."""
    return phi(1, x, y) + (PHI1_CONSTANTS[constant] - PHI1_CONSTANTS["pi-squared"]) / lambda_rho(x, y)[0]


def phi2(x: float, y: float) -> float:
    """Two-loop ladder function Phi^(2)."""
    return phi(2, x, y)
