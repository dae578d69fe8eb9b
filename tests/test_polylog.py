"""Tests for the polylogarithms and the ladder functions."""

from __future__ import annotations

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmagic import polylog
from boxmagic.polylog import li, li_integral, li_series, phi, phi1, phi2
from oracles import bernoulli_recurrence, li_oracle, li_series_complex, phi_oracle

# 50-digit reference values from an independent multiprecision evaluation
# of the same formulas.
PHI1_01_01_PI2 = 9.10778089194327433237002248734
PHI1_01_02_PI2 = 7.54222913781126791140435441652
# Phi^(2)(0.1, 0.2) from the Usyukina-Davydychev integral in 40-digit
# arithmetic; the closed form gives the same digits.
PHI2_01_02 = 34.3280015745150154062849285561
LI3_07 = 0.780063934257661560883569099859
LI4_M25 = -2.22326700612351772521922566801
LI2_C = complex(0.662064137927373114554498, 0.4389588972281200405744341)


class TestLi:
    def test_zero(self):
        for N in (1, 2, 3, 4):
            assert li(N, 0) == 0

    def test_li1_closed_form(self):
        z = 0.3 + 0.2j
        assert li(1, z) == pytest.approx(-np.log(1 - z), rel=1e-14)

    def test_dilog_at_minus_one(self):
        assert li(2, -1).real == pytest.approx(-math.pi**2 / 12, rel=1e-12)
        assert abs(li(2, -1).imag) < 1e-12

    def test_reference_values(self):
        assert li(3, 0.7).real == pytest.approx(LI3_07, rel=1e-12)
        assert li(4, -2.5).real == pytest.approx(LI4_M25, rel=1e-12)
        assert li(2, 0.6 + 0.3j) == pytest.approx(LI2_C, rel=1e-10)

    def test_series_vs_integral_overlap(self):
        # Dual-path agreement on the annulus where both converge well.
        for N in (2, 3, 4):
            for r in (0.2, 0.5, 0.7, 0.9):
                for ang in (0.0, 1.0, 2.5, np.pi):
                    z = r * np.exp(1j * ang)
                    if z.real >= 1.0 and abs(z.imag) < 1e-14:
                        continue
                    a = li_series(N, z)
                    b = li_integral(N, z)
                    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_derivative_ladder(self):
        # z d/dz Li_N = Li_{N-1} by central finite differences.
        rng = np.random.default_rng(12)
        h = 1e-6
        for N in (2, 3, 4):
            for _ in range(20):
                z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                if abs(z) < 0.1:
                    continue
                d = (li(N, z + h) - li(N, z - h)) / (2 * h)
                want = li(N - 1, z) / z
                assert abs(d - want) <= 1e-6 * max(1.0, abs(want))

    def test_branch_cut_rejected(self):
        with pytest.raises(ValueError):
            li(2, 1.5)
        with pytest.raises(ValueError):
            li(3, 1.0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            li(0, 0.5)

    def test_bernoulli_numbers_match_recurrence(self):
        # The tables take B_0..B_m from the tangent numbers; the defining recurrence gives the same Fractions.
        want = bernoulli_recurrence(200)
        for m in range(201):
            assert polylog._bernoulli(m) == want[: m + 1], m

    @pytest.mark.parametrize("fn", [li, li_series, li_integral], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(1, math.inf), complex(0.2, math.nan)],
                             ids=repr)
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_non_finite_refused(self, fn, z, N):
        # Li_2(nan) used to recurse through the inversion until RecursionError, li_series said
        # "did not converge", and li and li_integral returned nan for some of these.
        with pytest.raises(ValueError, match=re.escape(repr(z))):
            fn(N, z)


# Li_N test grid: the annulus 1/2 < |z| < 1, the unit circle away from
# z = 1, the negative real axis beyond -1 (where wbar = 1 - 1/zbar lands at
# small x), and complex |z| > 1 on both sides of the cut.
ANNULUS = [cmath.rect(r, a) for r in (0.55, 0.75, 0.95) for a in (0.0, 0.8, 2.0, -2.6, math.pi)]
UNIT_CIRCLE = [cmath.exp(1j * a) for a in (0.3, -0.3, 1.0, 2.0, -2.5, math.pi)]
NEGATIVE_AXIS = [-1.2, -2.4, -7.0, -100.0, -1e4]
OUTSIDE = [complex(re, s * im) for re, im in ((1.5, 0.8), (3.0, 2.0), (-2.0, 0.5), (0.3, 1.7), (20.0, 5.0))
           for s in (1, -1)]
LI_GRID = ANNULUS + UNIT_CIRCLE + NEGATIVE_AXIS + OUTSIDE

# Phi test points in the principal region x + y < 1, lambda^2 > 0, including
# (0.7, 0.0025) with wbar near -2.4, and both orders of every off-diagonal pair.
PHI_POINTS = [(0.1, 0.2), (0.2, 0.1), (0.7, 0.0025), (0.0025, 0.7), (0.01, 0.3), (0.05, 0.05), (0.2, 0.3)]

# Phi test points outside that region, x >= y (where the integral oracle holds): a grid over
# lambda^2 < 0 and over x + y > 1 with lambda^2 > 0, x up to 1000, and the points first measured
# there.  `phi_oracle`, split near t = 1 for x > 1, is within 9e-16 of the integral in mpmath at
# x = 30 .. 1000; at x = 100 .. 1000 w = 1 - 1/z lies within 0.1 of 1.
NEW_DOMAIN = [(x, q * x) for x in (0.3, 0.6, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
              for q in (0.01, 0.05, 0.3, 0.7, 1.0) if (1 - x - q * x) ** 2 < 4 * q * x * x or x + q * x > 1]
NEW_DOMAIN += [(0.26, 0.25), (1.2, 0.05), (100.0, 80.0)]


def _li_arguments(monkeypatch, points) -> list[tuple[int, complex]]:
    """(N, z) of every Li_N that phi(L, x, y) hands on, L = 1..6, over the points: complex z to
    `li`, real z (where lambda^2 >= 0) to the float path `_li_real`."""
    seen = []

    def recording(f):
        def call(N, z):
            seen.append((N, z))
            return f(N, z)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(polylog, "li", recording(polylog.li))
        patch.setattr(polylog, "_li_real", recording(polylog._li_real))
        for L in range(1, 7):
            for x, y in points:
                phi(L, x, y)
    return seen


class TestLiOracle:
    @pytest.mark.parametrize("N", range(2, 9))
    def test_matches_integral(self, N):
        want = li_oracle(N, LI_GRID)
        for z, w in zip(LI_GRID, want):
            assert abs(li(N, z) - w) <= 1e-12 * abs(w), z

    def test_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for N in (2, 3, 4, 7, 12):
            for z in LI_GRID[::3]:
                want = complex(mpmath.polylog(N, z))
                assert abs(li(N, z) - want) <= 1e-13 * abs(want), (N, z)

    def test_li1_mpmath(self):
        # Li_1(z) = -ln(1 - z): rounding 1 - z drops the digits of a small |z| (li(1, 1e-20) once
        # returned -0, and li(1, 1e-20 + 1e-20j) was 0.71 off), so li takes log1p there and
        # cmath.log(1 - z) near z = 1, where log1p's argument rounds to -1.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(17)
        points = [1e-20, 1e-9, -1e-9, 1e-20 + 1e-20j, 1e-9 + 1e-12j, 1e-12j, 1 + 1e-10j, 1 - 1e-8 + 1e-8j, -2.5]
        points += [complex(rng.uniform(-r, r), rng.uniform(-r, r)) for r in (0.5, 3.0) for _ in range(300)]
        with mpmath.workdps(40):
            for z in points:
                want = -mpmath.log1p(-mpmath.mpmathify(z))
                assert abs(li(1, z) - want) <= 1e-15 * abs(want), z

    def test_negative_axis_mpmath(self):
        # Where the ln z expansion once ran at |ln z| near pi and met the inversion (up to 8.3e-15,
        # at (4, -0.582)): the float path takes the duplication relation on [-1, -1/2) and the
        # inversion below -1.  Worst measured: 6.8e-16.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for N in range(2, 7):
                for x in [-1.1 + 0.005 * i for i in range(121)] + [-1.0]:
                    want = mpmath.polylog(N, x)
                    got = li(N, x)
                    assert got.imag == 0 and abs(got.real - want) <= 1.5e-15 * abs(want), (N, x)


def _bits(z: complex) -> tuple[str, str]:
    """Both parts of z exactly, the sign of a zero included."""
    return z.real.hex(), z.imag.hex()


# li_series arguments: the real axis (float, complex with +-0 imaginary
# part), signed zeros, subnormals, and complex points; |z| up to 0.99,
# beyond the 64 powers a call from `li` reaches.
SERIES_GRID = (
    [s * r for r in (0.0, 5e-324, 1e-310, 1e-200, 1e-8, 0.1, 0.3, 0.5, 0.9, 0.99) for s in (1.0, -1.0)]
    + [complex(x, s * 0.0) for x in (0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 0.95) for s in (1.0, -1.0)]
    + [complex(s * 0.0, y) for y in (0.3, -0.3, 1e-300) for s in (1.0, -1.0)]
    + [cmath.rect(r, a) for r in (0.05, 0.3, 0.5, 0.9) for a in (0.4, 1.7, 3.0, -0.9, -2.8)]
)


class TestLiSeries:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 12, 40])
    def test_bits_match_complex_loop(self, N):
        # On the real axis the float Horner loop keeps the bits of the real part of the complex one.
        for z in SERIES_GRID:
            got = li_series(N, z)
            assert isinstance(got, complex)
            if complex(z).imag == 0:
                x = complex(z).real
                assert _bits(got) == _bits(complex(polylog._series(N, complex(x), abs(x)).real)), (N, z)

    def test_ladder_arguments_bits(self, monkeypatch):
        # The arguments phi hands on, w = 1 - 1/z and wbar = 1 - 1/zbar: real where lambda^2 >= 0,
        # complex conjugates where it is negative.  The real ones inside the series disc keep the
        # bits of the complex Horner loop's real part.
        seen = _li_arguments(monkeypatch, PHI_POINTS + NEW_DOMAIN)
        assert any(isinstance(z, float) for _, z in seen) and any(isinstance(z, complex) for _, z in seen)
        for N, z in seen:
            if isinstance(z, float) and N >= 2 and abs(z) <= 0.5:  # Li_1 is a closed form
                assert _bits(li(N, z)) == _bits(complex(polylog._series(N, complex(z), abs(z)).real)), (N, z)

    def test_mpmath(self):
        # Horner's rule over a term count fixed from |z|: within 2.8e-16 measured, where the
        # term-by-term loop of `li_series_complex` reaches 2.1e-15.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for N in (1, 2, 3, 4, 7, 12, 40):
                for z in SERIES_GRID:
                    if abs(z) < 0.95:  # mpmath's Li_1 is -ln(1 - z), which loses a subnormal z
                        want = complex(-mpmath.log1p(-z) if N == 1 else mpmath.polylog(N, z))
                        assert abs(li_series(N, z) - want) <= 5e-16 * abs(want), (N, z)

    def test_huge_orders(self):
        # The table reaches 3**700, which overflows a float; the series ends at j = 2.
        assert _bits(li_series(700, 0.5)) == _bits(li_series_complex(700, 0.5))
        # 2**2000 overflows too (the complex loop raises OverflowError): its term is below every tolerance.
        assert li_series(2000, 0.3) == 0.3 + 0.0j

    def test_not_converging_raises(self):
        with pytest.raises(RuntimeError):
            li_series(2, 0.999)


def _w_form(mpmath, L: int, x: float, y: float) -> float:
    """Phi^(L)(x, y) by the closed form of `polylog` in mpmath, 40 digits beyond those that the
    difference over z - zbar cancels, and its limit Li_{2L-f-1}(w)/(x w) where lambda^2 = 0 exactly."""
    x, y = max(x, y), min(x, y)
    with mpmath.workdps(800):
        lam2 = (1 - mpmath.mpf(x) - y) ** 2 - 4 * mpmath.mpf(x) * y
    with mpmath.workdps(40 + (int(-mpmath.log10(abs(lam2))) if lam2 else 0) + int(abs(math.log10(x)))):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        b = 1 + x - y
        lam = mpmath.sqrt(b * b - 4 * x)
        z, zb = (b + lam) / 2, (b - lam) / 2
        w, wb = 1 - 1 / z, 1 - 1 / zb
        lyx = mpmath.log(y / x)
        total = 0
        for f in range(L + 1):
            n = 2 * L - f
            c = (-1) ** f * mpmath.factorial(n) / (mpmath.factorial(L) * mpmath.factorial(f) * mpmath.factorial(L - f))
            bracket = (mpmath.polylog(n, w) - mpmath.polylog(n, wb)) / (z - zb) if lam2 else mpmath.polylog(n - 1, w) / (x * w)
            total += c * lyx**f * bracket
        return float(mpmath.re(total))


def _integral(mpmath, L: int, x: float, y: float) -> float:
    """Phi^(L)(x, y), x >= y, from the Usyukina-Davydychev integral in mpmath, at 50 digits beyond
    those that the break points t = 1 - 10^-j need; the integrand peaks within about 1/sqrt(x) of t = 1."""
    x, y = max(x, y), min(x, y)
    k = max(0, int(math.log10(x))) // 2 + 3
    with mpmath.workdps(50 + 2 * k):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        lyx = mpmath.log(y / x)

        def f(t):
            lt = mpmath.log(t)
            return lt ** (L - 1) * (lyx + lt) ** (L - 1) * (lyx + 2 * lt) / (y * t * t + (1 - x - y) * t + x)

        points = [0, min(y, mpmath.mpf(1) / 2), mpmath.mpf(1) / 2] + [1 - mpmath.mpf(10) ** -j for j in range(1, 2 * k)] + [1]
        return float(-mpmath.quad(f, sorted(set(points))) / (mpmath.factorial(L) * mpmath.factorial(L - 1)))

class TestPhi1:
    def test_regression(self):
        assert phi1(0.1, 0.1) == pytest.approx(PHI1_01_01_PI2, rel=1e-12)
        assert phi1(0.1, 0.2) == pytest.approx(PHI1_01_02_PI2, rel=1e-12)

    def test_constant_variant(self):
        assert phi1(0.1, 0.1, constant="pi-squared") == pytest.approx(PHI1_01_01_PI2, rel=1e-12)
        for constant in ("printed", "pi-cubed", ""):
            with pytest.raises(ValueError, match="pi\\^2/3"):
                phi1(0.1, 0.1, constant=constant)

    def test_pi_squared_is_the_closed_form(self):
        for x, y in PHI_POINTS:
            assert phi1(x, y) == phi1(x, y, constant="pi-squared") == phi(1, x, y)

    def test_symmetry_grid(self):
        xs = np.linspace(0.02, 0.2, 10)
        for x in xs:
            for y in xs:
                assert abs(phi1(x, y) - phi1(y, x)) <= 1e-10

    def test_finite_at_equal_arguments(self):
        assert math.isfinite(phi1(0.17, 0.17))

    def test_region_violation(self):
        # (0.6, 0.6) lies outside the former region x + y < 1, lambda^2 > 0; it now has a value.
        assert phi1(0.6, 0.6) == pytest.approx(phi_oracle(1, 0.6, 0.6)[0], rel=1e-12)


class TestPhi2:
    def test_regression(self):
        assert phi2(0.1, 0.2) == pytest.approx(PHI2_01_02, rel=1e-12)

    def test_symmetry_grid(self):
        xs = np.linspace(0.02, 0.2, 10)
        for x in xs:
            for y in xs:
                assert abs(phi2(x, y) - phi2(y, x)) <= 1e-12 * abs(phi2(x, y))

    def test_is_phi_at_two_loops(self):
        for x, y in PHI_POINTS:
            assert phi2(x, y) == phi(2, x, y)

    def test_finite_at_equal_arguments(self):
        assert math.isfinite(phi2(0.05, 0.05))

    def test_li_arguments_off_cut(self, monkeypatch):
        # w and wbar never lie on the cut [1, oo): where they are real, 1 - w = 1/z > 0.  Near w = 1
        # (z huge) phi carries 1 - w itself and hands li nothing; li would refuse 1.0.
        points = PHI_POINTS + NEW_DOMAIN + [(1e30, 0.5), (1e120, 1e-3), (1e200, 1e200), (4.49e307, 1.0), (1.0, 1e-300)]
        seen = _li_arguments(monkeypatch, points)
        assert seen
        assert not [(N, z) for N, z in seen if z.imag == 0 and z.real >= 1.0]


class TestPhi:
    @given(st.integers(1, 6), *[st.floats(min_value=0, exclude_min=True, allow_infinity=False)] * 2)
    @settings(max_examples=300, deadline=None)
    def test_finite_or_refused(self, L, x, y):
        # Outside the principal region phi raises ValueError; it never overflows or divides by zero.
        try:
            value = phi(L, x, y)
        except ValueError:
            return
        assert math.isfinite(value)

    @pytest.mark.parametrize("L", range(1, 7))
    def test_matches_integral(self, L):
        want = phi_oracle(L, [p[0] for p in PHI_POINTS], [p[1] for p in PHI_POINTS])
        for (x, y), w in zip(PHI_POINTS, want):
            assert abs(phi(L, x, y) - w) <= 1e-12 * abs(w), (x, y)

    def test_symmetry(self):
        # The arguments are ordered x >= y before the closed form, so the values are equal bit for bit.
        for L in range(1, 7):
            for x, y in PHI_POINTS:
                assert phi(L, x, y) == phi(L, y, x)

    def test_mpmath_integral(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for L, (x, y) in ((3, (0.1, 0.2)), (5, (0.7, 0.0025))):
                lyx = mpmath.log(mpmath.mpf(y) / x)

                def f(t):
                    lt = mpmath.log(t)
                    return lt ** (L - 1) * (lyx + lt) ** (L - 1) * (lyx + 2 * lt) / (y * t * t + (1 - x - y) * t + x)

                want = float(-mpmath.quad(f, [0, min(x, y), 0.1, 1]) / (math.factorial(L) * math.factorial(L - 1)))
                assert phi(L, x, y) == pytest.approx(want, rel=1e-13)

    def test_mpmath_closed_form(self):
        # The same closed form at 40 digits, over x = 1e-4 .. 0.2 at y = 0.3 (the region
        # ends near x = 0.2046) and at x = 1e-100 and 1e-300.  The worst relative error
        # measured is 8.7e-15.
        mpmath = pytest.importorskip("mpmath")

        def closed(L, x, y):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            lam = mpmath.sqrt((1 - x - y) ** 2 - 4 * x * y)
            rho = 2 / (1 - x - y + lam)
            lyx = mpmath.log(y / x)
            total = sum((-1) ** j * mpmath.factorial(j) / (mpmath.factorial(j - L) * mpmath.factorial(2 * L - j))
                        * lyx ** (2 * L - j) * mpmath.re(mpmath.polylog(j, -1 / (rho * x)) - mpmath.polylog(j, -rho * y))
                        for j in range(L, 2 * L + 1))
            return float(-total / (mpmath.factorial(L) * lam))

        with mpmath.workdps(40):
            for L in range(1, 7):
                for x in [*np.geomspace(1e-4, 0.2, 12), 1e-100, 1e-300]:
                    assert phi(L, float(x), 0.3) == pytest.approx(closed(L, x, 0.3), rel=1e-13), (L, x)

    @pytest.mark.parametrize("L", range(1, 7))
    def test_new_domain_matches_integral(self, L):
        # Outside the former region x + y < 1, lambda^2 > 0, which phi refused.
        want = phi_oracle(L, [p[0] for p in NEW_DOMAIN], [p[1] for p in NEW_DOMAIN])
        for (x, y), w in zip(NEW_DOMAIN, want):
            assert abs(phi(L, x, y) - w) <= 1e-12 * abs(w), (x, y)
            assert phi(L, x, y) == phi(L, y, x)

    def test_mpmath_integral_outside_the_former_region(self):
        # lambda^2 < 0 at the first five points, x + y > 1 with lambda^2 > 0 at the last two;
        # the worst relative error measured is 4.9e-16.
        mpmath = pytest.importorskip("mpmath")
        for x, y in ((0.5, 0.5), (0.4, 0.3), (1, 1), (2, 1.5), (0.9, 0.2), (4, 0.01), (9, 1)):
            for L in (1, 2, 4, 6):
                assert phi(L, x, y) == pytest.approx(_integral(mpmath, L, x, y), rel=1e-13), (L, x, y)

    def test_huge_arguments_match_integral(self):
        # w = 1 - 1/z rounds to 1 here (at (1e120, 1e-3)) or lies within 1e-100 of it: phi carries
        # 1 - w = 1/z itself.  Measured: 0 and 4.6e-16 against the integral.
        mpmath = pytest.importorskip("mpmath")
        for L, x, y in ((2, 1e200, 1e200), (3, 1e120, 1e-3)):
            assert phi(L, x, y) == pytest.approx(_integral(mpmath, L, x, y), rel=1e-14), (L, x, y)

    def test_lambda_zero_limit(self):
        # On the curves |sqrt(x) -+ sqrt(y)| = 1, where z = zbar, and at a relative 1e-20 (one
        # rounding) and 1e-6 from them; (1, 1e-300) has w = 0 in floats.  Worst measured: 2.0e-15.
        mpmath = pytest.importorskip("mpmath")
        points = [(4.0, 1.0), (0.25, 0.25), (1.0, 1e-300)]
        points += [(x, (math.sqrt(x) - 1) ** 2 * (1 + rel)) for x in (2.0, 4.0, 50.0) for rel in (1e-20, 1e-6, -1e-6)]
        points += [(x, (1 - math.sqrt(x)) ** 2 * (1 + rel)) for x in (0.3, 0.7) for rel in (1e-20, 1e-6, -1e-6)]
        for x, y in points:
            for L in range(1, 7):
                assert phi(L, x, y) == pytest.approx(_w_form(mpmath, L, x, y), rel=1e-14), (L, x, y)

    def test_near_roots_threshold(self, monkeypatch):
        # The switch between the plain difference over z - zbar and the Gauss mean of its derivative
        # sits where their errors cross: at r = |z - zbar|/(z + zbar) = _NEAR_ROOTS / 3 the plain
        # difference alone is 9.5e-14 off and at 3 _NEAR_ROOTS the Gauss rule alone 1.5e-11, while phi
        # stays within 2.0e-14 on both sides of the switch (real and complex lambda, x from 0.09 to 1e4).
        mpmath = pytest.importorskip("mpmath")
        r0 = polylog._NEAR_ROOTS

        def worst(ratio, threshold=r0):
            monkeypatch.setattr(polylog, "_NEAR_ROOTS", threshold)
            err = 0.0
            for x in (0.09, 0.25, 0.6, 4.0, 100.0, 1e4):
                for sign in (1, -1):  # lambda^2 = sign (ratio b)^2, b = 1 + x - y
                    y = 1 + x - 2 * math.sqrt(x / (1 - sign * ratio**2))
                    for L in (1, 2, 6):
                        want = _w_form(mpmath, L, x, y)
                        err = max(err, abs(phi(L, x, y) - want) / abs(want))
            return err

        for ratio in (r0 / 3, 0.9 * r0, 1.1 * r0, 3 * r0):
            assert worst(ratio) <= 3e-14, ratio
        assert worst(r0 / 3, threshold=0.0) > 3e-14
        assert worst(3 * r0, threshold=math.inf) > 3e-14

    def test_bad_order(self):
        with pytest.raises(ValueError):
            phi(0, 0.1, 0.2)

    @pytest.mark.parametrize("x", [1e-320, 5e-324, 4e-309])
    def test_subnormal_x_refused(self, x):
        # With y subnormal too, 1 - wbar = z/x overflows (z is near 1): the
        # closed form would give nan at (x, y) and at (y, x).
        for L in (1, 2, 6):
            with pytest.raises(ValueError, match=re.escape(f"(x, y) = ({x}, {x})")):
                phi(L, x, x)
        with pytest.raises(ValueError, match="not finite"):
            phi1(x, x)

    @pytest.mark.parametrize("x", [1e-320, 5e-324, 4e-309])
    def test_subnormal_x_takes_swapped_value(self, x):
        # phi orders its arguments x >= y, so z/x is taken at x = 0.2 and stays finite.
        for L in (1, 2, 6):
            assert phi(L, x, 0.2) == phi(L, 0.2, x)
            assert math.isfinite(phi(L, x, 0.2))
        assert phi1(x, 0.2) == phi1(0.2, x)
        assert phi(1, 1e-320, 0.2) == 1485.0341070052043  # 1485.0341070052043959 at 60 digits

    def test_smallest_finite_argument_is_finite(self):
        for L in (1, 2, 6):
            assert math.isfinite(phi(L, 5e-309, 0.2))
            assert math.isfinite(phi(L, 0.2, 1e-320))
