"""Tests for the polylogarithms and the ladder functions."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from boxmagic.polylog import PHI1_CONSTANTS, lambda_rho, li, li_integral, li_series, phi, phi1, phi2
from oracles import li_oracle, phi_oracle

# 50-digit reference values from an independent multiprecision evaluation
# of the same formulas.
PHI1_01_01_PRINTED = 18.2035564176795057062651089875
PHI1_01_01_PI2 = 9.10778089194327433237002248734
PHI1_01_02_PRINTED = 18.5455412166476515252318489209
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


# Li_N test grid: the annulus 1/2 < |z| < 1, the unit circle away from
# z = 1, the negative real axis beyond -1 (where -1/(rho x) lands), and
# complex |z| > 1 on both sides of the cut.
ANNULUS = [cmath.rect(r, a) for r in (0.55, 0.75, 0.95) for a in (0.0, 0.8, 2.0, -2.6, math.pi)]
UNIT_CIRCLE = [cmath.exp(1j * a) for a in (0.3, -0.3, 1.0, 2.0, -2.5, math.pi)]
NEGATIVE_AXIS = [-1.2, -2.4, -7.0, -100.0, -1e4]
OUTSIDE = [complex(re, s * im) for re, im in ((1.5, 0.8), (3.0, 2.0), (-2.0, 0.5), (0.3, 1.7), (20.0, 5.0))
           for s in (1, -1)]
LI_GRID = ANNULUS + UNIT_CIRCLE + NEGATIVE_AXIS + OUTSIDE

# Phi test points in the principal region, including (0.7, 0.0025) with
# rho x near 2.4 and both orders of every off-diagonal pair.
PHI_POINTS = [(0.1, 0.2), (0.2, 0.1), (0.7, 0.0025), (0.0025, 0.7), (0.01, 0.3), (0.05, 0.05), (0.2, 0.3)]


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


class TestLambdaRho:
    def test_value(self):
        lam, _ = lambda_rho(0.1, 0.1)
        assert lam == pytest.approx(math.sqrt(0.6), rel=1e-15)

    def test_symmetry(self):
        assert lambda_rho(0.1, 0.3) == pytest.approx(lambda_rho(0.3, 0.1))

    def test_defining_relation(self):
        x, y = 0.15, 0.22
        lam, rho = lambda_rho(x, y)
        assert rho * (1 - x - y + lam) == pytest.approx(2.0, rel=1e-14)

    def test_region_violation(self):
        with pytest.raises(ValueError):
            lambda_rho(0.5, 0.5)
        with pytest.raises(ValueError):
            lambda_rho(-0.1, 0.2)

    def test_non_finite_rejected(self):
        for x, y in ((0.1, math.nan), (math.nan, 0.1), (math.inf, 0.1), (0.1, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                lambda_rho(x, y)
            with pytest.raises(ValueError, match="finite"):
                phi2(x, y)


class TestPhi1:
    def test_regression_printed(self):
        assert phi1(0.1, 0.1) == pytest.approx(PHI1_01_01_PRINTED, rel=1e-12)
        assert phi1(0.1, 0.2) == pytest.approx(PHI1_01_02_PRINTED, rel=1e-12)

    def test_constant_variant(self):
        assert phi1(0.1, 0.1, constant="pi-squared") == pytest.approx(PHI1_01_01_PI2, rel=1e-12)

    def test_pi_squared_is_the_closed_form(self):
        for x, y in PHI_POINTS:
            assert phi1(x, y, constant="pi-squared") == phi(1, x, y)

    def test_printed_offset(self):
        for x, y in PHI_POINTS:
            lam, _ = lambda_rho(x, y)
            shift = (PHI1_CONSTANTS["printed"] - PHI1_CONSTANTS["pi-squared"]) / lam
            assert phi1(x, y) == pytest.approx(phi(1, x, y) + shift, rel=1e-15)

    def test_symmetry_grid(self):
        xs = np.linspace(0.02, 0.2, 10)
        for x in xs:
            for y in xs:
                assert abs(phi1(x, y) - phi1(y, x)) <= 1e-10

    def test_finite_at_equal_arguments(self):
        assert math.isfinite(phi1(0.17, 0.17))

    def test_region_violation(self):
        with pytest.raises(ValueError):
            phi1(0.6, 0.6)


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

    def test_li_arguments_off_cut(self):
        # In the admissible region rho > 0, so -rho x is strictly negative.
        from boxmagic.polylog import lambda_rho as lr

        for (x, y) in ((0.05, 0.1), (0.2, 0.2), (0.01, 0.3)):
            _, rho = lr(x, y)
            assert -rho * x < 0 and -rho * y < 0


class TestPhi:
    @pytest.mark.parametrize("L", range(1, 7))
    def test_matches_integral(self, L):
        want = phi_oracle(L, [p[0] for p in PHI_POINTS], [p[1] for p in PHI_POINTS])
        for (x, y), w in zip(PHI_POINTS, want):
            assert abs(phi(L, x, y) - w) <= 1e-12 * abs(w), (x, y)

    def test_symmetry(self):
        for L in range(1, 7):
            for x, y in PHI_POINTS:
                assert phi(L, x, y) == pytest.approx(phi(L, y, x), rel=1e-12)

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

    def test_bad_order(self):
        with pytest.raises(ValueError):
            phi(0, 0.1, 0.2)
