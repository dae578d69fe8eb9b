"""Tests for the cycle quadrature and the verification checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from boxmagic import quadrature
from boxmagic.hc import ComplexQuaternion, chart_s3, chart_u2
from boxmagic.quadrature import (
    DomainError,
    QuadratureSpec,
    _grid,
    _max_workers,
    _orthogonality_grams,
    collapse_z1,
    conformal_check,
    integrate,
    lemma_zp_check,
    lemma_zp_eval,
    normalization_check,
    one_loop_eval,
    orthogonality_check,
    poisson_check,
    poisson_eval,
    run_suite,
    zp_closed_form,
)
from boxmagic.tbasis import BasisExpansion, TIndex
from oracles import meshgrid_grid, orthogonality_pairs

W_IN = ComplexQuaternion(0.31 + 0.12j, -0.08 + 0.05j, 0.04 - 0.11j, 0.27 - 0.06j)
WP_IN = ComplexQuaternion(-0.22 + 0.03j, 0.10 + 0.02j, -0.03 + 0.07j, -0.18 - 0.04j)

# Regression constant for the one-loop integral at a fixed point set,
# frozen from refined-grid convergence (n = 28 agrees to ~1e-13).
ONE_LOOP_SPOT = complex(0.047841725128043, 0.0037815855406252)
ONE_LOOP_PTS = (
    ComplexQuaternion(2.0 + 0.3j, 0.1, -0.2j, 1.9 - 0.1j),
    ComplexQuaternion(-2.5, 0.2j, 0.1, -2.2 + 0.4j),
    ComplexQuaternion(0.30, 0.10j, -0.05, 0.25),
    ComplexQuaternion(-0.20 + 0.05j, 0.00, 0.10j, -0.30),
)


class TestSpecAndGrids:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec("u2", 1.0, 3)
        with pytest.raises(ValueError):
            QuadratureSpec("u2", -1.0, 8)
        with pytest.raises(ValueError):
            QuadratureSpec("cycle", 1.0, 8)
        with pytest.raises(ValueError):
            QuadratureSpec("u2", 1.0, 90)  # exceeds the node budget

    def test_grid_matches_scalar_charts(self):
        # Every grid node must agree with the chart evaluated at its own angles.
        n = 4
        x, wgl = np.polynomial.legendre.leggauss(n)
        thetas = 0.25 * math.pi * (x + 1.0)
        periodic = [2 * math.pi * j / n for j in range(n)]
        cases = (
            ("u2", (math.pi / n) * (2 * math.pi / n) ** 2,
             lambda R, a: chart_u2(R, math.pi * a[0] / n, periodic[a[1]], thetas[a[2]], periodic[a[3]])),
            ("s3", (2 * math.pi / n) ** 2,
             lambda R, a: chart_s3(R, periodic[a[0]], thetas[a[1]], periodic[a[2]])),
        )
        for chart, cell, at in cases:
            grid = _grid(chart, 0.8, n)
            for i, a in enumerate(np.ndindex(*(n,) * (4 if chart == "u2" else 3))):
                *z, density = at(0.8, a)
                weight = density * wgl[a[-2]] * 0.25 * math.pi * cell
                for got, want in zip(grid, (*z, weight)):
                    assert got[i] == pytest.approx(want, abs=1e-14)

    def test_s3_total_weight(self):
        for R in (0.7, 1.25):
            spec = QuadratureSpec("s3", R, 12)
            total = integrate(spec, lambda a, b, c, d: np.ones_like(a))
            assert abs(total - 2 * math.pi**2 * R**3) <= 1e-10

    def test_s3_odd_monomial_vanishes(self):
        spec = QuadratureSpec("s3", 1.0, 12)
        # z11 + z22 = 2 x0 is odd under the antipodal map.
        val = integrate(spec, lambda a, b, c, d: a + d)
        assert abs(val) < 1e-12

    def test_deterministic_repeat(self):
        spec = QuadratureSpec("u2", 1.0, 8)
        f = lambda a, b, c, d: 1.0 / (a * d - b * c)
        assert integrate(spec, f) == integrate(spec, f)

    def test_worker_count_invariance(self, monkeypatch):
        spec = QuadratureSpec("u2", 1.0, 8)
        f = lambda a, b, c, d: (a + d) / (a * d - b * c) ** 2
        base = integrate(spec, f)
        monkeypatch.setenv("BOXMAGIC_THREADS", "3")
        assert integrate(spec, f) == base

    @pytest.mark.parametrize("chart", ["u2", "s3"])
    @pytest.mark.parametrize("n", [4, 12, 20, 24, 32])
    @pytest.mark.parametrize("R", [0.8, 1.0, 1.25])
    def test_grid_bitwise_matches_meshgrid_build(self, chart, n, R):
        got = _grid(chart, R, n)
        want = meshgrid_grid(chart, R, n)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.float64), w.view(np.float64))

    def test_worker_cap(self, monkeypatch):
        # Only the count is computed; no thread is started.
        monkeypatch.setattr(quadrature.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("BOXMAGIC_THREADS", "1000000")
        assert _max_workers(10**6) == 4
        assert _max_workers(3) == 3
        monkeypatch.setenv("BOXMAGIC_THREADS", "2")
        assert _max_workers(10**6) == 2
        monkeypatch.setattr(quadrature.os, "cpu_count", lambda: None)
        assert _max_workers(10**6) == 1
        monkeypatch.setenv("BOXMAGIC_THREADS", "many")
        assert _max_workers(10**6) == 1

    def test_nonfinite_integrand_reported(self):
        spec = QuadratureSpec("s3", 1.0, 8)
        with pytest.raises(FloatingPointError, match="non-finite"):
            integrate(spec, lambda a, b, c, d: np.full_like(a, np.nan))


class TestNormalization:
    def test_both_radii(self):
        res = normalization_check(nodes=16)
        assert res.passed
        assert res.residual <= 1e-10

    def test_single_radius_value(self):
        spec = QuadratureSpec("u2", 1.1, 12)
        val = integrate(spec, lambda a, b, c, d: 1.0 / (a * d - b * c) ** 2)
        assert abs(val - (-2j * math.pi**3)) <= 1e-10


class TestPoisson:
    def test_constant_reproduces_one(self):
        assert poisson_eval(BasisExpansion.one(), W_IN, 1.0, 20) == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_reproduces_value(self):
        phi = BasisExpansion.monomial("z11", 2)
        got = poisson_eval(phi, W_IN, 1.0, 20)
        assert got == pytest.approx(phi(W_IN), rel=1e-8)

    def test_t1_at_origin(self):
        phi = BasisExpansion({TIndex(2, 0, 0, 0): 1}, "H+")
        got = poisson_eval(phi, ComplexQuaternion.zero(), 1.0, 16)
        assert got == pytest.approx(phi(ComplexQuaternion.zero()), abs=1e-10)

    def test_outside_point_refused(self):
        with pytest.raises(DomainError):
            poisson_eval(BasisExpansion.one(), ComplexQuaternion(2, 0, 0, 2), 1.0, 8)

    def test_check_passes(self):
        res = poisson_check(nodes=16)
        assert res.passed

    def test_grid_refinement_improves(self):
        phi = BasisExpansion({TIndex(2, 0, 0, 0): 1}, "H+")
        errs = []
        for n in (6, 12):
            got = poisson_eval(phi, W_IN, 1.0, n)
            errs.append(abs(got - phi(W_IN)))
        assert errs[1] <= errs[0] / 10 or errs[1] <= 1e-8


class TestCollapse:
    def test_powers_collapse_to_point_values(self):
        for k in range(4):
            phi = BasisExpansion.monomial("z11", k)
            got = collapse_z1(phi, W_IN, 1.0, 16)
            assert got == pytest.approx(phi(W_IN), rel=1e-8, abs=1e-10)

    def test_radius_independence(self):
        phi = BasisExpansion.monomial("z11", 2)
        a = collapse_z1(phi, W_IN, 0.8, 20)
        b = collapse_z1(phi, W_IN, 1.25, 20)
        assert abs(a - b) <= 1e-10


class TestLemmaZp:
    def test_degree_zero(self):
        got = lemma_zp_eval("z11", 0, W_IN, WP_IN, 1.0, 12)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_degree_one(self):
        got = lemma_zp_eval("z11", 1, W_IN, WP_IN, 1.0, 16)
        want = (W_IN.z11 + WP_IN.z11) / 2
        assert got == pytest.approx(want, rel=1e-8)

    def test_degree_three_other_entry(self):
        got = lemma_zp_eval("z12", 3, W_IN, WP_IN, 1.0, 16)
        assert got == pytest.approx(zp_closed_form("z12", 3, W_IN, WP_IN), rel=1e-7)

    def test_check_passes(self):
        assert lemma_zp_check(nodes=14).passed

    def test_domain_refused(self):
        with pytest.raises(DomainError):
            lemma_zp_eval("z11", 1, ComplexQuaternion(2, 0, 0, 2), WP_IN, 1.0, 8)

    def test_bad_entry_refused(self):
        with pytest.raises(ValueError, match="four entries"):
            lemma_zp_eval("z13", 1, W_IN, WP_IN, 1.0, 8)
        with pytest.raises(ValueError, match="four entries"):
            zp_closed_form("z13", 1, W_IN, WP_IN)


class TestOneLoop:
    def test_spot_regression(self):
        got = one_loop_eval(*ONE_LOOP_PTS, 1.0, 24)
        assert got == pytest.approx(ONE_LOOP_SPOT, rel=1e-9)

    def test_swap_symmetry(self):
        Z1, Z2, W1, W2 = ONE_LOOP_PTS
        a = one_loop_eval(Z1, Z2, W1, W2, 1.0, 12)
        b = one_loop_eval(Z2, Z1, W1, W2, 1.0, 12)
        assert a == pytest.approx(b, rel=1e-12)

    def test_wrong_cycle_refused(self):
        Z1, Z2, W1, W2 = ONE_LOOP_PTS
        with pytest.raises(DomainError):
            one_loop_eval(W1, Z2, Z1, W2, 1.0, 8)  # an inside point placed outside

    def test_conformal_covariance(self):
        res = conformal_check(nodes=16, samples=3)
        assert res.passed
        assert res.residual <= 1e-4


class TestOrthogonality:
    def test_check_passes(self):
        res = orthogonality_check(two_l_max=3, nodes_s3=16, nodes_u2=12)
        assert res.passed
        assert res.details["pairs_sphere"] == 30 * 30

    def test_gram_matches_per_pair_sums(self):
        (gs, want_s), (gu, want_u) = _orthogonality_grams(3, 0.9, 16, 12)
        sphere, cycle = orthogonality_pairs(3, 0.9, 16, 12)
        assert gs.shape == sphere.shape == (30, 30)
        assert gu.shape == cycle.shape == (60, 60)
        assert np.abs(gs - sphere).max() <= 1e-13
        assert np.abs(gu - cycle).max() <= 1e-13
        assert np.abs(sphere - np.diag(want_s)).max() <= 1e-6
        assert np.abs(cycle - np.diag(want_u)).max() <= 1e-6

    def test_scale_limit(self):
        with pytest.raises(ValueError):
            orthogonality_check(two_l_max=4)

    def test_pair_Zh_matches_cycle_quadrature_at_two_radii(self):
        # The exact pairing equals the cycle integral at any radius.
        from boxmagic.quadrature import _grid
        from boxmagic.tbasis import pair_Zh

        rng = np.random.default_rng(17)
        idxs = [TIndex(L, n, m, k)
                for L in (0, 1, 2, 3)
                for n in range(-L, L + 1, 2)
                for m in range(-L, L + 1, 2)
                for k in (-3, -2, -1, 0, 1)]
        pairs = [(idxs[rng.integers(len(idxs))], idxs[rng.integers(len(idxs))])
                 for _ in range(40)]
        for R in (0.8, 1.25):
            a, b, c, d, w = _grid("u2", R, 12)
            for i1, i2 in pairs:
                f1 = BasisExpansion({i1: 1})
                f2 = BasisExpansion({i2: 1})
                v1 = f1.eval_entries(a, b, c, d)
                v2 = f2.eval_entries(a, b, c, d)
                num = 1j / (2 * math.pi**3) * np.sum(w * v1 * v2)
                assert abs(num - complex(pair_Zh(f1, f2))) <= 1e-6


class TestSuiteRunner:
    def test_all_suites_pass_at_reduced_nodes(self):
        rep = run_suite("normalization", nodes=12)
        assert rep.passed
        payload = rep.payload()
        assert payload["schema"] == "boxmagic.verify-report/1"
        assert payload["checks"][0]["name"] == "normalization"

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")
