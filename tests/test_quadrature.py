"""Tests for the cycle quadrature and the verification checks."""

from __future__ import annotations

import inspect
import json
import math
import random
import re

import numpy as np
import pytest

from boxmagic import quadrature
from boxmagic.hc import ComplexQuaternion, GroupElement, chart_s3, domain_side
from boxmagic.quadrature import (
    DomainError,
    QuadratureSpec,
    _kernel_pass,
    _orthogonality_grams,
    _phases,
    conformal_check,
    integrate,
    lemma_zp_check,
    collapse_check,
    normalization_check,
    one_loop_eval,
    orthogonality_check,
    poisson_check,
    run_suite,
    zp_closed_form,
)
from boxmagic.tbasis import BasisExpansion, TIndex
from oracles import (chart_u2, conformal_draws, exact_H_pairing, kernel_integral, meshgrid_grid,
                     one_loop_closed_form, orthogonality_pairs, pair_Zh)

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


def s3_grid(R: float, n: int, rows: int = 1):
    """The S^3_R grid that a pass of `rows` rows reaches, (z11, z12, z21, z22, weights): its blocks concatenated."""
    return tuple(np.concatenate(x) for x in zip(*quadrature._blocks(R, n, rows)))


def u2_slices(R: float, n: int):
    """The u2 nodes and weights that a kernel pass reaches, one (n, n^3) row per phase:
    lam_k times the s3 grid, with the weight factor of power 4 of `_phases`."""
    *z, w = s3_grid(R, n)
    lam, fac = _phases("u2", R, n, [4])
    return [np.multiply.outer(lam, x) for x in z] + [np.multiply.outer(fac[:, 0], w)]


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
        # A pass holds n^3 nodes on either cycle: the budget admits n <= 64 on both.
        for chart in ("u2", "s3"):
            QuadratureSpec(chart, 1.0, 64)
            with pytest.raises(ValueError, match="budget"):
                QuadratureSpec(chart, 1.0, 65)

    def test_grid_matches_scalar_charts(self):
        # Every grid node must agree with the chart evaluated at its own angles;
        # on u2 the node lam_k q and its weight against the 4-angle chart.
        n = 4
        x, wgl = np.polynomial.legendre.leggauss(n)
        thetas = 0.25 * math.pi * (x + 1.0)
        periodic = [2 * math.pi * j / n for j in range(n)]
        cases = (
            ("u2", (math.pi / n) * (2 * math.pi / n) ** 2, [a.ravel() for a in u2_slices(0.8, n)],
             lambda R, a: chart_u2(R, math.pi * a[0] / n, periodic[a[1]], thetas[a[2]], periodic[a[3]])),
            ("s3", (2 * math.pi / n) ** 2, s3_grid(0.8, n),
             lambda R, a: chart_s3(R, periodic[a[0]], thetas[a[1]], periodic[a[2]])),
        )
        for chart, cell, grid, at in cases:
            for i, a in enumerate(np.ndindex(*(n,) * (4 if chart == "u2" else 3))):
                *z, density = at(0.8, a)
                weight = density * wgl[a[-2]] * 0.25 * math.pi * cell
                for got, want in zip(grid, (*z, weight)):
                    assert got[i] == pytest.approx(want, abs=1e-14)

    def test_s3_total_weight(self):
        for R in (0.7, 1.25):
            total = quadrature._gram(QuadratureSpec("s3", R, 12), [BasisExpansion.one()], [BasisExpansion.one()])[0, 0]
            assert abs(total - 2 * math.pi**2 * R**3) <= 1e-10

    def test_s3_odd_monomial_vanishes(self):
        # z11 + z22 = 2 x0 is odd under the antipodal map.
        odd = BasisExpansion({TIndex(1, -1, -1, 0): 1, TIndex(1, 1, 1, 0): 1})
        assert abs(quadrature._gram(QuadratureSpec("s3", 1.0, 12), [odd], [BasisExpansion.one()])[0, 0]) < 1e-12

    def test_deterministic_repeat(self):
        spec = QuadratureSpec("u2", 1.0, 8)
        rows = [(BasisExpansion.one(), (None,)), (BasisExpansion.monomial("z11", 2), (None, W_IN))]
        assert np.array_equal(integrate(spec, rows), integrate(spec, rows))

    @pytest.mark.parametrize("chart", ["u2", "s3"])
    @pytest.mark.parametrize("n", [4, 12, 20, 24, 32])
    @pytest.mark.parametrize("R", [0.8, 1.0, 1.25])
    def test_grid_bitwise_matches_meshgrid_build(self, monkeypatch, chart, n, R):
        # Both cycles build one s3 piece of n^3 nodes, block by block, bit for bit
        # the meshgrid build: in blocks of GRAM_BLOCK // max(rows, 32) nodes, 4096 for
        # a pass of up to 32 rows and 1092 for 120 rows, and 500 at a budget of 500 * 32
        # values, the last block mostly ragged; the u2 nodes lam_k q and
        # their weights are the meshgrid's 4-cycle to rounding, a few ulps (the phase
        # multiplies last, not first; 2.4 eps measured).
        for budget, rows, block in ((quadrature.GRAM_BLOCK, 30, 4096), (quadrature.GRAM_BLOCK, 120, 1092),
                                    (500 * 32, 1, 500)):
            monkeypatch.setattr(quadrature, "GRAM_BLOCK", budget)
            sizes = [blk[0].size for blk in quadrature._blocks(R, n, rows)]
            assert sizes[:-1] == [block] * (len(sizes) - 1) and 0 < sizes[-1] <= block
            for g, w in zip(s3_grid(R, n, rows), meshgrid_grid("s3", R, n)):
                assert g.shape == w.shape == (n**3,)
                assert np.array_equal(g.view(np.float64), w.view(np.float64))
        if chart == "u2":
            want = meshgrid_grid("u2", R, n)
            for g, w, scale in zip(u2_slices(R, n), want, [R] * 4 + [np.abs(want[4]).max()]):
                assert np.abs(g.ravel() - w).max() <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("n", [4, 16, 24, 32])
    @pytest.mark.parametrize("R", [1e-3, 0.8, 1.0, 1.25, 1e3])
    def test_every_node_has_norm_r_squared(self, n, R):
        # Both passes take N(q) = R^2 as one scalar for every node of S^3_R; the nodes
        # agree to rounding (2.9 eps R^2 measured).
        z11, z12, z21, z22, _ = s3_grid(R, n)
        assert np.abs(z11 * z22 - z12 * z21 - R**2).max() <= 4 * np.finfo(float).eps * R**2

    def test_norm_power_overflow_obeys_errstate(self):
        # N(q) = R^2 is a numpy scalar, so its powers under- and overflow as np.errstate says,
        # as the node arrays of N(q) did: 1/N(Z)^2 = 1e400 raises here, it does not turn inf.
        row = (BasisExpansion({TIndex(0, 0, 0, -2): 1}), ())
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="encountered"):
            integrate(QuadratureSpec("s3", 1e-100, 8), [row])

    def test_nonfinite_integrand_reported(self):
        # N(Z)^2 = R^4 underflows to 0 at this radius, so 1/N(Z)^2 is infinite at every node.
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            integrate(QuadratureSpec("s3", 1e-100, 8), [(BasisExpansion.one(), (None, None))])

    def test_nonfinite_value_names_row_and_node(self):
        # A pole next to the u2 node lam_2 q_5 (relative offset 1e-10): at this radius
        # that node's N(Z - P), about 1e-20 R^2, is below the rounding of its terms of
        # size R^2 and comes out as 0, so only that node's value is infinite.  The
        # message names the row and the node Z = lam_2 q_5, not the s3 node q_5.
        R, n, k, j = 1e-100, 4, 2, 5
        *q, _ = s3_grid(R, n)
        lam, _ = _phases("u2", R, n, ())
        P = ComplexQuaternion(*(lam[k] * z[j] * (1 + 1e-10) for z in q))
        one = BasisExpansion.one()
        rows = [(one, (ComplexQuaternion(2 * R, 0, 0, 2 * R),)), (one, (None,)), (one, (P,))]
        with (np.errstate(all="ignore"),
              pytest.raises(FloatingPointError, match=r"integrand 2 at node Z = \[\[") as err):
            integrate(QuadratureSpec("u2", R, n), rows)
        named = [complex(v) for v in re.findall(r"\(([^()]*)\)", str(err.value))]
        assert len(named) == 4
        assert max(abs(got - lam[k] * z[j]) for got, z in zip(named, q)) <= 1e-15 * R

    def test_nonfinite_value_named_in_a_later_block(self, monkeypatch):
        # The same pole next to lam_2 q_5, with blocks of 4 nodes: q_5 is the
        # second node of the second block, and the message still names lam_2 q_5.
        monkeypatch.setattr(quadrature, "GRAM_BLOCK", 4)
        R, n, k, j = 1e-100, 4, 2, 5
        *q, _ = s3_grid(R, n)
        lam, _ = _phases("u2", R, n, ())
        P = ComplexQuaternion(*(lam[k] * z[j] * (1 + 1e-10) for z in q))
        rows = [(BasisExpansion.one(), (None,)), (BasisExpansion.monomial("z11", 1), (P,))]
        with (np.errstate(all="ignore"),
              pytest.raises(FloatingPointError, match=r"integrand 1 at node Z = \[\[") as err):
            integrate(QuadratureSpec("u2", R, n), rows)
        named = [complex(v) for v in re.findall(r"\(([^()]*)\)", str(err.value))]
        assert max(abs(got - lam[k] * z[j]) for got, z in zip(named, q)) <= 1e-15 * R

    @pytest.mark.parametrize("chart", ["u2", "s3"])
    def test_kernel_blocks_add_up(self, monkeypatch, chart):
        # 12^3 = 1728 nodes in blocks of 500 (a pass of 5 rows counts as 32), the last one
        # ragged, against one block.
        spec = QuadratureSpec(chart, 1.0, 12)
        rows = [(BasisExpansion.monomial("z11", 2), (W_IN, WP_IN)), (BasisExpansion.one(), (None, W_IN)),
                (BasisExpansion({TIndex(2, 0, 0, 0): 1}).degt(), (WP_IN,))]
        whole = integrate(spec, rows)
        monkeypatch.setattr(quadrature, "GRAM_BLOCK", 500 * 32)
        assert np.abs(integrate(spec, rows) - whole).max() <= 1e-14 * np.abs(whole).max()

    def test_row_stack_sums_each_row(self):
        # 1/N(Z)^2 and N(Z)^2/N(Z) = N(Z): rows with different poles, one pass.
        spec = QuadratureSpec("u2", 1.0, 8)
        inv_sq = (BasisExpansion.one(), (None, None))
        got = integrate(spec, [inv_sq, (BasisExpansion({TIndex(0, 0, 0, 2): 1}), (None,))])
        assert got.shape == (2,)
        assert got[0] == integrate(spec, [inv_sq])[0]
        assert abs(got[0] - (-2j * math.pi**3)) <= 1e-10
        assert abs(got[1]) <= 1e-12

    @pytest.mark.parametrize("chart", ["u2", "s3"])
    @pytest.mark.parametrize("n", [8, 20])
    def test_row_value_does_not_depend_on_its_neighbours(self, chart, n):
        # Each row's phase sums are reduced on their own: a row keeps its bits alone,
        # next to a row with the same poles, and next to a row with other poles.
        spec = QuadratureSpec(chart, 1.0, n)
        row = (BasisExpansion.monomial("z11", 2), (W_IN, WP_IN))
        (alone,) = integrate(spec, [row])
        for other in ((BasisExpansion.monomial("z12", 1), (W_IN, WP_IN)), (BasisExpansion.one(), (None, W_IN))):
            assert integrate(spec, [other, row])[1] == alone
            assert integrate(spec, [row, other])[0] == alone

    def test_subnormal_density_refused(self):
        # R^3 below the smallest normal float: the weights would lose their digits
        # without any value leaving the float range, so the radius is refused.
        for R in (1e-103, 1e-107, 1e-110):
            with pytest.raises(OverflowError, match="a value of the s3 chart leaves the float range"):
                integrate(QuadratureSpec("s3", R, 8), [(BasisExpansion.one(), (None,))])


class TestDraws:
    # The checks' points are on their sides by construction, and no check tests them;
    # 10 000 draws each show it.
    def test_inside_draws_stay_within_half_the_radius(self):
        rng = random.Random(1)
        for R in (1e-3, 1.0, 1e5):
            ms = np.array([quadrature._random_inside(rng, R).as_matrix() for _ in range(10_000)])
            assert np.linalg.norm(ms, 2, axis=(1, 2)).max() <= 0.5 * R

    def test_covariance_points_are_on_their_sides(self):
        rng = random.Random(2)
        for _ in range(10_000):
            points = quadrature._covariance_points(rng, 1.0)
            assert [domain_side(P, 1.0) for P in points] == ["minus", "minus", "plus", "plus"]


class TestNormalization:
    def test_both_radii(self):
        res = normalization_check(nodes=16)
        assert res.passed
        assert res.residual <= 1e-10

    def test_single_radius_value(self):
        (val,) = integrate(QuadratureSpec("u2", 1.1, 12), [(BasisExpansion.one(), (None, None))])
        assert abs(val - (-2j * math.pi**3)) <= 1e-10


class TestPoisson:
    # The reproducing integral (1/2 pi^2) Int_{S^3_R} (degt phi)(Z)/N(Z-W) dS/R is phi(W)
    # for harmonic phi and W inside radius R.
    def test_constant_reproduces_one(self):
        got = _kernel_pass("s3", 1.0, 20, [(BasisExpansion.one().degt(), (W_IN,))])[0]
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_reproduces_value(self):
        phi = BasisExpansion.monomial("z11", 2)
        got = _kernel_pass("s3", 1.0, 20, [(phi.degt(), (W_IN,))])[0]
        assert got == pytest.approx(phi(W_IN), rel=1e-8)

    def test_t1_at_origin(self):
        phi = BasisExpansion({TIndex(2, 0, 0, 0): 1})
        origin = ComplexQuaternion(0, 0, 0, 0)
        got = _kernel_pass("s3", 1.0, 16, [(phi.degt(), (origin,))])[0]
        assert got == pytest.approx(phi(origin), abs=1e-10)

    def test_check_passes(self):
        res = poisson_check(nodes=16)
        assert res.passed

    def test_grid_refinement_improves(self):
        phi = BasisExpansion({TIndex(2, 0, 0, 0): 1})
        errs = []
        for n in (6, 12):
            got = _kernel_pass("s3", 1.0, n, [(phi.degt(), (W_IN,))])[0]
            errs.append(abs(got - phi(W_IN)))
        assert errs[1] <= errs[0] / 10 or errs[1] <= 1e-8


class TestCollapse:
    # The single-point collapse (i/2 pi^3) Int (degt phi)(Z) / (N(Z) N(Z-W)) dV is phi(W)
    # for harmonic polynomial phi and W inside radius R, at every R.
    def test_powers_collapse_to_point_values(self):
        for k in range(4):
            phi = BasisExpansion.monomial("z11", k)
            got = _kernel_pass("u2", 1.0, 16, [(phi.degt(), (None, W_IN))])[0]
            assert got == pytest.approx(phi(W_IN), rel=1e-8, abs=1e-10)

    def test_radius_independence(self):
        phi = BasisExpansion.monomial("z11", 2)
        a, b = (_kernel_pass("u2", R, 20, [(phi.degt(), (None, W_IN))])[0] for R in (0.8, 1.25))
        assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("radii", [(), ("--radius", "0.5")])
    def test_independence_needs_two_radii(self, radii, capsys):
        # The check integrates at 0.8 R and 1.25 R for every R, the default one and the one
        # --radius sets, so it reports the radius independence at each.
        from boxmagic import cli

        res = collapse_check(radius=float(radii[1]) if radii else 1.0, nodes=16)
        assert res.passed
        assert math.isfinite(res.details["r_independence_worst"])
        assert all(math.isfinite(c["radius_independence"]) for c in res.details["cases"].values())
        assert cli.main(["verify", "collapse", *radii, "--json"]) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert math.isfinite(check["details"]["r_independence_worst"])
        assert check["residual"] == max(max(c["residual"] for c in check["details"]["cases"].values()),
                                        100 * check["details"]["r_independence_worst"])

    def test_residual_does_not_depend_on_tol(self):
        # The radius independence counts 100 times at every tol: it passes below tol / 100.
        default = collapse_check()
        assert default.details["r_independence_tol"] == 1e-8
        assert default.residual == 100 * default.details["r_independence_worst"]
        for tol in (1e-3, 1e308):
            res = collapse_check(tol=tol)
            assert res.passed
            assert res.residual == default.residual
            assert res.details["r_independence_tol"] == tol / 100


def two_point_collapse(ij: str, k: int, nodes: int) -> complex:
    """(i/2 pi^3) Int (z_ij)^k dV / (N(Z-W) N(Z-W')) over U(2)_1 at W = W_IN, W' = WP_IN."""
    return _kernel_pass("u2", 1.0, nodes, [(BasisExpansion.monomial(ij, k), (W_IN, WP_IN))])[0]


class TestLemmaZp:
    def test_degree_zero(self):
        assert two_point_collapse("z11", 0, 12) == pytest.approx(1.0, abs=1e-10)

    def test_degree_one(self):
        want = (W_IN.z11 + WP_IN.z11) / 2
        assert two_point_collapse("z11", 1, 16) == pytest.approx(want, rel=1e-8)

    def test_degree_three_other_entry(self):
        got = two_point_collapse("z12", 3, 16)
        assert got == pytest.approx(zp_closed_form("z12", 3, W_IN, WP_IN), rel=1e-7)

    def test_check_passes(self):
        assert lemma_zp_check(nodes=14).passed

    def test_bad_entry_refused(self):
        with pytest.raises(ValueError, match="four entries"):
            zp_closed_form("z13", 1, W_IN, WP_IN)


def random_point(rng: np.random.Generator, lo: float, hi: float, euclidean: bool) -> ComplexQuaternion:
    """A point with singular values in [lo, hi]: a real quaternion of norm in [lo, hi]^2,
    or a generic complex matrix U diag(s1, s2) V*."""
    if euclidean:
        x = rng.normal(size=4)
        x *= rng.uniform(lo, hi) / np.linalg.norm(x)
        return ComplexQuaternion(complex(x[0], -x[3]), complex(-x[2], -x[1]), complex(x[2], -x[1]),
                                 complex(x[0], x[3]))
    u, _, vh = np.linalg.svd(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return ComplexQuaternion.from_matrix(u @ np.diag(rng.uniform(lo, hi, 2)) @ vh)


class TestOneLoop:
    @pytest.mark.parametrize("euclidean", [True, False], ids=["euclidean", "complex"])
    def test_matches_closed_form(self, euclidean):
        # Z1, Z2 with singular values in [1.8, 2.5], W1, W2 in [0.05, 0.5], radius 1:
        # at 32 nodes the kernel pass is F_1 to rounding (1.2e-15 measured, 3e-13 over other draws).
        rng = np.random.default_rng(11 if euclidean else 12)
        for _ in range(3):
            points = [random_point(rng, lo, hi, euclidean) for lo, hi in ((1.8, 2.5),) * 2 + ((0.05, 0.5),) * 2]
            want = one_loop_closed_form(*points)
            assert abs(one_loop_eval(*points, 1.0, 32) - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("draw", range(6))
    def test_converges_to_closed_form(self, draw):
        # Points drawn like the checks' points: the conformal check's own draws, and
        # singular values in [1.6, 2.5] outside and [0.05, 0.6] inside.
        if draw < 3:
            points = quadrature._covariance_points(random.Random(draw), 1.0)
        else:
            rng = np.random.default_rng(draw)
            points = [random_point(rng, lo, hi, False) for lo, hi in ((1.6, 2.5),) * 2 + ((0.05, 0.6),) * 2]
        want = one_loop_closed_form(*points)
        err10, err20 = (abs(one_loop_eval(*points, 1.0, n) - want) / abs(want) for n in (10, 20))
        assert err20 < err10

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
        res = conformal_check(nodes=16)
        assert res.passed
        assert res.residual <= 1e-4

    @pytest.mark.parametrize("r", [1e-3, 100.0])
    def test_conformal_refuses_a_map_that_moves_a_point_across(self, monkeypatch, capsys, r):
        # A map is refused, not redrawn: the dilation Z -> 1000 Z takes W1 out of the cycle.
        monkeypatch.setattr(quadrature, "random_near_identity",
                            lambda rng, scale, radius: GroupElement(np.diag([1e3, 1e3, 1, 1]).astype(complex)))
        message = re.escape(f"h(W1) must lie on the 'plus' side of radius {r}")
        with pytest.raises(DomainError, match=message):
            conformal_check(radius=r, nodes=8)
        from boxmagic import cli

        assert cli.main(["verify", "conformal", "--radius", str(r), "--nodes", "8"]) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_no_conformal_draw_is_refused(self, monkeypatch):
        # The check draws its five maps once and refuses one that moves a point across
        # the cycle; at its scale no seed here draws one, so every seed reaches the integral.
        monkeypatch.setattr(quadrature, "_kernel_pass", lambda chart, R, nodes, rows: [1.0] * len(rows))
        for r in (1e-3, 1.0, 20.0, 1e5):
            for seed in range(100):
                assert len(conformal_check(radius=r, seed=seed).details["samples"]) == 5

    @pytest.mark.parametrize("r", [1e-3, 0.1, 10.0, 100.0])
    def test_conformal_residual_is_radius_independent(self, r):
        # The maps are conjugated by the dilation Z -> rZ, so the check
        # sees the same configuration at every radius, up to rounding.
        res = conformal_check(radius=r, nodes=8)
        assert res.passed
        assert res.residual == pytest.approx(conformal_check(radius=1.0, nodes=8).residual, rel=1e-8)


class TestOrthogonality:
    def test_check_passes(self):
        res = orthogonality_check(nodes=12)
        assert res.passed
        assert res.details["pairs_sphere"] == 30 * 30

    # Odd and even node counts, the check's default 16, and 32^3 sphere nodes in
    # eight blocks: the cycle Gram is one S^3 pass times a phase sum, the oracle
    # sums the 4-D grid (at most 16^4 nodes, to keep its value rows small).
    @pytest.mark.parametrize("nodes_s3, nodes_u2", [(5, 5), (7, 7), (12, 12), (16, 12), (24, 16), (32, 12)])
    def test_gram_matches_per_pair_sums(self, nodes_s3, nodes_u2):
        (gs, want_s, _), _ = _orthogonality_grams(0.9, nodes_s3)
        _, (gu, want_u, _) = _orthogonality_grams(0.9, nodes_u2)
        sphere, cycle = orthogonality_pairs(3, 0.9, nodes_s3, nodes_u2)
        assert gs.shape == sphere.shape == (30, 30)
        assert gu.shape == cycle.shape == (60, 60)
        assert np.abs(gs - sphere).max() <= 1e-13
        assert np.abs(gu - cycle).max() <= 1e-13
        if nodes_s3 >= 12:  # fewer nodes do not resolve the degree-3 rows
            assert np.abs(sphere - np.diag(want_s)).max() <= 1e-6
            assert np.abs(cycle - np.diag(want_u)).max() <= 1e-6

    def test_gram_blocks_add_up(self, monkeypatch):
        # 12^3 = 1728 nodes in blocks of 500 (the 120 rows of the cycle pass) and 1000 (the
        # 60 of the sphere pass), the last one ragged, against one block.
        monkeypatch.setattr(quadrature, "GRAM_BLOCK", 12**3 * 120)
        whole = _orthogonality_grams(0.9, 12)
        monkeypatch.setattr(quadrature, "GRAM_BLOCK", 500 * 120)
        blocked = _orthogonality_grams(0.9, 12)
        for (g1, *_), (g2, *_) in zip(whole, blocked):
            assert np.abs(g1 - g2).max() <= 1e-15

    def test_mixed_degree_row_refused(self):
        # A row with terms of two degrees has no single phase factor, in either pass.
        mixed = BasisExpansion({TIndex(0, 0, 0, 0): 1, TIndex(1, 1, 1, 0): 1})
        for chart in ("u2", "s3"):
            spec = QuadratureSpec(chart, 0.9, 8)
            with pytest.raises(ValueError):
                quadrature._gram(spec, [mixed], [BasisExpansion.one()])
            with pytest.raises(ValueError):
                integrate(spec, [(BasisExpansion.one(), (None,)), (mixed, (W_IN,))])

    @pytest.mark.parametrize("R", [1e-3, 1e-2, 0.1, 10.0, 100.0, 1e3, 1e6])
    def test_passes_at_every_radius(self, R):
        # An entry of degree D in R is of size R^D times rounding; each error is taken
        # relative to that size, so the residual stays at rounding level at every radius.
        res = orthogonality_check(radius=R)
        assert res.passed
        assert res.residual <= 1e-13

    @pytest.mark.parametrize("R", [5e25, 1e27, 1e30])
    def test_underflowing_dual_refused(self, R):
        # The cycle duals carry 1/N(Z)^6, of size R^-12: subnormal above R = 4.3e25, and zero
        # above 1e27 without ever being non-finite; a zeroed dual would read as a failed pairing.
        with pytest.raises(FloatingPointError, match=re.escape(f"1/N(Z)^6 of a pairing row underflows at radius {R}")):
            orthogonality_check(radius=R)

    def test_default_radius_residual_is_an_absolute_error(self):
        # At the default radius the worst entries have size R^0 = 1.
        (gs, want_s, _), (gu, want_u, _) = _orthogonality_grams(0.9, 16)
        res = orthogonality_check()
        assert res.details["sphere_worst"] == np.abs(gs - np.diag(want_s)).max()
        assert res.details["cycle_worst"] == np.abs(gu - np.diag(want_u)).max()

    def test_targets_are_the_exact_pairings(self):
        # Over the check's own index lists and duals, the exact sphere pairing
        # and the exact 4-cycle pairing give its targets: the diagonals it
        # compares against, and zeros everywhere else.
        idxs = list(quadrature._basis_indices())
        (_, want_s, _), (_, want_u, _) = _orthogonality_grams(0.9, 4)
        sphere = [[exact_H_pairing(BasisExpansion({TIndex(*i, 0): 1}), quadrature._dual(*j, -1)) for j in idxs]
                  for i in idxs]
        assert all(v.im == 0 for row in sphere for v in row)
        assert np.array_equal(np.array([[float(v.re) for v in row] for row in sphere]), np.diag(want_s))
        rows = [(i, k) for i in idxs for k in (0, 1)]
        cycle = [[float(pair_Zh(BasisExpansion({TIndex(*i, k): 1}), quadrature._dual(*j, -kj - 2))) for j, kj in rows]
                 for i, k in rows]
        assert np.array_equal(np.array(cycle), np.diag(want_u))

    def test_pair_Zh_matches_cycle_quadrature_at_two_radii(self):
        # The exact pairing equals the cycle integral at any radius.
        rng = np.random.default_rng(17)
        idxs = [TIndex(L, n, m, k)
                for L in (0, 1, 2, 3)
                for n in range(-L, L + 1, 2)
                for m in range(-L, L + 1, 2)
                for k in (-3, -2, -1, 0, 1)]
        pairs = [(idxs[rng.integers(len(idxs))], idxs[rng.integers(len(idxs))])
                 for _ in range(40)]
        for R in (0.8, 1.25):
            for i1, i2 in pairs:
                f1 = BasisExpansion({i1: 1})
                f2 = BasisExpansion({i2: 1})
                num = 1j / (2 * math.pi**3) * quadrature._gram(QuadratureSpec("u2", R, 12), [f1], [f2])[0, 0]
                assert abs(num - complex(pair_Zh(f1, f2))) <= 1e-6


def record_kernel_passes(monkeypatch):
    """Spy on quadrature._kernel_pass: a list of (chart, R, nodes, rows, result) per call."""
    calls = []
    real = quadrature._kernel_pass

    def spy(chart, R, nodes, rows):
        out = real(chart, R, nodes, rows)
        calls.append((chart, R, nodes, rows, out))
        return out

    monkeypatch.setattr(quadrature, "_kernel_pass", spy)
    return calls


def record_grids(monkeypatch):
    """Spy on quadrature._blocks: a list of (R, n, node count) per S^3 grid built, counted as its blocks go by."""
    calls = []
    real = quadrature._blocks

    def spy(R, n, rows):
        calls.append((R, n, 0))
        for blk in real(R, n, rows):
            calls[-1] = (R, n, calls[-1][2] + blk[0].size)
            yield blk

    monkeypatch.setattr(quadrature, "_blocks", spy)
    return calls


class TestResidualsAgainstSize:
    # Each case's error is taken relative to its size R^d; taken relative to max(1, |phi(W)|),
    # a case of degree d >= 1 would pass any error at a small radius.
    @pytest.mark.parametrize("check, errors", [
        (poisson_check, lambda d: d.values()),
        (lemma_zp_check, lambda d: d.values()),
        (collapse_check, lambda d: [c["residual"] for c in d["cases"].values()]),
    ], ids=["poisson", "lemma-zp", "collapse"])
    def test_doubled_value_fails_in_every_case_at_small_radius(self, monkeypatch, check, errors):
        assert check(radius=1e-3).passed
        call, closed = BasisExpansion.__call__, quadrature.zp_closed_form
        monkeypatch.setattr(BasisExpansion, "__call__", lambda f, Z: 2 * call(f, Z))
        monkeypatch.setattr(quadrature, "zp_closed_form", lambda *args: 2 * closed(*args))
        res = check(radius=1e-3)
        assert min(errors(res.details)) > res.tolerance and not res.passed


class TestGridsBuilt:
    """Every check builds one S^3 grid of n^3 nodes per radius and pass, on either cycle."""

    @pytest.mark.parametrize("check, want", [
        (normalization_check, [(0.8, 32, 32**3), (1.25, 32, 32**3)]),
        (orthogonality_check, [(0.9, 16, 16**3), (0.9, 16, 16**3)]),
    ])
    def test_pole_free_checks_build_only_s3(self, monkeypatch, check, want):
        calls = record_grids(monkeypatch)
        assert check().passed
        assert calls == want

    @pytest.mark.parametrize("check, radii", [
        (lemma_zp_check, [1.0]),
        (collapse_check, [0.8, 1.25]),
        (conformal_check, [1.0]),
    ], ids=["lemma_zp", "collapse", "conformal"])
    def test_kernel_checks_build_only_s3(self, monkeypatch, check, radii):
        # The u2 kernel rows loop over the phases of one s3 grid, so a pass holds
        # n^3 nodes, never the n^4 of the 4-cycle nor one phi slice after another.
        calls = record_grids(monkeypatch)
        check(nodes=8)
        assert calls == [(R, 8, 8**3) for R in radii]


class TestBatchedChecksAgainstOracles:
    """Each check's one stacked pass against one meshgrid integral per integrand."""

    @pytest.mark.parametrize("check, rows_per_pass", [
        (poisson_check, [20]),
        (lemma_zp_check, [8]),
        (collapse_check, [5, 5]),
        (conformal_check, [6]),
    ])
    def test_rows_match_one_integral_per_call(self, monkeypatch, check, rows_per_pass):
        calls = record_kernel_passes(monkeypatch)
        assert check().passed
        assert [len(rows) for _, _, _, rows, _ in calls] == rows_per_pass
        for chart, R, nodes, rows, got in calls:
            grid = meshgrid_grid(chart, R, nodes)
            scale = 1j / (2 * math.pi**3) if chart == "u2" else 1 / (2 * math.pi**2 * R)
            for (f, poles), g in zip(rows, got):
                want = scale * kernel_integral(grid, f, poles)
                assert abs(g - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("nodes", [5, 7, 12, 32])
    def test_normalization_matches_one_integral_per_radius(self, nodes):
        res = normalization_check(nodes=nodes)
        for R in (0.8, 1.25):
            want = kernel_integral(meshgrid_grid("u2", R, nodes), BasisExpansion.one(), (None, None))
            re_, im_ = res.details["radii"][str(R)]["value"]
            assert abs(complex(re_, im_) - want) <= 1e-13 * abs(want)

    def test_one_row_evaluations_match_oracle(self):
        want = 1j / (2 * math.pi**3) * kernel_integral(meshgrid_grid("u2", 1.0, 12), BasisExpansion.one(),
                                                       ONE_LOOP_PTS)
        assert abs(one_loop_eval(*ONE_LOOP_PTS, 1.0, 12) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("r, draws", [(1.0, 5), (20.0, 5)])
    def test_conformal_accepts_the_same_draws(self, monkeypatch, r, draws):
        # The maps scale with the radius: at r = 20 every draw keeps its points' sides too.
        made = conformal_draws(r, 20240)
        assert [keeps for _, keeps in made] == [True] * draws
        calls = record_kernel_passes(monkeypatch)
        res = conformal_check(radius=r, nodes=8)
        ((_, _, _, rows, _),) = calls
        assert [poles for _, poles in rows[1:]] == [moved for moved, _ in made]
        assert len(res.details["samples"]) == draws


class TestSuiteRunner:
    def test_payload_is_plain_json(self, monkeypatch):
        # Every value `verify all --json` writes is a plain Python value, never a numpy scalar.
        from boxmagic import cli

        dumped = []
        monkeypatch.setattr(json, "dumps", lambda obj, **kw: dumped.append(obj) or "")
        assert cli.main(["verify", "all", "--json"]) == 0

        def leaves(obj):
            if isinstance(obj, dict):
                assert all(type(k) is str for k in obj)
                for v in obj.values():
                    yield from leaves(v)
            elif isinstance(obj, list):
                for v in obj:
                    yield from leaves(v)
            else:
                yield obj

        (payload,) = dumped
        assert payload["suite"] == "all" and len(payload["checks"]) == len(quadrature.SUITES)
        assert {type(v) for v in leaves(payload)} <= {float, int, str, bool, type(None)}

    def test_all_suites_pass_at_reduced_nodes(self, capsys):
        # The CLI builds the report from the checks that run_suite returns, keys in this order.
        from boxmagic import cli

        assert cli.main(["verify", "normalization", "--nodes", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["schema", "passed", "checks", "suite"]
        assert payload["schema"] == "boxmagic.verify-report/1"
        assert payload["passed"] is True
        assert payload["checks"][0]["name"] == "normalization"

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    @pytest.mark.parametrize("name", quadrature.SUITES)
    def test_flags_reach_the_check(self, name):
        (check,) = run_suite(name, radius=0.9, nodes=8, tol=0.5)
        assert check.nodes == 8
        assert check.tolerance == 0.5

    @pytest.mark.parametrize("name", quadrature.SUITES)
    def test_checks_take_only_what_verify_and_the_benchmark_set(self, name):
        # --radius, --nodes and --tol, and the seed that the benchmark passes: no other knob.
        params = list(inspect.signature(quadrature._CHECKS[name]).parameters)
        assert params in (["radius", "nodes", "tol"], ["radius", "nodes", "tol", "seed"])

    @pytest.mark.parametrize("flags, expected", [
        ({}, dict.fromkeys(quadrature.SUITES, {})),  # each default lives only in its check's signature
        ({"radius": 0.7, "nodes": 10}, dict.fromkeys(quadrature.SUITES, {"radius": 0.7, "nodes": 10})),
    ])
    def test_only_given_flags_are_passed(self, monkeypatch, flags, expected):
        calls = {}

        def recorder(name):
            def check(*args, **kwargs):
                assert not args
                calls[name] = kwargs
                return quadrature.CheckResult(name, 0.0, 1.0, 4)
            return check

        table = {nm: recorder(nm) for nm in quadrature._CHECKS}
        monkeypatch.setattr(quadrature, "_CHECKS", table)
        checks = run_suite("all", **flags)
        assert [c.name for c in checks] == list(quadrature.SUITES)
        assert all(c.passed for c in checks)
        assert calls == expected
