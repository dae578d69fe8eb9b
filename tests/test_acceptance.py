"""Acceptance criteria, one test per criterion with its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with -s to see
them) and enforces the stated runtime budget.  Exact-arithmetic
criteria admit no tolerance at all; the quadrature criteria carry the
stated residual bounds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from boxmagic.diagrams import EXTERNALS, enumerate_diagrams
from boxmagic.hc import ComplexQuaternion
from boxmagic.magic import (
    a_table,
    ladder_image,
    mu_table,
    verify_magic,
)
from boxmagic.polylog import li_integral, li_series, li, phi1
from boxmagic.quadrature import (
    _kernel_pass,
    conformal_check,
    lemma_zp_check,
    normalization_check,
    orthogonality_check,
    poisson_check,
)
from boxmagic.tbasis import BasisExpansion, TIndex
from oracles import (GC, exact_inner_product, ladder_image_recursive, mu_closed, net_degree, t_poly,
                     unitary_norm, validate_diagram)

W_IN = ComplexQuaternion(0.28 + 0.1j, -0.06 + 0.04j, 0.03 - 0.09j, 0.24 - 0.05j)


class _Budget:
    def __init__(self, name: str, seconds: float | None):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s)")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget"
        return False


def test_criterion_01_two_loop_closed_form():
    with _Budget("criterion 1: mu^(2)_k equals the closed form exactly, k <= 64", 1.0):
        assert mu_table(2, 64) == tuple(mu_closed(2, k) for k in range(1, 65))


def test_criterion_02_projection_and_unit_eigenvalue():
    with _Budget("criterion 2: mu^(1)_k = delta_k1 (k <= 64) and mu^(n)_1 = 1 (n <= 16)", 1.0):
        assert mu_table(1, 64) == (1,) + (0,) * 63
        for n in range(1, 17):
            assert mu_table(n, 1) == (1,)


def test_criterion_03_operator_magic_identities():
    with _Budget("criterion 3: magic identities for n in {2,3,4}, both families, k <= 8", 10.0):
        for n in (2, 3, 4):
            report = verify_magic(n, 8)
            assert report.passed, report.failures


def test_criterion_04_coefficient_table_properties():
    with _Budget("criterion 4: a-table row sums, monotonicity, ladder recursion", 1.0):
        for n in range(1, 11):
            for k in range(0, 21):
                row = a_table(n, k)
                assert sum(row) == 1
                assert all(row[p] >= row[p + 1] > 0 for p in range(k))
        for n in (2, 3, 4):
            for k in range(0, 9):
                assert ladder_image_recursive(n, k, "right") == ladder_image(n, k)


def test_criterion_05_diagram_combinatorics():
    with _Budget("criterion 5: enumerate(2) = 2; invariants and cycle order for n <= 5", 5.0):
        assert len(enumerate_diagrams(2)) == 2
        for n in range(1, 6):
            for d in enumerate_diagrams(n):
                validate_diagram(d)  # a strict order that puts a cycle inside each Z and outside each W
                for v in EXTERNALS:
                    assert net_degree(d, v) == 1


def test_criterion_06_cycle_normalization():
    with _Budget("criterion 6: normalization -2 pi^3 i at R in {0.8, 1.25}, 32 nodes", 10.0):
        res = normalization_check(radius=1.0, nodes=32, tol=1e-8)  # at 0.8 R and 1.25 R
        assert res.passed, res.details


def test_criterion_07_poisson_formula():
    with _Budget("criterion 7: sphere reproducing formula, residual <= 1e-6", 10.0):
        res = poisson_check(radius=1.0, nodes=24, tol=1e-6)
        assert res.passed, res.details


def test_criterion_08_two_point_and_single_point_collapse():
    with _Budget("criterion 8: generator collapse <= 1e-5; quotient collapse <= 1e-6, "
                 "R-independent <= 1e-8", 60.0):
        res = lemma_zp_check(radius=1.0, nodes=20, tol=1e-5)
        assert res.passed, res.details
        # (i/2 pi^3) Int (degt phi)(Z) / (N(Z) N(Z-W)) dV = phi(W) at both radii
        phis = [BasisExpansion.monomial("z11", k) for k in range(4)]
        by_radius = [_kernel_pass("u2", R, 24, [(phi.degt(), (None, W_IN)) for phi in phis]) for R in (0.8, 1.25)]
        for phi, a, b in zip(phis, *by_radius):
            want = phi(W_IN)
            assert abs(a - want) / max(1.0, abs(want)) <= 1e-6
            assert abs(b - want) / max(1.0, abs(want)) <= 1e-6
            assert abs(a - b) <= 1e-8 * max(1.0, abs(want))


def test_criterion_09_orthogonality_relations():
    with _Budget("criterion 9: orthogonality relations vs delta/(2l+1), residual <= 1e-6", 60.0):
        res = orthogonality_check(radius=0.9, nodes=16, tol=1e-6)
        assert res.passed, res.details


def test_criterion_10_conformal_covariance():
    with _Budget("criterion 10: one-loop conformal covariance, residual <= 1e-4", 60.0):
        res = conformal_check(radius=1.0, nodes=20, tol=1e-4)
        assert res.passed, res.details


def test_criterion_11_harmonicity_and_unitary_norms():
    with _Budget("criterion 11: harmonicity (2l <= 6) and factorial norms (2l <= 4), exact",
                 None):
        for L in range(7):
            for n in range(-L, L + 1, 2):
                for m in range(-L, L + 1, 2):
                    assert t_poly(L, n, m).laplacian().is_zero()
        for L in range(5):
            for n in range(-L, L + 1, 2):
                for m in range(-L, L + 1, 2):
                    f = BasisExpansion({TIndex(L, n, m, 0): 1})
                    assert exact_inner_product(f, f) == GC(unitary_norm(TIndex(L, n, m, 0)))


def test_criterion_12_polylogarithms_and_ladder_symmetry():
    with _Budget("criterion 12: Li dual paths <= 1e-8, derivative ladder <= 1e-6, "
                 "Phi^(1) symmetry <= 1e-10", 5.0):
        for N in (2, 3, 4):
            for r in (0.3, 0.6, 0.9):
                for ang in (0.5, 2.0, np.pi):
                    z = r * np.exp(1j * ang)
                    a, b = li_series(N, z), li_integral(N, z)
                    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
        h = 1e-6
        rng = np.random.default_rng(3)
        for N in (2, 3, 4):
            for _ in range(6):
                z = complex(rng.uniform(0.2, 0.7), rng.uniform(0.1, 0.6))
                d = (li(N, z + h) - li(N, z - h)) / (2 * h)
                assert abs(d - li(N - 1, z) / z) <= 1e-6
        xs = np.linspace(0.02, 0.2, 10)
        for x in xs:
            for y in xs:
                assert abs(phi1(x, y) - phi1(y, x)) <= 1e-10


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
