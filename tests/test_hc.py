"""Tests for complexified quaternion arithmetic and the cycle charts."""

from __future__ import annotations

import cmath
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmagic.hc import (
    BOUNDARY_TOL,
    ComplexQuaternion,
    GroupElement,
    chart_s3,
    conformal_act,
    domain_side,
    inverse,
    norm,
    random_near_identity,
)
from oracles import chart_u2, conformal_act_alt

RNG = np.random.default_rng(42)
IDENTITY = ComplexQuaternion(1, 0, 0, 1)
ZERO = ComplexQuaternion(0, 0, 0, 0)


def random_cq(rng=RNG, scale=1.0) -> ComplexQuaternion:
    m = scale * (rng.uniform(-1, 1, 8))
    return ComplexQuaternion(
        complex(m[0], m[1]), complex(m[2], m[3]), complex(m[4], m[5]), complex(m[6], m[7])
    )


def from_coords(z0, z1, z2, z3) -> ComplexQuaternion:
    """Z from quaternion coordinates, by the identification in the `hc` docstring."""
    return ComplexQuaternion(z0 - 1j * z3, -1j * z1 - z2, -1j * z1 + z2, z0 + 1j * z3)


def to_coords(Z: ComplexQuaternion) -> tuple[complex, complex, complex, complex]:
    """Quaternion coordinates (z0, z1, z2, z3) of Z."""
    return (Z.z11 + Z.z22) / 2, (Z.z12 + Z.z21) / (-2j), (Z.z21 - Z.z12) / 2, (Z.z22 - Z.z11) / (2j)


def block(a, b, c, d) -> np.ndarray:
    """The 4x4 matrix [[a, b], [c, d]] of four 2x2 blocks."""
    return np.block([[a.as_matrix(), b.as_matrix()], [c.as_matrix(), d.as_matrix()]])


class TestNorm:
    def test_identity(self):
        assert norm(IDENTITY) == 1

    def test_antidiagonal(self):
        assert norm(ComplexQuaternion(0, 1, 1, 0)) == -1

    def test_coordinate_form(self):
        for _ in range(20):
            z = RNG.uniform(-1, 1, 8)
            coords = [complex(z[2 * i], z[2 * i + 1]) for i in range(4)]
            Z = from_coords(*coords)
            assert abs(norm(Z) - sum(c * c for c in coords)) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        Z, W = random_cq(rng), random_cq(rng)
        lhs = norm(Z * W)
        rhs = norm(Z) * norm(W)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestInverse:
    def test_identity(self):
        assert inverse(IDENTITY) == IDENTITY

    def test_diagonal(self):
        got = inverse(ComplexQuaternion(2, 0, 0, 2))
        assert got.z11 == 0.5 and got.z22 == 0.5 and got.z12 == 0 and got.z21 == 0

    def test_norm_reciprocal(self):
        for _ in range(10):
            Z = random_cq()
            assert abs(norm(inverse(Z)) - 1 / norm(Z)) < 1e-10

    def test_left_inverse(self):
        Z = random_cq()
        prod = Z * inverse(Z)
        assert abs(prod.z11 - 1) < 1e-12 and abs(prod.z12) < 1e-12

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            inverse(ComplexQuaternion(1, 1, 1, 1))

    def test_refuses_norm_below_threshold(self):
        # N(Z) = 5e-15 is refused, 2e-14 is inverted.
        with pytest.raises(ZeroDivisionError):
            inverse(ComplexQuaternion(1e-7, 0, 0, 5e-8))
        assert inverse(ComplexQuaternion(1e-7, 0, 0, 2e-7)).z11 == pytest.approx(1e7)


class TestConformalAction:
    def test_identity_element(self):
        Z = random_cq()
        got = conformal_act(GroupElement(np.eye(4, dtype=complex)), Z)
        assert abs(got.z11 - Z.z11) < 1e-14 and abs(got.z21 - Z.z21) < 1e-14

    def test_scaling(self):
        s = 1.7 - 0.3j
        h = GroupElement(np.diag([s, s, 1, 1]).astype(complex))
        Z = random_cq()
        got = conformal_act(h, Z)
        assert abs(got.z12 - s * Z.z12) < 1e-12

    def test_both_formulas_agree(self):
        rng, draw = np.random.default_rng(7), random.Random(7)
        for _ in range(10):
            h = random_near_identity(draw, 0.1)
            Z = random_cq(rng)
            a = conformal_act(h, Z)
            b = conformal_act_alt(h, Z)
            for attr in ("z11", "z12", "z21", "z22"):
                assert abs(getattr(a, attr) - getattr(b, attr)) <= 1e-12

    def test_composition(self):
        rng, draw = np.random.default_rng(11), random.Random(11)
        for _ in range(10):
            h1 = random_near_identity(draw, 0.05)
            h2 = random_near_identity(draw, 0.05)
            Z = random_cq(rng, scale=0.5)
            lhs = conformal_act(GroupElement(block(h1.a, h1.b, h1.c, h1.d) @ block(h2.a, h2.b, h2.c, h2.d)), Z)
            rhs = conformal_act(h1, conformal_act(h2, Z))
            for attr in ("z11", "z12", "z21", "z22"):
                assert abs(getattr(lhs, attr) - getattr(rhs, attr)) <= 1e-10

    def test_group_inverse_blocks(self):
        h = random_near_identity(random.Random(1), 0.2)
        prod = block(h.a, h.b, h.c, h.d) @ block(h.ap, h.bp, h.cp, h.dp)
        assert np.allclose(prod, np.eye(4), atol=1e-12)


class TestDomains:
    def test_origin_inside(self):
        assert domain_side(ZERO, 1.0) == "plus"

    def test_large_diagonal_outside(self):
        assert domain_side(ComplexQuaternion(2, 0, 0, 2), 1.0) == "minus"

    def test_cycle_point_is_boundary(self):
        point = ComplexQuaternion(*chart_u2(1.2, 0.3, 1.1, 0.7, 2.0)[:4])
        assert domain_side(point, 1.2) == "boundary"

    @pytest.mark.parametrize("R", [1e200, 1e-200])
    @pytest.mark.parametrize("scale, side", [(0.5, "plus"), (2.0, "minus")])
    def test_side_holds_where_the_squares_leave_the_float_range(self, R, scale, side):
        # Z Z* and R^2 overflow (or flush to zero) at these radii; Z/R does not.
        point = ComplexQuaternion(*(scale * R * z for z in chart_u2(1.0, 0.3, 1.1, 0.7, 2.0)[:4]))
        assert domain_side(point, R) == side


class TestCharts:
    def test_u2_point_on_cycle(self):
        R = 0.8
        m = ComplexQuaternion(*chart_u2(R, 0.5, 1.0, 0.6, 2.5)[:4]).as_matrix()
        assert np.allclose(m @ m.conj().T, R * R * np.eye(2), atol=1e-12)

    def test_s3_point_real_coords(self):
        point = ComplexQuaternion(*chart_s3(1.3, 1.0, 0.6, 2.5)[:4])
        coords = to_coords(point)
        assert max(abs(c.imag) for c in coords) < 1e-12
        assert abs(norm(point) - 1.3**2) < 1e-12

    def test_u2_jacobian_matches_finite_differences(self):
        # Central differences of the chart map against the closed-form weight.
        R, params = 1.1, (0.37, 1.21, 0.63, 2.4)
        h = 1e-5

        def entries(p):
            return np.array(chart_u2(R, *p)[:4])

        jac = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            up = list(params)
            dn = list(params)
            up[j] += h
            dn[j] -= h
            jac[:, j] = (entries(up) - entries(dn)) / (2 * h)
        det = np.linalg.det(jac) / 4.0
        w = chart_u2(R, *params)[4]
        # The calibrated orientation flips the sign of the raw chart Jacobian.
        assert abs(det + w) <= 1e-8 * abs(w)

    def test_s3_weight_density(self):
        import math

        density = chart_s3(2.0, 0.1, 0.4, 0.2)[4]
        assert density == pytest.approx(2.0**3 * math.cos(0.4) * math.sin(0.4))
