"""Tests for the matrix-coefficient bases and the exact pairings and inner product they satisfy."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from boxmagic.hc import ComplexQuaternion, inverse, norm
from boxmagic.tbasis import BasisExpansion, EntryPowers, TIndex, term_of_inverse_argument
from oracles import GC, MultiPoly, exact_H_pairing, exact_inner_product, pair_Zh, t_poly, unitary_norm

RNG = np.random.default_rng(5)


def random_cq(scale=1.0) -> ComplexQuaternion:
    m = scale * RNG.uniform(-1, 1, 8)
    return ComplexQuaternion(
        complex(m[0], m[1]), complex(m[2], m[3]), complex(m[4], m[5]), complex(m[6], m[7])
    )


def all_indices(two_l_max: int):
    for L in range(two_l_max + 1):
        for n in range(-L, L + 1, 2):
            for m in range(-L, L + 1, 2):
                yield L, n, m


def eval_basis(idx: TIndex, Z: ComplexQuaternion) -> complex:
    """Value t^l_{n,m}(Z) * N(Z)^k of one basis element."""
    return complex(BasisExpansion({idx: 1})(Z))


def pair_H2(f1: BasisExpansion, f2: BasisExpansion):
    """The harmonic pairing in its second form, <degt(f1)/N, f2> of `pair_Zh`."""
    return pair_Zh(BasisExpansion({TIndex(i.two_l, i.two_n, i.two_m, i.k - 1): c
                                   for i, c in f1.degt().coeffs.items()}), f2)


class TestTPoly:
    def test_extreme_values(self):
        for L in (1, 2, 3, 4):
            assert t_poly(L, -L, -L).terms == {(L, 0, 0, 0): 1}
            assert t_poly(L, L, L).terms == {(0, 0, 0, L): 1}
            assert t_poly(L, -L, L).terms == {(0, L, 0, 0): 1}
            assert t_poly(L, L, -L).terms == {(0, 0, L, 0): 1}

    def test_explicit_quadratic(self):
        assert t_poly(2, 0, 0).terms == {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}

    def test_harmonic_up_to_degree_six(self):
        for L, n, m in all_indices(6):
            assert t_poly(L, n, m).laplacian().is_zero()

    def test_homogeneous(self):
        for L, n, m in all_indices(5):
            p = t_poly(L, n, m)
            assert all(sum(e) == L for e in p.terms)
            assert p.euler() == p.scale(L)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            TIndex(2, 3, 0, 0)
        with pytest.raises(ValueError):
            TIndex(2, 1, 0, 0)  # parity mismatch


class TestEntryPowers:
    @staticmethod
    def points():
        z = RNG.uniform(-1, 1, (4, 2, 500))
        return tuple(z[:, 0] + 1j * z[:, 1])

    def test_matches_term_by_term_oracle(self):
        z11, z12, z21, z22 = pts = self.points()
        n = z11 * z22 - z12 * z21
        powers = EntryPowers(*pts)
        for L, a, b in all_indices(3):
            t = t_poly(L, a, b)(*pts)
            assert np.abs(powers.t(L, a, b) - t).max() <= 1e-13 * np.abs(t).max()
            for k in range(-6, 2):
                got = powers.value(BasisExpansion({TIndex(L, a, b, k): 1}))
                want = t * n**k
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (L, a, b, k)

    def test_each_power_built_once(self):
        powers = EntryPowers(*self.points())
        for key in ((0, 3), ("N", 2), ("1/N", 4)):
            assert powers.power(*key) is powers.power(*key)
        assert powers.t(3, 1, -1) is powers.t(3, 1, -1)
        assert np.array_equal(powers.power("1/N", 2), powers.power("1/N", 1) * powers.power("1/N", 1))

    def test_scalars(self):
        Z = random_cq()
        f = BasisExpansion({TIndex(2, 0, 0, -1): 3, TIndex(1, 1, -1, 1): 1j})
        want = (3 * t_poly(2, 0, 0)(Z.z11, Z.z12, Z.z21, Z.z22) / norm(Z)
                + 1j * t_poly(1, 1, -1)(Z.z11, Z.z12, Z.z21, Z.z22) * norm(Z))
        assert f(Z) == pytest.approx(want, rel=1e-13)


class TestEvalBasis:
    """Scalar evaluation of one basis element through `BasisExpansion.__call__`."""

    def test_constant(self):
        assert eval_basis(TIndex(0, 0, 0, 0), random_cq()) == 1

    def test_entry_at_identity(self):
        assert eval_basis(TIndex(1, -1, -1, 0), ComplexQuaternion(1, 0, 0, 1)) == 1

    def test_two_paths_agree(self):
        Z = random_cq()
        nz = norm(Z)
        for L, n, m in all_indices(4):
            for k in (-2, 0, 1):
                via_poly = t_poly(L, n, m)(Z.z11, Z.z12, Z.z21, Z.z22) * nz**k
                assert eval_basis(TIndex(L, n, m, k), Z) == pytest.approx(via_poly)

    def test_singular_norm_raises(self):
        with pytest.raises(ZeroDivisionError):
            eval_basis(TIndex(0, 0, 0, -1), ComplexQuaternion(1, 1, 1, 1))


class TestDegt:
    def test_constant(self):
        f = BasisExpansion.one()
        assert f.degt().coeffs == {TIndex(0, 0, 0, 0): 1}

    def test_quadratic(self):
        f = BasisExpansion.monomial("z11", 2)
        assert f.degt().coeffs == {TIndex(2, -2, -2, 0): 3}

    def test_negative_power_factor(self):
        # At k = -(2l+1) the element is homogeneous of degree -2l-2, so
        # the degree-plus-one factor is 2l + 2k + 1 = -(2l+1).
        for L in (0, 1, 2, 3):
            f = BasisExpansion({TIndex(L, L, L, -(L + 1)): 1})
            (idx, c), = f.degt().coeffs.items()
            assert c == -(L + 1)

    def test_symbolic_euler_cross_check(self):
        # The factor 2l + 2k + 1 is degree-plus-one; on polynomial
        # representatives the degree operator must agree exactly.
        npoly = MultiPoly.norm_poly()
        for L, n, m in all_indices(4):
            for k in (0, 1, 2):
                p = t_poly(L, n, m) * npoly.pow(k)
                assert p.euler() == p.scale(L + 2 * k)


class TestInverseArgument:
    def test_symbolic_identity(self):
        # t^l_{a,b}(adj Z) must equal the normalized plain term exactly.
        for L, a, b in all_indices(4):
            poly = t_poly(L, a, b)
            subbed = {}
            for (e11, e12, e21, e22), c in poly.terms.items():
                sign = (-1) ** (e12 + e21)
                key = (e22, e12, e21, e11)
                subbed[key] = subbed.get(key, 0) + sign * c
            idx, fac = term_of_inverse_argument(L, a, b, 0)
            assert MultiPoly(subbed) == t_poly(idx.two_l, idx.two_n, idx.two_m).scale(fac)
            assert idx.k == -L

    def test_numeric_identity(self):
        Z = random_cq()
        Zi = inverse(Z)
        for L, a, b in all_indices(3):
            lhs = t_poly(L, a, b)(Zi.z11, Zi.z12, Zi.z21, Zi.z22)
            idx, fac = term_of_inverse_argument(L, a, b, 0)
            rhs = complex(fac) * eval_basis(idx, Z)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPairH:
    """The harmonic pairing (1/2 pi^2) Int degt(f1) f2 dS of H+ x H-, exactly."""

    def test_unit_pair(self):
        one = BasisExpansion.one()
        ninv = BasisExpansion({TIndex(0, 0, 0, -1): 1})
        assert exact_H_pairing(one, ninv) == GC(1)
        assert exact_H_pairing(ninv, one) == GC(-1)

    def test_mismatched_partner_vanishes(self):
        f1 = BasisExpansion({TIndex(2, 0, 2, 0): 1})
        f2 = BasisExpansion({TIndex(2, 0, 2, -3): 1})  # not the dual index
        assert exact_H_pairing(f1, f2) == GC(0)

    def test_exact_oracle_all_pairs(self):
        # Every H+ x H- basis pair with 2l <= 2: exact sphere integration
        # of the defining pairing integral against the index lookup.
        for L1, n1, m1 in all_indices(2):
            f1 = BasisExpansion({TIndex(L1, n1, m1, 0): 1})
            for L2, n2, m2 in all_indices(2):
                f2 = BasisExpansion({TIndex(L2, n2, m2, -(L2 + 1)): 1})
                assert exact_H_pairing(f1, f2) == GC(Fraction(pair_H2(f1, f2)))

    def test_z11_squared_dual(self):
        f1 = BasisExpansion.monomial("z11", 2)
        idx, fac = term_of_inverse_argument(2, -2, -2, -1)
        f2 = BasisExpansion({idx: fac})
        assert pair_H2(f1, f2) == 1
        assert exact_H_pairing(f1, f2) == GC(1)

    def test_antisymmetry_random(self):
        for _ in range(20):
            L1, n1, m1 = list(all_indices(3))[RNG.integers(0, 30)]
            L2, n2, m2 = list(all_indices(3))[RNG.integers(0, 30)]
            f1 = BasisExpansion({TIndex(L1, n1, m1, 0): Fraction(3, 7)})
            f2 = BasisExpansion({TIndex(L2, n2, m2, -(L2 + 1)): Fraction(-2, 5)})
            assert exact_H_pairing(f1, f2) == GC(-1) * exact_H_pairing(f2, f1)


class TestPairZh:
    def test_unit_pair(self):
        one = BasisExpansion.one()
        ninv2 = BasisExpansion({TIndex(0, 0, 0, -2): 1})
        assert pair_Zh(one, ninv2) == 1

    def test_norm_power_mismatch(self):
        f1 = BasisExpansion({TIndex(1, -1, -1, 0): 1})
        f2 = BasisExpansion({TIndex(1, 1, 1, -2): 1})  # k' + c != -(2l+2)
        assert pair_Zh(f1, f2) == 0

    def test_one_third_for_degree_two(self):
        f1 = BasisExpansion({TIndex(2, -2, -2, 0): 1})
        idx, fac = term_of_inverse_argument(2, -2, -2, -2)
        f2 = BasisExpansion({idx: fac})
        assert pair_Zh(f1, f2) == Fraction(1, 3)

    def test_symmetry_random(self):
        idxs = [TIndex(L, n, m, k) for L, n, m in all_indices(2) for k in (-4, -2, -1, 0, 1)]
        for _ in range(40):
            i1 = idxs[RNG.integers(0, len(idxs))]
            i2 = idxs[RNG.integers(0, len(idxs))]
            f1 = BasisExpansion({i1: Fraction(2, 3)})
            f2 = BasisExpansion({i2: Fraction(5, 4)})
            assert pair_Zh(f1, f2) == pair_Zh(f2, f1)


class TestPairH2:
    """The second form <degt(f1)/N, f2> of the harmonic pairing."""

    def test_unit_pair(self):
        one = BasisExpansion.one()
        ninv = BasisExpansion({TIndex(0, 0, 0, -1): 1})
        assert pair_H2(one, ninv) == 1

    def test_plus_plus_vanishes(self):
        f1 = BasisExpansion.monomial("z11", 1)
        f2 = BasisExpansion.monomial("z22", 1)
        assert pair_H2(f1, f2) == 0

    def test_coincides_with_pair_H(self):
        for L1, n1, m1 in all_indices(3):
            f1 = BasisExpansion({TIndex(L1, n1, m1, 0): Fraction(1, 2)})
            for L2, n2, m2 in all_indices(3):
                f2 = BasisExpansion({TIndex(L2, n2, m2, -(L2 + 1)): 3})
                assert exact_H_pairing(f1, f2) == GC(Fraction(pair_H2(f1, f2)))


class TestInnerProduct:
    """The unitary inner product (1/2 pi^2) Int degt(f1) conj(f2) dS on H+, exactly."""

    def test_powers_of_entry(self):
        for k in (0, 1, 2, 5):
            f = BasisExpansion.monomial("z11", k)
            assert exact_inner_product(f, f) == GC(1)

    def test_factorial_value(self):
        f = BasisExpansion({TIndex(2, 0, 2, 0): 1})
        assert exact_inner_product(f, f) == GC(2)

    def test_mismatch_vanishes(self):
        f1 = BasisExpansion({TIndex(2, 0, 2, 0): 1})
        f2 = BasisExpansion({TIndex(2, 2, 0, 0): 1})
        assert exact_inner_product(f1, f2) == GC(0)

    def test_conjugates_second_argument(self):
        f = BasisExpansion({TIndex(1, -1, -1, 0): 1j})
        assert exact_inner_product(f, f) == GC(1)

    def test_exact_oracle_diagonal(self):
        for L, n, m in all_indices(4):
            idx = TIndex(L, n, m, 0)
            f = BasisExpansion({idx: 1})
            assert exact_inner_product(f, f) == GC(unitary_norm(idx))


class TestExpansion:
    def test_monomial_index(self):
        assert BasisExpansion.monomial("z22", 3).coeffs == {TIndex(3, 3, 3, 0): 1}
        assert BasisExpansion.monomial("z21", 2).coeffs == {TIndex(2, 2, -2, 0): 1}
