"""Tests for the exact operator engine and the magic identities."""

from __future__ import annotations

import inspect
from decimal import getcontext
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmagic.diagrams import EXTERNALS, attach_slingshot, enumerate_diagrams, from_history, one_loop
from boxmagic import magic
from boxmagic.magic import (
    GeneratorImage,
    a_table,
    diagram_image,
    fraction_decimal,
    fraction_str,
    ladder_image,
    mu,
    mu_table,
    mu_table_payload,
    payload_to_csv,
    verify_magic,
)
from oracles import (
    a_row_closed,
    eigenvalue_extract,
    image_by_history_fraction,
    ladder_image_recursive,
    li_kernel_series,
    magic_failures_fraction,
    mu_closed,
    mu_legendre,
)


class TestATable:
    def test_one_loop_row(self):
        for k in (0, 1, 4, 9):
            assert a_table(1, k).a == tuple(Fraction(1, k + 1) for _ in range(k + 1))

    def test_two_loop_degree_one(self):
        assert a_table(2, 1).a == (Fraction(3, 4), Fraction(1, 4))

    def test_row_sums(self):
        for n in range(1, 11):
            for k in range(0, 21):
                assert sum(a_table(n, k).a) == 1

    def test_monotone_difference_identity(self):
        # a^k(n,p) - a^k(n,p+1) = a^k(n-1,p)/(p+1) for n >= 2.
        for n in range(2, 11):
            for k in range(0, 21):
                row, prev = a_table(n, k).a, a_table(n - 1, k).a
                for p in range(k):
                    assert row[p] - row[p + 1] == prev[p] / (p + 1)

    @given(st.integers(1, 8), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_recursion_preserves_row_sum(self, n, k):
        assert sum(a_table(n, k).a) == 1

    def test_matches_fraction_oracle(self):
        for n in range(1, 17):
            for k in range(0, 33):
                assert a_table(n, k).a == a_row_closed(n, k)

    def test_matches_nested_kernel_series(self):
        # The coefficient of u^k a^(k-p) b^p in Li_L(xi) / (xi (1 - u b)),
        # xi = u (a - b) / (1 - u b), is a^k(L, k-p); every other coefficient vanishes.
        for L in range(1, 9):
            series = li_kernel_series(L, 16)
            for k, coeffs in enumerate(series):
                assert coeffs == {(k - p, p): a_table(L, k).a[k - p] for p in range(k + 1)}

    def test_invariant_validation(self):
        # Every row the commands reach has k + 1 positive, non-increasing entries summing to 1.
        for n in range(1, 17):
            for k in range(0, 65):
                row = a_table(n, k).a
                assert len(row) == k + 1
                assert sum(row) == 1
                assert all(row[p] >= row[p + 1] > 0 for p in range(k))


class TestMu:
    def test_first_component_always_unit(self):
        for n in range(1, 17):
            assert mu(n, 1) == 1

    def test_one_loop_is_projection(self):
        assert mu(1, 1) == 1
        for k in range(2, 65):
            assert mu(1, k) == 0

    def test_two_loop_matches_closed_form(self):
        for k in range(1, 65):
            assert mu(2, k) == mu_closed(2, k)

    def test_closed_form_values(self):
        assert mu_closed(2, 1) == 1
        assert mu_closed(2, 2) == Fraction(-1, 2)
        assert mu_closed(2, 3) == Fraction(1, 6)
        assert mu(2, 5) == Fraction(1, 20)
        for k in range(2, 65):
            assert mu_closed(2, k) == Fraction((-1) ** (k + 1), k * (k - 1))

    def test_matches_fraction_oracle(self):
        for n in range(1, 17):
            for k in range(1, 65):
                assert mu(n, k) == mu_closed(n, k)

    def test_matches_legendre_integral(self):
        # A float oracle with no recursion: the shifted Legendre moments of the
        # loop kernel.  The worst absolute difference measured is 8.7e-14.
        for n in range(1, 9):
            for k in range(1, 25):
                assert abs(float(mu(n, k)) - mu_legendre(n, k)) <= 1e-13

    def test_table_invariant(self):
        t = mu_table(3, 8)
        assert t.values[0] == 1
        for n in range(1, 17):
            t = mu_table(n, 64)
            assert len(t.values) == 64 and t.values[0] == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            mu(2, 0)
        with pytest.raises(ValueError):
            mu_closed(2, 0)


class TestLadderImage:
    def test_one_loop_degree_one(self):
        assert ladder_image(1, 1).coeffs == (Fraction(1, 2), Fraction(1, 2))

    def test_one_loop_degree_zero(self):
        assert ladder_image(1, 0).coeffs == (Fraction(1),)

    def test_two_loop_degree_one(self):
        assert ladder_image(2, 1).coeffs == (Fraction(3, 4), Fraction(1, 4))

    def test_recursion_matches_table(self):
        for n in (2, 3, 4):
            for k in range(0, 9):
                for side in ("left", "right"):
                    assert ladder_image_recursive(n, k, side).coeffs == \
                        ladder_image(n, k, side).coeffs

    def test_left_is_swap_of_right(self):
        img = ladder_image(3, 4)
        assert tuple(reversed(img.coeffs)) == ladder_image(3, 4, "left").coeffs

    def test_image_validation(self):
        with pytest.raises(ValueError):
            GeneratorImage(2, "right", (Fraction(1),))
        with pytest.raises(ValueError):
            GeneratorImage(0, "up", (Fraction(1),))


class TestDiagramImage:
    def test_two_loop_diagrams_match_ladder(self):
        for site in ("Z1", "Z2", "W1", "W2"):
            d = attach_slingshot(one_loop(), site)
            for k in range(0, 9):
                assert diagram_image(d, "right", k).coeffs == ladder_image(2, k).coeffs
                assert diagram_image(d, "left", k).coeffs == ladder_image(2, k, "left").coeffs

    def test_one_loop_swap_symmetry(self):
        d = one_loop()
        for k in range(0, 6):
            left = diagram_image(d, "left", k)
            right = diagram_image(d, "right", k)
            assert left.coeffs == tuple(reversed(right.coeffs))

    def test_three_loop_common_image(self):
        ds = enumerate_diagrams(3)
        for k in range(0, 9):
            images = {diagram_image(d, "right", k).coeffs for d in ds}
            assert len(images) == 1

    def test_matches_fraction_oracle(self):
        # Every attachment history up to four loops, not only the
        # representatives, so all four peeling rules meet every prefix.
        for h in chain.from_iterable(product(EXTERNALS, repeat=m) for m in range(4)):
            d = from_history(h)
            for side in ("left", "right"):
                for k in range(0, 7):
                    assert diagram_image(d, side, k).coeffs == image_by_history_fraction(h, side, k)

    def test_unsupported_side_reported(self):
        with pytest.raises(ValueError):
            diagram_image(one_loop(), "middle", 2)

    def test_history_checked(self):
        d = from_history(("Z1",))
        broken = type(d)(n=d.n, solid=d.solid[:-1] + (("T1", "T1"),), dashed=d.dashed,
                         order=d.order, history=d.history)
        with pytest.raises(ValueError):
            diagram_image(broken, "left", 1)


class TestEigenvalueExtract:
    def test_trivial_projection(self):
        assert eigenvalue_extract(ladder_image(1, 0), 1) == 1

    def test_two_loop_closed_form(self):
        for k in range(1, 21):
            assert eigenvalue_extract(ladder_image(2, k - 1), k) == mu_closed(2, k)

    def test_matches_direct_sum_formula(self):
        for n in range(1, 7):
            for k in range(1, 13):
                assert eigenvalue_extract(ladder_image(n, k - 1), k) == mu(n, k)

    def test_left_images_give_same_eigenvalues(self):
        for n in (2, 3):
            for k in range(1, 9):
                assert eigenvalue_extract(ladder_image(n, k - 1, "left"), k) == mu(n, k)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            eigenvalue_extract(ladder_image(2, 3), 3)


def _mutated_attach(site: str):
    """`_attach` with 1 added to the first numerator of `site`'s rule; the other side stays its reversal."""
    original = magic._attach

    def mutated(s, image, m, k):
        out = original(s, image, m, k)
        if s != site:
            return out
        direct, other = magic._SIDES_OF[s]
        bad = (out[direct][0] + 1,) + out[direct][1:]
        return {direct: bad, other: bad[::-1]}

    return mutated


class TestVerifyMagic:
    def test_one_loop_trivial(self):
        rep = verify_magic(1, 6)
        assert rep.passed and rep.diagram_count == 1

    def test_two_and_three_loops(self):
        for n in (2, 3):
            rep = verify_magic(n, 8)
            assert rep.passed, rep.failures

    def test_agrees_with_fraction_comparison(self):
        # The induction against enumerating every diagram and comparing its image.
        for n in range(1, 7):
            rep = verify_magic(n, 8)
            assert rep.failures == tuple(magic_failures_fraction(n, 8)) == ()
            assert rep.diagram_count == len(enumerate_diagrams(n))

    def test_mutated_rule_fails(self, monkeypatch):
        # Add 1 to the first numerator of the W1 prefix sum: W1 then misses the
        # ladder at both levels, on both sides and at every degree.
        monkeypatch.setattr(magic, "_attach", _mutated_attach("W1"))
        rep = verify_magic(3, 4)
        assert not rep.passed
        assert len(rep.failures) == 20
        assert rep.failures[0] == "level 1->2 site=W1 side=left k=0: (Fraction(2, 1),) != (Fraction(1, 1),)"
        # The Fractions of the last failure are those that the history peeling
        # reported for the diagram ('Z2', 'W1').
        assert rep.failures[-1] == (
            "level 2->3 site=W1 side=right k=4: "
            "(Fraction(12019, 18000), Fraction(3799, 18000), Fraction(1489, 18000), Fraction(61, 2000), "
            "Fraction(1729, 216000)) != (Fraction(12019, 18000), Fraction(3799, 18000), "
            "Fraction(1489, 18000), Fraction(61, 2000), Fraction(1, 125))"
        )

    @pytest.mark.parametrize("site", EXTERNALS)
    def test_each_site_mutation_fails_both_checks(self, monkeypatch, site):
        monkeypatch.setattr(magic, "_attach", _mutated_attach(site))
        rep = verify_magic(3, 4)
        assert not rep.passed
        assert all(f" site={site} " in f for f in rep.failures)
        assert magic_failures_fraction(3, 4)

    def test_cost_does_not_depend_on_histories(self, monkeypatch):
        calls = []
        original = magic._attach

        def spy(site, image, m, k):
            calls.append((m, site, k))
            return original(site, image, m, k)

        monkeypatch.setattr(magic, "_attach", spy)
        for n, k_max in ((1, 5), (4, 24), (5, 12), (8, 3)):
            calls.clear()
            assert verify_magic(n, k_max).passed
            assert len(calls) == (n - 1) * 4 * (k_max + 1)
            assert set(calls) == set(product(range(1, n), EXTERNALS, range(k_max + 1)))

    def test_keeps_no_history_cache(self):
        assert verify_magic(5, 12) == verify_magic(5, 12)
        for name, obj in vars(magic).items():
            if hasattr(obj, "cache_info"):
                assert "history" not in inspect.signature(obj).parameters, name
                assert "history" not in inspect.getsource(obj), name


class TestSerialization:
    def test_fraction_str(self):
        assert fraction_str(Fraction(-1, 12)) == "-1/12"

    def test_fraction_decimal_digits(self):
        s = fraction_decimal(Fraction(1, 3))
        assert s.startswith("0.333333333333333333333333333333")

    def test_fraction_decimal_keeps_global_context(self):
        prec = getcontext().prec
        fraction_decimal(Fraction(1, 3))
        fraction_decimal(Fraction(1, 7), digits=50)
        assert getcontext().prec == prec

    def test_fraction_decimal_bytes(self):
        # Renderings recorded before the decimal context became local.
        cases = {
            Fraction(2, 3): "0.666666666666666666666666666667",
            Fraction(-1, 12): "-0.0833333333333333333333333333333",
            Fraction(1, 20): "0.05",
            Fraction(10**40, 7): "1.42857142857142857142857142857E+39",
            mu(5, 9): "0.381054276781208188416133322491",
            mu(16, 64): "-0.964551031488532618869740475107",
        }
        for x, text in cases.items():
            assert fraction_decimal(x) == text

    def test_payload_round_trip(self):
        payload = mu_table_payload(2, 5)
        assert payload["schema"] == "boxmagic.mu-table/1"
        assert payload["values"][4] == {"k": 5, "exact": "1/20", "decimal": "0.05"}
        csv = payload_to_csv(payload)
        assert csv.splitlines()[0] == "k,exact,decimal"
        assert "5,1/20,0.05" in csv
