"""Tests for the exact operator engine and the magic identities."""

from __future__ import annotations

import inspect
import math
from decimal import getcontext
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxmagic.diagrams import EXTERNALS, MAX_LOOPS, BoxDiagram, attach_slingshot, enumerate_diagrams, from_history
from boxmagic import diagrams, magic
from boxmagic.magic import (
    a_table,
    diagram_image,
    fraction_decimal,
    fraction_str,
    ladder_image,
    mu_table,
    mu_table_payload,
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
            assert a_table(1, k) == tuple(Fraction(1, k + 1) for _ in range(k + 1))

    def test_two_loop_degree_one(self):
        assert a_table(2, 1) == (Fraction(3, 4), Fraction(1, 4))

    def test_row_sums(self):
        for n in range(1, 11):
            for k in range(0, 21):
                assert sum(a_table(n, k)) == 1

    def test_monotone_difference_identity(self):
        # a^k(n,p) - a^k(n,p+1) = a^k(n-1,p)/(p+1) for n >= 2.
        for n in range(2, 11):
            for k in range(0, 21):
                row, prev = a_table(n, k), a_table(n - 1, k)
                for p in range(k):
                    assert row[p] - row[p + 1] == prev[p] / (p + 1)

    @given(st.integers(1, 8), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_recursion_preserves_row_sum(self, n, k):
        assert sum(a_table(n, k)) == 1

    def test_matches_fraction_oracle(self):
        for n in range(1, 17):
            for k in range(0, 33):
                assert a_table(n, k) == a_row_closed(n, k)

    def test_matches_fraction_oracle_at_cli_limit(self):
        # k = 64 is the largest degree `acoeff` accepts (cli.MAX_K).
        for n in (2, 8, 16):
            assert a_table(n, 64) == a_row_closed(n, 64)

    def test_matches_nested_kernel_series(self):
        # The coefficient of u^k a^(k-p) b^p in Li_L(xi) / (xi (1 - u b)),
        # xi = u (a - b) / (1 - u b), is a^k(L, k-p); every other coefficient vanishes.
        for L in range(1, 9):
            series = li_kernel_series(L, 16)
            for k, coeffs in enumerate(series):
                assert coeffs == {(k - p, p): a_table(L, k)[k - p] for p in range(k + 1)}

    def test_invariant_validation(self):
        # Every row the commands reach has k + 1 positive, non-increasing entries summing to 1.
        for n in range(1, 17):
            for k in range(0, 65):
                row = a_table(n, k)
                assert len(row) == k + 1
                assert sum(row) == 1
                assert all(row[p] >= row[p + 1] > 0 for p in range(k))


class TestMu:
    def test_first_component_always_unit(self):
        for n in range(1, 17):
            assert mu_table(n, 1) == (1,)

    def test_one_loop_is_projection(self):
        assert mu_table(1, 64) == (1,) + (0,) * 63

    def test_two_loop_matches_closed_form(self):
        assert mu_table(2, 64) == tuple(mu_closed(2, k) for k in range(1, 65))

    def test_closed_form_values(self):
        assert mu_closed(2, 1) == 1
        assert mu_closed(2, 2) == Fraction(-1, 2)
        assert mu_closed(2, 3) == Fraction(1, 6)
        assert mu_table(2, 5)[-1] == Fraction(1, 20)
        for k in range(2, 65):
            assert mu_closed(2, k) == Fraction((-1) ** (k + 1), k * (k - 1))

    def test_matches_fraction_oracle(self):
        for n in range(1, 17):
            assert mu_table(n, 64) == tuple(mu_closed(n, k) for k in range(1, 65))

    def test_matches_legendre_integral(self):
        # A float oracle with no recursion: the shifted Legendre moments of the
        # loop kernel.  The worst absolute difference measured is 8.7e-14.
        for n in range(1, 9):
            for k, v in enumerate(mu_table(n, 24), start=1):
                assert abs(float(v) - mu_legendre(n, k)) <= 1e-13

    def test_table_invariant(self):
        assert mu_table(3, 8)[0] == 1
        for n in range(1, 17):
            t = mu_table(n, 64)
            assert len(t) == 64 and t[0] == 1

    def test_table_does_not_depend_on_k_max(self):
        # Every k_max has its own lcm, so the shared powers differ; the Fractions must not.
        for n in (1, 2, 7):
            full = mu_table(n, 40)
            for k_max in (0, 1, 2, 13, 39):
                assert mu_table(n, k_max) == full[:k_max]

    def test_range_validation(self):
        # Out of range, the closed sum would still return numbers: (L/m)^0 = 1.
        for n, k_max in ((2, -1), (0, 4), (0, 0), (-1, 3)):
            with pytest.raises(ValueError):
                mu_table(n, k_max)
        with pytest.raises(ValueError):
            mu_closed(2, 0)

    def test_matches_extracted_eigenvalues_at_benchmark_size(self):
        # The a-recursion, through the ladder image, is the independent oracle.
        values = mu_table(20, 96)
        for k in (1, 2, 63, 96):
            assert values[k - 1] == eigenvalue_extract(ladder_image(20, k - 1), k)


class TestLadderImage:
    def test_one_loop_degree_one(self):
        assert ladder_image(1, 1) == (Fraction(1, 2), Fraction(1, 2))

    def test_one_loop_degree_zero(self):
        assert ladder_image(1, 0) == (Fraction(1),)

    def test_two_loop_degree_one(self):
        assert ladder_image(2, 1) == (Fraction(3, 4), Fraction(1, 4))

    def test_recursion_matches_table(self):
        for n in (2, 3, 4):
            for k in range(0, 9):
                for side in ("left", "right"):
                    assert ladder_image_recursive(n, k, side) == ladder_image(n, k, side)

    def test_left_is_swap_of_right(self):
        assert tuple(reversed(ladder_image(3, 4))) == ladder_image(3, 4, "left")

    def test_image_validation(self):
        # The family check the image class made: an unknown side is refused.
        for side in ("up", "middle", "Right"):
            with pytest.raises(ValueError, match="unsupported generator family"):
                ladder_image(1, 1, side)


class TestDiagramImage:
    def test_two_loop_diagrams_match_ladder(self):
        for site in ("Z1", "Z2", "W1", "W2"):
            d = attach_slingshot(BoxDiagram(), site)
            for k in range(0, 9):
                assert diagram_image(d, "right", k) == ladder_image(2, k)
                assert diagram_image(d, "left", k) == ladder_image(2, k, "left")

    def test_one_loop_swap_symmetry(self):
        d = BoxDiagram()
        for k in range(0, 6):
            left = diagram_image(d, "left", k)
            right = diagram_image(d, "right", k)
            assert left == tuple(reversed(right))

    def test_three_loop_common_image(self):
        ds = enumerate_diagrams(3)
        for k in range(0, 9):
            images = {diagram_image(d, "right", k) for d in ds}
            assert len(images) == 1

    def test_matches_fraction_oracle(self):
        # Every attachment history up to four loops, not only the
        # representatives, so all four peeling rules meet every prefix.
        for h in chain.from_iterable(product(EXTERNALS, repeat=m) for m in range(4)):
            d = from_history(h)
            for side in ("left", "right"):
                for k in range(0, 7):
                    assert diagram_image(d, side, k) == image_by_history_fraction(h, side, k)

    def test_unsupported_side_reported(self):
        with pytest.raises(ValueError):
            diagram_image(BoxDiagram(), "middle", 2)

    def test_history_checked(self):
        # The fold reads the history alone, and the type checks its sites before any fold runs.
        with pytest.raises(ValueError, match="got 'T1'"):
            diagram_image(diagrams.BoxDiagram(("Z1", "T1")), "left", 1)
        d = from_history(("Z1", "W2"))
        assert diagram_image(d, "left", 3) == image_by_history_fraction(d.history, "left", 3)


class TestEigenvalueExtract:
    def test_trivial_projection(self):
        assert eigenvalue_extract(ladder_image(1, 0), 1) == 1

    def test_two_loop_closed_form(self):
        for k in range(1, 21):
            assert eigenvalue_extract(ladder_image(2, k - 1), k) == mu_closed(2, k)

    def test_matches_direct_sum_formula(self):
        for n in range(1, 7):
            for k, v in enumerate(mu_table(n, 12), start=1):
                assert eigenvalue_extract(ladder_image(n, k - 1), k) == v

    def test_left_images_give_same_eigenvalues(self):
        for n in (2, 3):
            for k, v in enumerate(mu_table(n, 8), start=1):
                assert eigenvalue_extract(ladder_image(n, k - 1, "left"), k, "left") == v

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            eigenvalue_extract(ladder_image(2, 3), 3)


def _plus_one(rule: str):
    """`rule` (`_z_rule` or `_ladder_step`) with 1 added to the first numerator of its result."""
    original = getattr(magic, rule)

    def mutated(*args):
        out = original(*args)
        return (out[0] + 1,) + out[1:]

    return mutated


def _v(k: int, m: int) -> tuple[int, ...]:
    """v_{k,m}[p] = (-1)^(m-1-p) C(k, m-1) C(m-1, p), p = 0..k, in integers: zero unless m <= k + 1."""
    return tuple((-1) ** (m + 1 + p) * math.comb(k, m - 1) * math.comb(m - 1, p) for p in range(k + 1))


def _basis_failures(z_rule, ladder_step, k_top: int) -> list[tuple[str, int, int]]:
    """(rule, k, m) of every level-0 call that does not send v_{.,m} to L v_{k,m} / m, L = lcm(1..k+1).

    The Z rule takes the right rows (v_{p,m})_{p<=k}, the ladder step (the W rule) the
    row v_{k,m}.  The entries of v are integers, so they are numerators over lcm^0 = 1
    at level 0.
    """
    bad = []
    for k in range(k_top + 1):
        lcm = math.lcm(*range(1, k + 2))
        for m in range(1, k + 2):
            want = tuple(lcm * c // m for c in _v(k, m))
            if z_rule([_v(p, m) for p in range(k + 1)], 0, k) != want:
                bad.append(("Z", k, m))
            if ladder_step(_v(k, m)) != want:
                bad.append(("W", k, m))
    return bad


# The rule that serves each site on the right family.
_RULE_OF = {"Z1": "_z_rule", "Z2": "_z_rule", "W1": "_ladder_step", "W2": "_ladder_step"}

# The site mutations of ROADMAP item 1, restated on the right family: (text in the
# site's rule, mutated text).  Z1 without its shift at p = 0 sends the degree-0 image
# to (w'11)^k, Z2 shifts by 1 for p < k, and the weight 1/(k-q+2) of W1 and 1/(q+2)
# of W2 coincide as the weight 1/(q+2) of the ladder step.
_SITE_MUTATIONS = {
    "Z1": ("out[q] += c * scale", "out[q + (0 if p else k)] += c * scale"),
    "Z2": ("out[q] += c * scale", "out[q + (p < k)] += c * scale"),
    "W1": ("lcm // (q + 1)", "lcm // (q + 2)"),
    "W2": ("lcm // (q + 1)", "lcm // (q + 2)"),
}


class TestSiteRulesAreDiagonal:
    # Both rules map the integer family v_{.,m} to itself with eigenvalue 1/m, and the
    # one-loop row is sum_m v_{k,m} / m; so every history of n - 1 slingshots gives
    # sum_m v_{k,m} / m^n, which is the ladder row (`a_row_closed`) at every n.
    def test_every_site_is_diagonal_on_v(self):
        assert _basis_failures(magic._z_rule, magic._ladder_step, 24) == []

    @pytest.mark.parametrize("site", EXTERNALS)
    def test_each_site_mutation_fails(self, monkeypatch, site):
        rule, (old, new) = _RULE_OF[site], _SITE_MUTATIONS[site]
        source = inspect.getsource(getattr(magic, rule))
        assert source.count(old) == 1
        namespace = dict(vars(magic))
        exec(compile(source.replace(old, new), magic.__file__, "exec"), namespace)
        rules = {"_z_rule": magic._z_rule, "_ladder_step": magic._ladder_step, rule: namespace[rule]}
        bad = _basis_failures(rules["_z_rule"], rules["_ladder_step"], 12)
        assert bad and {r for r, _, _ in bad} == {site[0]}
        # The ladder step is the a-recursion too: only its mutation misses the closed row.
        monkeypatch.setattr(magic, rule, namespace[rule])
        nums, den = magic._a_numerators(3, 6)
        assert (tuple(Fraction(c, den) for c in nums) == a_row_closed(3, 6)) == (site[0] == "Z")


class TestVerifyMagic:
    def test_one_loop_trivial(self):
        rep = verify_magic(1, 6)
        assert rep.passed and rep.diagram_count == 1

    def test_range_validation(self):
        # k_max < 0 would apply no rule and pass; n = 0 and n > MAX_LOOPS have a count formula but no proof.
        for n, k_max in ((3, -1), (1, -1), (0, 4), (MAX_LOOPS + 1, 4), (MAX_LOOPS + 1, 0)):
            with pytest.raises(ValueError):
                verify_magic(n, k_max)

    def test_does_not_enumerate(self, monkeypatch):
        def refuse(n):
            raise AssertionError("verify_magic enumerated diagrams")

        monkeypatch.setattr(diagrams, "enumerate_diagrams", refuse)
        monkeypatch.setattr(magic, "enumerate_diagrams", refuse, raising=False)
        counts = [verify_magic(n, 2).diagram_count for n in range(1, MAX_LOOPS + 1)]
        assert counts == [1, 2, 6, 20, 68, 232, 792, 2704]

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
        # Add 1 to the first numerator of the Z rule: it then misses the ladder
        # step at both levels and at every degree, one failure for both Z sites.
        monkeypatch.setattr(magic, "_z_rule", _plus_one("_z_rule"))
        rep = verify_magic(3, 4)
        assert not rep.passed
        assert len(rep.failures) == 10
        assert rep.failures[0] == "level 1->2 site=Z1,Z2 k=0: (Fraction(2, 1),) != (Fraction(1, 1),)"
        assert rep.failures[-1] == (
            "level 2->3 site=Z1,Z2 k=4: "
            "(Fraction(144229, 216000), Fraction(3799, 18000), Fraction(1489, 18000), Fraction(61, 2000), "
            "Fraction(1, 125)) != (Fraction(12019, 18000), Fraction(3799, 18000), "
            "Fraction(1489, 18000), Fraction(61, 2000), Fraction(1, 125))"
        )
        # The target is the image that history peeling gives every 3-loop diagram,
        # and the mutation adds 1/lcm(1..5)^3 to its first coefficient.
        want = image_by_history_fraction(("W1", "Z2"), "right", 4)
        got = (want[0] + Fraction(1, 60**3),) + want[1:]
        assert rep.failures[-1] == f"level 2->3 site=Z1,Z2 k=4: {got} != {want}"

    @pytest.mark.parametrize("site", EXTERNALS)
    def test_each_site_mutation_fails_both_checks(self, monkeypatch, site):
        monkeypatch.setattr(magic, _RULE_OF[site], _plus_one(_RULE_OF[site]))
        rep = verify_magic(3, 4)
        assert not rep.passed
        assert all(" site=Z1,Z2 " in f for f in rep.failures)
        assert magic_failures_fraction(3, 4)

    def test_cost_does_not_depend_on_histories(self, monkeypatch):
        calls, steps = [], []
        z_rule, ladder_step = magic._z_rule, magic._ladder_step

        def spy(images, m, k):
            calls.append((m, k))
            return z_rule(images, m, k)

        def step_spy(row):
            steps.append(len(row) - 1)
            return ladder_step(row)

        monkeypatch.setattr(magic, "_z_rule", spy)
        monkeypatch.setattr(magic, "_ladder_step", step_spy)
        for n, k_max in ((1, 5), (4, 24), (5, 12), (8, 3)):
            calls.clear()
            steps.clear()
            assert verify_magic(n, k_max).passed
            assert len(calls) == len(steps) == (n - 1) * (k_max + 1)
            assert set(calls) == set(product(range(1, n), range(k_max + 1)))
            assert sorted(steps) == sorted(list(range(k_max + 1)) * (n - 1))

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
        # The rendering's 30 digits differ from the default context's 28.
        prec = getcontext().prec
        fraction_decimal(Fraction(1, 3))
        fraction_decimal(Fraction(1, 7))
        assert getcontext().prec == prec

    def test_fraction_decimal_bytes(self):
        # Renderings recorded before the decimal context became local.
        cases = {
            Fraction(2, 3): "0.666666666666666666666666666667",
            Fraction(-1, 12): "-0.0833333333333333333333333333333",
            Fraction(1, 20): "0.05",
            Fraction(10**40, 7): "1.42857142857142857142857142857E+39",
            mu_table(5, 9)[-1]: "0.381054276781208188416133322491",
            mu_table(16, 64)[-1]: "-0.964551031488532618869740475107",
        }
        for x, text in cases.items():
            assert fraction_decimal(x) == text

    def test_payload_round_trip(self):
        payload = mu_table_payload(2, 5)
        assert payload["schema"] == "boxmagic.mu-table/1"
        assert payload["values"][4] == {"k": 5, "exact": "1/20", "decimal": "0.05"}
