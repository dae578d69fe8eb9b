"""Tests for box-diagram construction, ordering and enumeration."""

from __future__ import annotations

import hashlib
import pickle
import random
from collections import Counter, namedtuple
from itertools import product

import pytest

from boxmagic import diagrams
from boxmagic.diagrams import (
    ADJACENT,
    EXTERNALS,
    BoxDiagram,
    MAX_LOOPS,
    attach_slingshot,
    canonical_key,
    enumerate_diagrams,
    from_history,
    to_dot,
)
from boxmagic.magic import verify_magic
from oracles import brute_force_key, net_degree, refinement_key, transitive_closure, validate_diagram

# The reference definition of the order: the relations of the one-loop diagram, and those an
# attachment adds, with "T" the fresh internal vertex: site Z1 gives W2 < T < Z1, Z2; site Z2
# gives W1 < T < Z1, Z2; site W1 gives W1, W2 < T < Z2; site W2 gives W1, W2 < T < Z1.
_ONE_LOOP_RELATIONS = {("W1", "T1"), ("W2", "T1"), ("T1", "Z1"), ("T1", "Z2")}
_NEW_RELATIONS = {
    "Z1": (("W2", "T"), ("T", "Z1"), ("T", "Z2")),
    "Z2": (("W1", "T"), ("T", "Z1"), ("T", "Z2")),
    "W1": (("W1", "T"), ("W2", "T"), ("T", "Z2")),
    "W2": (("W1", "T"), ("W2", "T"), ("T", "Z1")),
}


class Ordered(namedtuple("Ordered", "n solid dashed order history", defaults=((),))):
    """A diagram with an explicit order, for the tests that set one that no history gives."""

    __slots__ = ()
    internals = BoxDiagram.internals


class TestOneLoop:
    def test_structure(self):
        d = BoxDiagram()
        validate_diagram(d)
        assert d.n == 1
        assert len(d.dashed) == 0
        assert net_degree(d, "T1") == 4

    def test_integrand_factors(self):
        # Solid edges are the 1/N factors of the integrand, dashed edges the N factors.
        d = BoxDiagram()
        assert set(d.solid) == {("T1", "W1"), ("T1", "W2"), ("T1", "Z1"), ("T1", "Z2")}
        assert d.dashed == ()

    def test_order(self):
        d = BoxDiagram()
        assert ("W1", "T1") in d.order and ("T1", "Z2") in d.order
        assert ("W1", "Z1") in d.order  # transitive closure


class TestSlingshot:
    def test_two_loop_ladder_integrand(self):
        # Attaching at W2 must reproduce the two-loop ladder factor list.
        d = attach_slingshot(BoxDiagram(), "W2")
        validate_diagram(d)
        assert sorted(d.solid) == sorted(
            [("T1", "Z1"), ("T1", "Z2"), ("T1", "W1"), ("T1", "T2"),
             ("T2", "Z1"), ("T2", "W1"), ("T2", "W2")]
        )
        assert d.dashed == (("W1", "Z1"),)

    def test_carried_order_gives_nested_radii(self):
        # Attaching at Z2: the old relation W2 < T1 < Z2 carries over as
        # T1 < T2, so the cycle of T1 lies inside that of T2.
        d = attach_slingshot(BoxDiagram(), "Z2")
        assert ("T1", "T2") in d.order

    def test_attach_w2_order(self):
        d = attach_slingshot(BoxDiagram(), "W2")
        assert ("T2", "T1") in d.order
        assert ("W1", "T2") in d.order and ("W2", "T2") in d.order and ("T2", "Z1") in d.order

    def test_two_distinct_two_loop_diagrams(self):
        keys = {canonical_key(attach_slingshot(BoxDiagram(), s)) for s in EXTERNALS}
        assert len(keys) == 2

    def test_z2_and_w2_give_isomorphic_diagrams(self):
        kz = canonical_key(attach_slingshot(BoxDiagram(), "Z2"))
        kw = canonical_key(attach_slingshot(BoxDiagram(), "W2"))
        assert kz == kw

    def test_z1_and_w2_give_distinct_diagrams(self):
        kz = canonical_key(attach_slingshot(BoxDiagram(), "Z1"))
        kw = canonical_key(attach_slingshot(BoxDiagram(), "W2"))
        assert kz != kw

    def test_invariants_through_five_loops(self):
        # Degree/count invariants hold after every attachment sequence.
        frontier = [BoxDiagram()]
        for _ in range(4):
            nxt = []
            for d in frontier[:16]:
                for s in EXTERNALS:
                    child = attach_slingshot(d, s)
                    validate_diagram(child)
                    nxt.append(child)
            frontier = nxt

    def test_bad_site_rejected(self):
        # The sites are the one input from outside, and the type checks every one of them.
        with pytest.raises(ValueError):
            attach_slingshot(BoxDiagram(), "T1")
        message = r"site must be one of \('Z1', 'Z2', 'W1', 'W2'\), got 'X1'"
        with pytest.raises(ValueError, match=message):
            BoxDiagram(("X1",))
        with pytest.raises(ValueError, match=message):
            attach_slingshot(from_history(("Z2", "W1")), "X1")

    def test_every_construction_path_refuses_a_bad_site(self):
        # namedtuple's _make and _replace, and unpickling, build a diagram too: each of them
        # refuses "X1" with the constructor's message, so canonical_key never meets a bare KeyError.
        d = BoxDiagram(("Z1",))
        paths = {
            "constructor": lambda: BoxDiagram(("X1",)),
            "_make": lambda: BoxDiagram._make([("X1",)]),
            "_replace": lambda: d._replace(history=("X1",)),
            "attach_slingshot": lambda: attach_slingshot(d, "X1"),
            "from_history": lambda: from_history(("Z1", "X1")),
            "pickle": lambda: pickle.loads(pickle.dumps(d).replace(b"Z1", b"X1")),
        }
        for build in paths.values():
            with pytest.raises(ValueError, match=r"^site must be one of \('Z1', 'Z2', 'W1', 'W2'\), got 'X1'$"):
                build()
        assert d._replace(history=["W2"]) == BoxDiagram(("W2",)) == BoxDiagram._make([["W2"]])
        assert pickle.loads(pickle.dumps(d)) == d


class TestOrderClosure:
    def test_one_loop_matches_fixpoint_oracle(self):
        assert BoxDiagram().order == transitive_closure(_ONE_LOOP_RELATIONS)

    def test_reference_relations_follow_the_letter_rule(self):
        # The new vertex lies above the W's and below the Z's of {site} and ADJACENT[site], and
        # T1 likewise of all four externals.  An attachment draws exactly the edges from the new
        # vertex to those externals, and an edge's relation is set when its first endpoint turns
        # internal; the vertex renamed from the site keeps its letter.  So with this finite check,
        # BoxDiagram.order equals the reference for every history.
        def rule(t, vertices):
            return {(v, t) if v[0] == "W" else (t, v) for v in vertices}

        assert _ONE_LOOP_RELATIONS == rule("T1", EXTERNALS)
        for site in EXTERNALS:
            assert set(_NEW_RELATIONS[site]) == rule("T", (site, *ADJACENT[site])), site

    def test_attachments_match_fixpoint_oracle(self):
        # Every attachment to every history of at most five sites, so every
        # diagram up to seven loops: the order is the fixpoint closure of the
        # renamed parent order plus the attachment's new relations.
        frontier = [BoxDiagram()]
        attached = 0
        for _ in range(6):
            children = []
            for d in frontier:
                parent = d.order
                for site in EXTERNALS:
                    child = attach_slingshot(d, site)
                    t = f"T{child.n}"
                    relations = {(t if a == site else a, t if b == site else b) for (a, b) in parent}
                    relations |= {(t if a == "T" else a, t if b == "T" else b) for (a, b) in _NEW_RELATIONS[site]}
                    assert child.order == transitive_closure(relations), child.history
                    children.append(child)
            attached += len(children)
            frontier = children
        assert attached == 5460

    def test_chain_ends_touch_the_externals(self):
        # The induction step that makes the chain the closure of the letter rule for every n: the
        # top of the chain has solid edges to Z1 and Z2, and its bottom to W1 and W2.  So the vertex
        # that a Z site turns internal lies above the old top, one that a W site turns internal
        # lies below the old bottom, and the step keeps the edges of the other end.  Checked here
        # on every history of at most seven sites.
        for history in (h for m in range(8) for h in product(EXTERNALS, repeat=m)):
            d = BoxDiagram(history)
            order = d.order
            below = Counter(b for a, b in order if a[0] == "T")
            chain = sorted(d.internals, key=below.__getitem__)
            assert all(pair in order for pair in zip(chain, chain[1:])), history
            ends = {(chain[-1], "Z1"), (chain[-1], "Z2"), (chain[0], "W1"), (chain[0], "W2")}
            assert ends <= set(d.solid), history

    def test_validate_rejects_open_order(self):
        d = attach_slingshot(BoxDiagram(), "W2")
        validate_diagram(d)
        assert ("W1", "T2") in d.order and ("T2", "T1") in d.order
        broken = Ordered(d.n, d.solid, d.dashed, d.order - {("W1", "T1")})
        with pytest.raises(ValueError, match="not transitively closed"):
            validate_diagram(broken)

    @pytest.mark.parametrize("v", EXTERNALS)
    def test_validate_rejects_external_outside_every_cycle_order(self, v):
        # Dropping the one-loop relation between T1 and v leaves a closed, strict order
        # in which no cycle separates v: no internal vertex lies below a Z or above a W.
        d = BoxDiagram()
        broken = Ordered(d.n, d.solid, d.dashed, frozenset(r for r in d.order if set(r) != {"T1", v}))
        validate_diagram(broken._replace(order=d.order))
        with pytest.raises(ValueError, match=f"no internal vertex (below|above) {v}"):
            validate_diagram(broken)


def _random_diagram(rng: random.Random, n: int) -> Ordered:
    """Random solid and dashed multisets (fewer than n dashed edges) and a random acyclic order."""
    vertices = EXTERNALS + tuple(f"T{i}" for i in range(1, n + 1))
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    rank = dict(zip(vertices, rng.sample(range(len(vertices)), len(vertices))))
    return Ordered(
        n=n,
        solid=tuple(sorted(tuple(sorted(rng.choice(pairs))) for _ in range(rng.randint(1, 2 * n)))),
        dashed=tuple(sorted(tuple(sorted(rng.choice(pairs))) for _ in range(rng.randint(0, n - 1)))),
        order=frozenset((a, b) for a in vertices for b in vertices if rank[a] < rank[b] and rng.random() < 0.2),
    )


def _variants(rng: random.Random, d: Ordered) -> list[Ordered]:
    """d under a random relabelling of T1..Tn, with one solid edge made dashed,
    and with one order pair reversed."""
    perm = dict(zip(d.internals, rng.sample(d.internals, d.n)))

    def rn(v: str) -> str:
        return perm.get(v, v)

    out = [Ordered(n=d.n, solid=tuple(sorted(tuple(sorted((rn(a), rn(b)))) for a, b in d.solid)),
                   dashed=tuple(sorted(tuple(sorted((rn(a), rn(b)))) for a, b in d.dashed)),
                   order=frozenset((rn(a), rn(b)) for a, b in d.order))]
    if len(d.dashed) < d.n - 1:
        out.append(d._replace(solid=d.solid[1:], dashed=tuple(sorted(d.dashed + d.solid[:1]))))
    if d.order:
        a, b = min(d.order)
        out.append(d._replace(order=d.order - {(a, b)} | {(b, a)}))
    return out


class TestCanonicalKey:
    def test_stable_for_one_loop(self):
        assert canonical_key(BoxDiagram()) == canonical_key(BoxDiagram())

    def test_internal_relabeling_invariance(self):
        ladder3 = from_history(("Z2", "Z2"))
        # Rebuild the same diagram with a different construction order of
        # internal labels: attaching W2 twice produces the same class.
        other = from_history(("W2", "W2"))
        assert canonical_key(ladder3) == canonical_key(other)

    def test_matches_brute_force_key(self):
        # Every child attempted while enumerating up to five loops: two
        # children get equal keys exactly when their brute-force keys are equal.
        for n in range(1, 5):
            children = [attach_slingshot(d, s) for d in enumerate_diagrams(n) for s in EXTERNALS]
            keys = [canonical_key(c) for c in children]
            brute = [brute_force_key(c) for c in children]
            for i in range(len(children)):
                for j in range(i):
                    assert (keys[i] == keys[j]) == (brute[i] == brute[j]), \
                        (children[i].history, children[j].history)

    def test_matches_refinement_oracle(self):
        # The one-loop seed and every child attempted while enumerating up to
        # seven loops, so every class up to eight loops: two keys are equal
        # exactly when their refinement-oracle keys are equal.  This covers
        # all 4^(n-1) histories up to MAX_LOOPS: the key of h + (s,) depends
        # only on the key of h and on s (the later runs alternate between the
        # two pairs, so the key gives the last run's pair), and attaching a
        # slingshot to isomorphic diagrams gives isomorphic diagrams; so by
        # induction each history has a child tried here with its key and its
        # class.
        diagrams_seen = [BoxDiagram()]
        diagrams_seen += [attach_slingshot(d, s) for n in range(1, MAX_LOOPS) for d in enumerate_diagrams(n)
                          for s in EXTERNALS]
        assert len(diagrams_seen) == 4485
        keys = [canonical_key(d) for d in diagrams_seen]
        oracle = [refinement_key(d) for d in diagrams_seen]
        assert len(set(keys)) == len(set(oracle)) == len(set(zip(keys, oracle)))

    def test_refinement_oracle_matches_brute_force_key_on_random_diagrams(self):
        # The proof above rests on the refinement oracle.  Unlike enumerated
        # diagrams, these have colour cells that refinement cannot split, and
        # variants that differ only in one pair's relation.
        rng = random.Random(11)
        found = []
        for _ in range(200):
            d = _random_diagram(rng, rng.randint(1, 4))
            found += [d, *_variants(rng, d)]
        # Two labellings of one ring through four internal vertices, which
        # refinement leaves in one cell.
        for ring in (("T1", "T2", "T3", "T4"), ("T1", "T3", "T2", "T4")):
            edges = (tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1]))
            found.append(Ordered(n=4, solid=tuple(sorted(edges)), dashed=(), order=frozenset()))
        keys = [refinement_key(d) for d in found]
        brute = [brute_force_key(d) for d in found]
        assert len(set(keys)) == len(set(brute)) == len(set(zip(keys, brute)))

    def test_refuses_diagram_without_its_history(self):
        # A diagram is its history: the type has no other field to set, so the key, which reads
        # the history alone, keys every diagram there is.
        d = from_history(("Z2", "W1"))
        assert BoxDiagram._fields == ("history",)
        with pytest.raises(TypeError):
            BoxDiagram(n=d.n, solid=d.solid, dashed=d.dashed, history=d.history)
        with pytest.raises(ValueError):
            d._replace(solid=d.solid[:-1])
        again = BoxDiagram(list(d.history))
        assert again == d and canonical_key(again) == canonical_key(d)
        assert (again.n, again.solid, again.dashed, again.order) == (d.n, d.solid, d.dashed, d.order)

    def test_size_limit(self):
        d = BoxDiagram()
        for _ in range(MAX_LOOPS):
            d = attach_slingshot(d, "Z2")
        assert d.n == MAX_LOOPS + 1 == 9
        with pytest.raises(ValueError):
            canonical_key(d)


@pytest.fixture(scope="module")
def class_counts():
    """len(enumerate_diagrams(n)) for every n <= MAX_LOOPS, enumerated once: n = 8 takes about 0.025 s."""
    return {n: len(enumerate_diagrams(n)) for n in range(1, MAX_LOOPS + 1)}


class TestEnumeration:
    def test_counts(self, class_counts):
        # n = 2 is the stated count; the higher counts are regression
        # values recorded from exhaustive attachment with deduplication.
        # They follow OEIS A006012, a(n) = 4 a(n-1) - 2 a(n-2).
        assert class_counts == {1: 1, 2: 2, 3: 6, 4: 20, 5: 68, 6: 232, 7: 792, 8: 2704}

    def test_closed_count_matches_enumeration(self, class_counts):
        # verify_magic reports the closed count; enumeration is the proof, n <= MAX_LOOPS.
        assert {n: verify_magic(n, 0).diagram_count for n in class_counts} == class_counts

    def test_calls_through_module_names(self, monkeypatch):
        # The span tracer of the benchmark wraps canonical_key and
        # attach_slingshot in the module; enumeration must call them there,
        # once per attempted child and once for the one-loop seed.
        calls = {"canonical_key": 0, "attach_slingshot": 0}
        for name in calls:
            def counted(*args, _fn=getattr(diagrams, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(diagrams, name, counted)
        assert len(enumerate_diagrams(6)) == 232
        assert calls == {"canonical_key": 1 + 4 * (1 + 2 + 6 + 20 + 68), "attach_slingshot": 388}

    def test_invariants_and_external_degree_property(self):
        # At every external vertex the solid count exceeds the dashed
        # count by exactly one.
        for n in (1, 2, 3, 4):
            for d in enumerate_diagrams(n):
                validate_diagram(d)
                for v in EXTERNALS:
                    assert net_degree(d, v) == 1
                assert len(d.solid) == 3 * n + 1
                assert len(d.dashed) == n - 1

    def test_deterministic_order(self):
        a = [d.history for d in enumerate_diagrams(3)]
        b = [d.history for d in enumerate_diagrams(3)]
        assert a == b

    def test_representatives_unchanged(self):
        # SHA-256 of the sorted representative histories, recorded when
        # canonical_key still tried all n! relabellings and the output was
        # sorted by key: the first diagram found in each class is kept.
        pinned = {
            1: "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
            2: "b2d40088e9e0ea4525d474630aa95f34b1727046e33d3f2ec4c489aca9394438",
            3: "5570f2c6992e470c22a935454e298966e1a73477093dc77f95ea226164907ff7",
            4: "ce61f4c06ef82265256454b77b88fa0539388b39395b15b4a4cb0600c676e28c",
            5: "b88a1b348c4da8477251da82d18e1b37cbd0f055f7f89e90ce7d890e25e5a4dc",
            6: "b5d94989b4bcc41b44c3da0623b0a3ac1635595beec116544a91535ae04c1d49",
        }
        for n, digest in pinned.items():
            histories = sorted(d.history for d in enumerate_diagrams(n))
            assert hashlib.sha256(repr(histories).encode()).hexdigest() == digest, n

    def test_range_validation(self):
        with pytest.raises(ValueError):
            enumerate_diagrams(0)
        with pytest.raises(ValueError):
            enumerate_diagrams(MAX_LOOPS + 1)


class TestDot:
    def test_export_shape(self):
        d = attach_slingshot(BoxDiagram(), "W2")
        dot = to_dot(d, "g")
        assert dot.startswith("graph g {")
        assert '"Z1" [shape=box];' in dot
        assert '"T2" [shape=circle, style=filled];' in dot
        assert '[style=dashed]' in dot
        assert dot == to_dot(d, "g")

    def test_history_round_trip(self):
        d = from_history(("W2", "Z1", "W1"))
        assert d.history == ("W2", "Z1", "W1")
        validate_diagram(d)
