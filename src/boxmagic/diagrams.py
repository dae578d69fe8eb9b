"""Box diagrams: construction, cycle order, enumeration.

A box diagram has four external vertices Z1, Z2, W1, W2 and n internal
vertices T1..Tn.  The one-loop diagram joins T1 to all four externals;
larger diagrams are built by attaching "slingshots": the external vertex
at the chosen site becomes internal (keeping its edges), a fresh external
takes over the site label with one new solid edge (the handle), two new
solid edges run to the two site-adjacent externals (the arms) and one new
dashed edge joins those adjacent externals (the string).  So a diagram is
its history, the sequence of sites (`BoxDiagram`), and its edges are a
replay of it (`_edges`).

The strict partial order that prescribes how the integration cycles nest
(`BoxDiagram.order`) is one chain, W1, W2 < T's < Z1, Z2: a slingshot at
a Z site puts its new vertex at the top, one at a W site at the bottom.
It is the closure of the letter rule: each solid edge puts its endpoint
that turned internal first above the other endpoint if that one is a W
and below it if a Z; T_j (j >= 2) keeps the letter of the site it held.
By induction the top of the chain has solid edges to Z1 and Z2, and its
bottom to W1 and W2: so a Z site's vertex lies above the old top, its
handle and arms put it below both Z's (a W site's likewise at the
bottom), and the edges at the other end stay.

Solid edges stand for 1/N(Yi - Yj) factors of the diagram's rational
integrand, dashed edges for N(Yi - Yj); both edge sets are multisets.
Internal labels are interchangeable: diagrams differing by a
permutation of T1..Tn are identified, externals stay fixed.  A diagram's
class is read off its history (`canonical_key`): the sites that share
their arms, Z1 and W1 or Z2 and W2, come in runs.  Diagrams are keyed
and enumerated up to MAX_LOOPS loops.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby

__all__ = [
    "EXTERNALS",
    "ADJACENT",
    "MAX_LOOPS",
    "BoxDiagram",
    "attach_slingshot",
    "from_history",
    "canonical_key",
    "enumerate_diagrams",
    "to_dot",
]

EXTERNALS = ("Z1", "Z2", "W1", "W2")

# Most loops keyed and enumerated: the range over which the tests prove
# canonical_key.  enumerate_diagrams(8) takes about 0.025 s (2704 classes),
# 0.09 s with to_dot of every class (best of 7, one process, 2 cores).
MAX_LOOPS = 8

# The two externals receiving the slingshot arms (and the dashed string)
# when attaching at a given site; fixed so that attaching at W2 or Z2
# reproduces the two-loop ladder integrand factor list.
ADJACENT = {
    "Z1": ("Z2", "W2"),
    "Z2": ("Z1", "W1"),
    "W1": ("Z2", "W2"),
    "W2": ("Z1", "W1"),
}


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@lru_cache(maxsize=1)
def _edges(history: tuple[str, ...]) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """(solid, dashed) of this history, sorted tuples of sorted pairs, kept for the reads of solid and then dashed.

    Each vertex is a one-item name cell shared by its edges, so the external turning internal renames them at once.
    """
    cell = {v: [v] for v in EXTERNALS}
    solid, dashed = [(["T1"], cell[v]) for v in EXTERNALS], []
    for j, site in enumerate(history, start=2):
        t = cell[site]
        t[0], cell[site] = f"T{j}", [site]
        adj1, adj2 = (cell[v] for v in ADJACENT[site])
        solid += [(cell[site], t), (t, adj1), (t, adj2)]   # handle to the fresh external, arms
        dashed.append((adj1, adj2))                        # string
    return tuple(tuple(sorted(_edge(a[0], b[0]) for a, b in edges)) for edges in (solid, dashed))


class BoxDiagram(namedtuple("BoxDiagram", "history")):
    """The box diagram that slingshots at the sites `history`, in order, build from the one-loop diagram.

    Its n = len(history) + 1 loops, edge multisets (sorted tuples of sorted vertex pairs) and cycle
    order are read off the history; the constructor refuses any site that is not one of EXTERNALS.
    """

    __slots__ = ()

    def __new__(cls, history: tuple[str, ...] = ()):
        return cls._make((history,))

    @classmethod
    def _make(cls, iterable):
        """namedtuple's `_make`, which the constructor and `_replace` call: it refuses any site that is not
        one of EXTERNALS, so no construction path skips the check."""
        (history,) = iterable
        history = tuple(history)
        for site in history:
            if site not in EXTERNALS:
                raise ValueError(f"site must be one of {EXTERNALS}, got {site!r}")
        return tuple.__new__(cls, (history,))

    @property
    def n(self) -> int:
        return len(self.history) + 1

    @property
    def internals(self) -> tuple[str, ...]:
        return tuple(f"T{i}" for i in range(1, self.n + 1))

    @property
    def solid(self) -> tuple[tuple[str, str], ...]:
        return _edges(self.history)[0]

    @property
    def dashed(self) -> tuple[tuple[str, str], ...]:
        return _edges(self.history)[1]

    @property
    def order(self) -> frozenset[tuple[str, str]]:
        """The strict partial order, a frozenset of pairs: W1, W2 < the chain of T's < Z1, Z2 (module docstring)."""
        sites = tuple(zip(self.internals[1:], self.history))
        chain = [t for t, s in reversed(sites) if s[0] == "W"] + ["T1"] + [t for t, s in sites if s[0] == "Z"]
        levels = [("W1", "W2"), *((t,) for t in chain), ("Z1", "Z2")]
        return frozenset((a, b) for i, low in enumerate(levels) for high in levels[i + 1:] for a in low for b in high)


def attach_slingshot(d: BoxDiagram, site: str) -> BoxDiagram:
    """Attach a slingshot at one of the four external sites.

    The external at `site` becomes the internal vertex T_{n+1}, keeping
    its incident edges and order relations; the fresh external takes the
    site label.
    """
    return BoxDiagram(d.history + (site,))


def from_history(history: tuple[str, ...]) -> BoxDiagram:
    """Rebuild a diagram from its attachment-site sequence."""
    return BoxDiagram(history)


def canonical_key(d: BoxDiagram):
    """Isomorphism-class key read off the attachment history; equal keys iff isomorphic.

    Sites Z1 and W1 put their arms and string on (Z2, W2), sites Z2 and W2
    on (Z1, W1).  The history is cut into runs of consecutive sites that
    share that pair; the key is the first run's pair and length, then
    (length, number of Z sites) for each later run, and () for the one-loop
    diagram.  It is proved against the refinement oracle for every history
    up to MAX_LOOPS loops (tests), so larger diagrams are refused.
    """
    if d.n > MAX_LOOPS:
        raise ValueError(f"canonical_key supports at most {MAX_LOOPS} internal vertices")
    if not d.history:
        return ()
    first, *later = (list(run) for _, run in groupby(d.history, ADJACENT.get))
    return (ADJACENT[first[0]], len(first),
            tuple((len(run), sum(site[0] == "Z" for site in run)) for run in later))


def enumerate_diagrams(n: int) -> list[BoxDiagram]:
    """All distinct n-loop diagrams, one representative per isomorphism class.

    Breadth-first over the four attachment sites with canonical-key
    deduplication.  Each class is represented by the first diagram
    found in it, and the classes are returned in discovery order, which
    is deterministic.
    """
    if n < 1:
        raise ValueError("loop count must be >= 1")
    if n > MAX_LOOPS:
        raise ValueError(f"enumeration supports at most {MAX_LOOPS} loops")
    start = BoxDiagram()
    current = {canonical_key(start): start}
    for _ in range(n - 1):
        nxt: dict[object, BoxDiagram] = {}
        for d in current.values():
            for site in EXTERNALS:
                child = attach_slingshot(d, site)
                key = canonical_key(child)
                if key not in nxt:
                    nxt[key] = child
        current = nxt
    return list(current.values())


def to_dot(d: BoxDiagram, name: str) -> str:
    """DOT rendering: boxed externals, filled internals, dashed strings."""
    lines = [f"graph {name} {{"]
    for v in EXTERNALS:
        lines.append(f'  "{v}" [shape=box];')
    for v in d.internals:
        lines.append(f'  "{v}" [shape=circle, style=filled];')
    for (a, b) in d.solid:
        lines.append(f'  "{a}" -- "{b}";')
    for (a, b) in d.dashed:
        lines.append(f'  "{a}" -- "{b}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
