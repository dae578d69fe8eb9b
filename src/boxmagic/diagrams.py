"""Box diagrams: construction, partial order, enumeration.

A box diagram has four external vertices Z1, Z2, W1, W2 and n internal
vertices T1..Tn.  The one-loop diagram joins a single internal vertex to
all four externals; larger diagrams are built by attaching "slingshots":
the external vertex at the chosen site becomes internal (keeping its
edges and order relations), a fresh external takes over the site label
with one new solid edge (the handle), two new solid edges run to the
two site-adjacent externals (the arms) and one new dashed edge joins
those adjacent externals (the string).  Each attachment also adds order
relations, so the strict partial order prescribes how the integration
cycles must be nested.  The order is kept transitively closed, one
vertex at a time: the parent's order is closed and every new relation
touches the new internal vertex, so the attachment adds only the pairs
that pass through it (see `_close_at`).

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
from itertools import chain, groupby, product

__all__ = [
    "EXTERNALS",
    "ADJACENT",
    "MAX_LOOPS",
    "BoxDiagram",
    "one_loop",
    "attach_slingshot",
    "from_history",
    "canonical_key",
    "enumerate_diagrams",
    "to_dot",
]

EXTERNALS = ("Z1", "Z2", "W1", "W2")

# Most loops keyed and enumerated: the range over which the tests prove
# canonical_key; enumerate_diagrams(8) takes about 0.5 s (2704 classes).
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

# Order relations added by an attachment, with "T" the fresh internal
# vertex: site Z1 gives W2 < T < Z1, Z2; site Z2 gives W1 < T < Z1, Z2;
# site W1 gives W1, W2 < T < Z2; site W2 gives W1, W2 < T < Z1.
_NEW_RELATIONS = {
    "Z1": (("W2", "T"), ("T", "Z1"), ("T", "Z2")),
    "Z2": (("W1", "T"), ("T", "Z1"), ("T", "Z2")),
    "W1": (("W1", "T"), ("W2", "T"), ("T", "Z2")),
    "W2": (("W1", "T"), ("W2", "T"), ("T", "Z1")),
}


def _close_at(order, t: str, new) -> frozenset[tuple[str, str]]:
    """Closure of the closed `order` plus `new`, whose relations all touch t.

    It adds Down x {t}, {t} x Up and Down x Up: Down is the old and new
    predecessors of t and everything below the new ones, Up likewise above.
    """
    down = {a for (a, b) in new if b == t}
    up = {b for (a, b) in new if a == t}
    down |= {a for (a, b) in order if b == t or b in down}
    up |= {b for (a, b) in order if a == t or a in up}
    return frozenset(chain(order, ((a, t) for a in down), ((t, b) for b in up), product(down, up)))


class BoxDiagram(namedtuple("BoxDiagram", "n solid dashed order history", defaults=((),))):
    """An n-loop box diagram with its construction history.

    `solid` and `dashed` are edge multisets stored as sorted tuples of
    sorted vertex pairs; `order` is the transitively closed strict
    partial order, a frozenset of pairs; `history` records the slingshot
    attachment sites in construction order (empty for the one-loop diagram).
    """

    __slots__ = ()

    @property
    def internals(self) -> tuple[str, ...]:
        return tuple(f"T{i}" for i in range(1, self.n + 1))


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def one_loop() -> BoxDiagram:
    """The one-loop diagram: T1 joined to all four externals, W1, W2 < T1 < Z1, Z2."""
    solid = tuple(sorted(_edge("T1", v) for v in EXTERNALS))
    order = _close_at(frozenset(), "T1", (("W1", "T1"), ("W2", "T1"), ("T1", "Z1"), ("T1", "Z2")))
    return BoxDiagram(n=1, solid=solid, dashed=(), order=order, history=())


def attach_slingshot(d: BoxDiagram, site: str) -> BoxDiagram:
    """Attach a slingshot at one of the four external sites.

    The external at `site` becomes the internal vertex T_{n+1}, keeping
    its incident edges and order relations; the fresh external takes the
    site label.
    """
    if site not in EXTERNALS:
        raise ValueError(f"site must be one of {EXTERNALS}, got {site!r}")
    t_new = f"T{d.n + 1}"

    def rename(v: str) -> str:
        return t_new if v == site else v

    solid = [_edge(rename(a), rename(b)) for (a, b) in d.solid]
    dashed = [_edge(rename(a), rename(b)) for (a, b) in d.dashed]
    order = {(rename(a), rename(b)) for (a, b) in d.order}
    new = [(t_new if a == "T" else a, t_new if b == "T" else b) for (a, b) in _NEW_RELATIONS[site]]

    adj1, adj2 = ADJACENT[site]
    solid.append(_edge(site, t_new))          # handle to the fresh external
    solid.append(_edge(t_new, adj1))          # arms
    solid.append(_edge(t_new, adj2))
    dashed.append(_edge(adj1, adj2))          # string

    return BoxDiagram(
        n=d.n + 1,
        solid=tuple(sorted(solid)),
        dashed=tuple(sorted(dashed)),
        order=_close_at(order, t_new, new),
        history=d.history + (site,),
    )


def from_history(history: tuple[str, ...]) -> BoxDiagram:
    """Rebuild a diagram from its attachment-site sequence."""
    d = one_loop()
    for site in history:
        d = attach_slingshot(d, site)
    return d


def canonical_key(d: BoxDiagram):
    """Isomorphism-class key read off the attachment history; equal keys iff isomorphic.

    Sites Z1 and W1 put their arms and string on (Z2, W2), sites Z2 and W2
    on (Z1, W1).  The history is cut into runs of consecutive sites that
    share that pair; the key is the first run's pair and length, then
    (length, number of Z sites) for each later run, and () for the one-loop
    diagram.  It is proved against the refinement oracle for every history
    up to MAX_LOOPS loops (tests), so larger diagrams are refused, and so
    are diagrams without a full history (one site per loop after the first).
    """
    if d.n > MAX_LOOPS:
        raise ValueError(f"canonical_key supports at most {MAX_LOOPS} internal vertices")
    if len(d.history) != d.n - 1:
        raise ValueError(f"canonical_key needs the attachment history: {d.n} loops, {len(d.history)} sites")
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
    current = {canonical_key(one_loop()): one_loop()}
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
