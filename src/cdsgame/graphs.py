"""Finite simple graphs and the gcds edge-pivot transformations.

Vertex labels are arbitrary hashable values; generated graphs label vertices
with ints, graphs read from JSON with strings.  All deterministic orderings
sort ints numerically before strings lexicographically.

``apply_gcds(g, {x, y})`` pivots the graph at an edge {x, y}.  Build the
*master list* of the move: column_x = N(x) \\ {y} and column_y = N(y) \\ {x}.
Its members fall into three classes: N(x) \\ N(y), N(y) \\ N(x) and
N(x) & N(y), with x and y left out.  The pivot toggles every pair of vertices
that lie in two different classes, isolates x and y, and keeps every other
pair as it was.  This is the edge pivot of Bouchet and of Oum (*Rank-width
and vertex-minors*, 2005).  The master-list case rules (a pair with both
vertices in the list toggles when no column holds both, or when their column
memberships add up to an odd number) give the same graph; the tests keep them
as the reference implementation.

``apply_gcds2`` performs the same pivot and then deletes the pivot pair
together with every master-list vertex left isolated — except that the sole
member of a one-element master list survives.  Vertices outside the move are
never deleted, isolated or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Mapping

from .cyclegraph import SizeBoundError

__all__ = [
    "NotAnEdgeError",
    "Graph",
    "MasterList",
    "Position",
    "label_key",
    "key_label",
    "masterlist",
    "apply_gcds",
    "apply_gcds2",
    "are_isomorphic",
    "positions_isomorphic",
]

Label = Hashable


class NotAnEdgeError(Exception):
    """Raised when a gcds move is requested for a vertex pair with no edge."""


def label_key(v: Label):
    """Sort key putting int labels first (numeric), then others by string."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v, "")
    return (1, 0, str(v))


# State keys and cache files use these characters as separators.
_KEY_FORBIDDEN = frozenset("|,-\t\n ")


def key_label(v: Label) -> str:
    """``str(v)``, checked to be usable inside a solver state key."""
    s = str(v)
    if not s or _KEY_FORBIDDEN.intersection(s):
        raise ValueError(f"vertex label {v!r} cannot be used in a cache key")
    return s


class Graph:
    """Immutable undirected simple graph (no loops, no multi-edges)."""

    __slots__ = ("vertices", "edges", "_adj", "_hash", "_key")

    vertices: frozenset
    edges: frozenset

    def __init__(self, vertices: Iterable[Label], edges: Iterable = ()):
        vs = frozenset(vertices)
        es = set()
        for edge in edges:
            a, b = edge
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            if a not in vs or b not in vs:
                raise ValueError(f"edge {{{a!r}, {b!r}}} has an endpoint outside the vertex set")
            es.add(frozenset((a, b)))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(es))
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vertices, self.edges))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Graph({self.vertex_list()}, {self.edge_list()})"

    def n_vertices(self) -> int:
        return len(self.vertices)

    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> Mapping[Label, frozenset]:
        adj = self._adj
        if adj is None:
            grow: dict[Label, set] = {v: set() for v in self.vertices}
            for edge in self.edges:
                a, b = edge
                grow[a].add(b)
                grow[b].add(a)
            adj = {v: frozenset(nb) for v, nb in grow.items()}
            object.__setattr__(self, "_adj", adj)
        return adj

    def neighbors(self, v: Label) -> frozenset:
        return self.adjacency()[v]

    def degree(self, v: Label) -> int:
        return len(self.adjacency()[v])

    def has_edge(self, a: Label, b: Label) -> bool:
        return frozenset((a, b)) in self.edges

    def is_isolated(self, v: Label) -> bool:
        return not self.adjacency()[v]

    def isolated_vertices(self) -> frozenset:
        return frozenset(v for v in self.vertices if not self.adjacency()[v])

    def vertex_list(self) -> list:
        return sorted(self.vertices, key=label_key)

    def edge_list(self) -> list[tuple]:
        pairs = [tuple(sorted(e, key=label_key)) for e in self.edges]
        pairs.sort(key=lambda pair: (label_key(pair[0]), label_key(pair[1])))
        return pairs

    def key_text(self) -> str:
        """``vertices|edges`` as the solver's state keys write them, rendered
        on first use and kept; a label :func:`key_label` rejects raises every
        time."""
        text = self._key
        if text is None:
            vs = ",".join(key_label(v) for v in self.vertex_list())
            es = ",".join(f"{key_label(a)}-{key_label(b)}" for a, b in self.edge_list())
            text = f"{vs}|{es}"
            object.__setattr__(self, "_key", text)
        return text

    def without_vertices(self, doomed: Iterable[Label]) -> "Graph":
        gone = frozenset(doomed)
        keep = self.vertices - gone
        edges = [e for e in self.edges if not (e & gone)]
        return Graph(keep, edges)

    def relabel(self, mapping: Mapping[Label, Label]) -> "Graph":
        return Graph(
            (mapping[v] for v in self.vertices),
            ((mapping[a], mapping[b]) for a, b in self.edge_list()),
        )


@dataclass(frozen=True)
class MasterList:
    """The two columns of a gcds move at the ordered pair (x, y)."""

    column_x: frozenset
    column_y: frozenset

    def members(self) -> frozenset:
        return self.column_x | self.column_y


def _check_edge(g: Graph, edge) -> tuple[Label, Label]:
    try:
        x, y = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge must be a pair of vertices, got {edge!r}") from None
    if not g.has_edge(x, y):
        raise NotAnEdgeError(f"{{{x!r}, {y!r}}} is not an edge of the graph")
    return x, y


def masterlist(g: Graph, edge) -> MasterList:
    """Master list at the ordered pair (x, y); columns follow the pair order."""
    x, y = _check_edge(g, edge)
    adj = g.adjacency()
    return MasterList(
        column_x=adj[x] - {y},
        column_y=adj[y] - {x},
    )


def _pivot(g: Graph, edge) -> tuple[Label, Label, frozenset, set]:
    """The pivot pair, the master-list members and the pivoted edge set.

    The columns split the members into three classes, N(x) \\ N(y),
    N(y) \\ N(x) and N(x) & N(y) (x and y left out); every pair that crosses
    two classes toggles, and every edge at x or y goes.
    """
    ml = masterlist(g, edge)  # the one check that edge is an edge
    x, y = edge
    cx, cy = ml.column_x, ml.column_y
    edges = {e for e in g.edges if x not in e and y not in e}
    for a, b in combinations((cx - cy, cy - cx, cx & cy), 2):
        edges.symmetric_difference_update(frozenset((p, q)) for p in a for q in b)
    return x, y, ml.members(), edges


def apply_gcds(g: Graph, edge) -> Graph:
    """Pivot at an edge; the vertex set is unchanged and x, y end up isolated."""
    *_, edges = _pivot(g, edge)
    return Graph(g.vertices, edges)


def apply_gcds2(g: Graph, edge) -> Graph:
    """Pivot, then delete the pivot pair and the isolated master-list vertices.

    A one-element master list is the exception: its sole member survives even
    when isolated.  Vertices outside the move always survive.
    """
    x, y, members, edges = _pivot(g, edge)
    keep = g.vertices - {x, y}
    if len(members) > 1:
        keep -= members.difference(*edges)
    return Graph(keep, edges)


# ---------------------------------------------------------------------------
# Isomorphism by invariant-pruned backtracking.

_ISO_MAX_VERTICES = 30


def _invariants(g: Graph, tag: Mapping[Label, object] | None) -> dict[Label, tuple]:
    adj = g.adjacency()
    out = {}
    for v in g.vertices:
        degs = tuple(sorted(len(adj[u]) for u in adj[v]))
        extra = tag[v] if tag is not None else None
        out[v] = (len(adj[v]), degs, extra)
    return out


def _find_isomorphism(
    g1: Graph,
    g2: Graph,
    tag1: Mapping[Label, object] | None = None,
    tag2: Mapping[Label, object] | None = None,
) -> dict | None:
    if g1.n_vertices() != g2.n_vertices() or g1.n_edges() != g2.n_edges():
        return None
    if max(g1.n_vertices(), g2.n_vertices()) > _ISO_MAX_VERTICES:
        raise SizeBoundError(
            f"isomorphism search limited to {_ISO_MAX_VERTICES} vertices"
        )
    inv1 = _invariants(g1, tag1)
    inv2 = _invariants(g2, tag2)
    if sorted(inv1.values()) != sorted(inv2.values()):
        return None

    by_inv: dict[tuple, list] = {}
    for u in g2.vertices:
        by_inv.setdefault(inv2[u], []).append(u)
    for group in by_inv.values():
        group.sort(key=label_key)

    # Most-constrained vertices first keeps the branching factor small.
    order = sorted(
        g1.vertices, key=lambda v: (len(by_inv[inv1[v]]), -inv1[v][0], label_key(v))
    )
    adj1 = g1.adjacency()
    adj2 = g2.adjacency()
    mapping: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for u in by_inv[inv1[v]]:
            if u in used:
                continue
            ok = True
            for w, t in mapping.items():
                if (w in adj1[v]) != (t in adj2[u]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = u
            used.add(u)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(u)
        return False

    if not extend(0):
        return None
    # Paranoia: a returned mapping must preserve edges in both directions.
    assert all(g2.has_edge(mapping[a], mapping[b]) for a, b in g1.edge_list())
    back = {u: v for v, u in mapping.items()}
    assert all(g1.has_edge(back[a], back[b]) for a, b in g2.edge_list())
    return dict(mapping)


def are_isomorphic(g1: Graph, g2: Graph) -> dict | None:
    """A vertex bijection carrying edges to edges both ways, or None."""
    return _find_isomorphism(g1, g2)


@dataclass(frozen=True)
class Position:
    """A graph together with the favorable vertex set A of the gcds game."""

    graph: Graph
    favorable: frozenset

    def __post_init__(self):
        if not self.favorable <= self.graph.vertices:
            stray = sorted(self.favorable - self.graph.vertices, key=label_key)
            raise ValueError(f"favorable vertices {stray} are not in the graph")


def positions_isomorphic(p1: Position, p2: Position) -> dict | None:
    """Graph isomorphism that maps favorable vertices exactly onto favorable."""
    if len(p1.favorable) != len(p2.favorable):
        return None
    tag1 = {v: v in p1.favorable for v in p1.graph.vertices}
    tag2 = {v: v in p2.favorable for v in p2.graph.vertices}
    return _find_isomorphism(p1.graph, p2.graph, tag1, tag2)
