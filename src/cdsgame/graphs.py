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

A :class:`Graph` is stored as bit masks over a *universe* that numbers the
labels in ``label_key`` order: an ``alive`` mask of its vertices and one
adjacency mask (row) per label.  Its label views (vertex and edge sets,
adjacency, the sorted lists) are read off the masks.  As masks each class of
a pivot is one AND/AND-NOT of the rows of x and y, and each class member's
row toggles against the union of the other two classes.  A pivot builds its
graph from the masks over the parent's universe, without the validating
constructor; the gcds solver plays on these graphs and renders its state
keys from the bits (:meth:`Graph.key_text`).  Universes are equal when
their labels are, type by type, and graphs over equal universes compare by
their bits.  The isomorphism search reads the same rows, with a position's
favorable set as a colour mask.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, Mapping

from .permutations import SizeBoundError
from .record import Record

__all__ = [
    "NotAnEdgeError",
    "Graph",
    "MasterList",
    "Position",
    "label_key",
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
    """Sort key putting int labels first (numeric), then others by string;
    labels with one string (None and "None") order by type name, then by
    ``repr``."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v, "")
    return (1, 0, str(v), type(v).__name__, repr(v))


# State keys and cache files use these characters as separators.
_KEY_FORBIDDEN = frozenset("|,-\t\n ")


def _is_key_text(s: str) -> bool:
    return bool(s) and not _KEY_FORBIDDEN.intersection(s)


class Graph:
    """Immutable undirected simple graph (no loops, no multi-edges).

    Bit i of ``alive`` is set when ``universe.labels[i]`` is a vertex, and
    ``rows[i]`` is the mask of its neighbours (0 when it is not).  A graph
    built by the constructor has a universe of its own labels; a pivot's
    graph keeps its parent's.  The label views (``vertices``, ``edges``,
    ``adjacency()`` and the sorted lists) are read off the masks; the two
    label sets and the key text are built on first use and kept, and so is
    the text of the last label mask asked for (:meth:`_mask_text`)."""

    __slots__ = ("alive", "rows", "universe", "_text", "_sets", "_masked")

    def __init__(self, vertices: Iterable[Label], edges: Iterable = ()):
        universe = _Universe(frozenset(vertices))
        index = universe.index
        rows = [0] * len(index)
        for edge in edges:
            a, b = edge
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            if a not in index or b not in index:
                raise ValueError(f"edge {{{a!r}, {b!r}}} has an endpoint outside the vertex set")
            i, j = index[a], index[b]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        _fill(self, (1 << len(rows)) - 1, tuple(rows), universe)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # Rebuilt through the validating constructor, over its own labels.
        return Graph, (tuple(self.vertex_list()), tuple(self.edge_list()))

    def _label_sets(self) -> tuple:
        sets = self._sets
        if sets is None:
            sets = (self.universe.labels_in(self.alive),
                    frozenset(map(frozenset, self.edge_list())))
            _set_sets(self, sets)
        return sets

    @property
    def vertices(self) -> frozenset:
        return self._label_sets()[0]

    @property
    def edges(self) -> frozenset:
        return self._label_sets()[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return False
        if self.universe == other.universe:  # bits mean the same labels
            return self.alive == other.alive and self.rows == other.rows
        return self._label_sets() == other._label_sets()

    def __hash__(self) -> int:
        return hash(self._label_sets())

    def __repr__(self) -> str:
        return f"Graph({self.vertex_list()}, {self.edge_list()})"

    def n_vertices(self) -> int:
        return self.alive.bit_count()

    def n_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def adjacency(self) -> dict[Label, frozenset]:
        """Each vertex's neighbours, in ``label_key`` order of the vertices."""
        universe, rows = self.universe, self.rows
        return {universe.labels[i]: universe.labels_in(rows[i]) for i in _bits(self.alive)}

    def has_edge(self, a: Label, b: Label) -> bool:
        index = self.universe.index
        i, j = index.get(a), index.get(b)
        return i is not None and j is not None and bool(self.rows[i] >> j & 1)

    def isolated_vertices(self) -> frozenset:
        labels, rows = self.universe.labels, self.rows
        return frozenset([labels[i] for i in _bits(self.alive) if not rows[i]])

    def vertex_list(self) -> list:
        labels = self.universe.labels
        return [labels[i] for i in _bits(self.alive)]

    def edge_list(self) -> list[tuple]:
        """The edges as label pairs (a, b) with a before b, sorted by
        ``label_key`` of a then of b."""
        labels, rows = self.universe.labels, self.rows
        out = []
        m = self.alive
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            a = labels[i]
            up = rows[i] & -(low << 1)  # the neighbours above i
            while up:
                bit = up & -up
                up ^= bit
                out.append((a, labels[bit.bit_length() - 1]))
        return out

    def key_text(self) -> str:
        """``vertices|edges`` as the solver's state keys write them: the
        vertices' key strings in bit order, then ``a-b`` for each edge in
        :meth:`edge_list` order.  Bit order is ``label_key`` order, so this
        is byte for byte the rendering of ``vertex_list()`` and
        ``edge_list()``.  A vertex without a key string (see
        :attr:`_Universe.names`) raises every time."""
        text = self._text
        if text is None:
            names, rows = self.universe.names, self.rows
            vs, es = [], []
            m = self.alive
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                name = names[i]
                vs.append(name)
                up = rows[i] & -(low << 1)
                while up:
                    bit = up & -up
                    up ^= bit
                    es.append(f"{name}-{names[bit.bit_length() - 1]}")
            if None in vs:  # raise for the first label that cannot be keyed
                bad = self.universe.labels[next(i for i in _bits(self.alive) if names[i] is None)]
                raise ValueError(f"vertex label {bad!r} cannot be used in a cache key")
            text = f"{','.join(vs)}|{','.join(es)}"
            _set_text(self, text)
        return text

    def _mask_text(self, mask: int) -> str:
        """``universe.render(mask)``, kept for the last mask asked: a solve
        asks each state it visits for the text of one favorable set's bits."""
        masked = self._masked
        if masked is None or masked[0] != mask:
            masked = (mask, self.universe.render(mask))
            _set_masked(self, masked)
        return masked[1]

    def relabel(self, mapping: Mapping[Label, Label]) -> "Graph":
        return Graph(
            (mapping[v] for v in self.vertex_list()),
            ((mapping[a], mapping[b]) for a, b in self.edge_list()),
        )

    def _pivot_at(self, a: Label, b: Label, prune: bool) -> "Graph":
        """The pivot at the edge {a, b} over this graph's universe, pruned as
        :func:`apply_gcds2` says when ``prune``; the edge is not checked."""
        index = self.universe.index
        x, y = index[a], index[b]
        rows = list(self.rows)
        members = _pivot(rows, x, y)
        alive = self.alive
        if prune:
            alive &= ~(1 << x | 1 << y)
            if members & (members - 1):  # more than one member
                while members:
                    low = members & -members
                    members ^= low
                    if not rows[low.bit_length() - 1]:
                        alive ^= low
        return _fill(_new(Graph), alive, tuple(rows), self.universe)


# A graph's slots are written through their own setters, past __setattr__.
# The pivot makes every solver child this way, and the setters are faster
# than object.__setattr__.
_new = object.__new__
_set_alive, _set_rows, _set_universe, _set_text, _set_sets, _set_masked = (
    Graph.__dict__[name].__set__ for name in Graph.__slots__)


def _fill(g: Graph, alive: int, rows: tuple, universe: "_Universe") -> Graph:
    _set_alive(g, alive)
    _set_rows(g, rows)
    _set_universe(g, universe)
    _set_text(g, None)
    _set_sets(g, None)
    _set_masked(g, None)
    return g


def _from_rows(universe: "_Universe", rows: list) -> Graph:
    """The graph on every label of ``universe`` whose i-th vertex has the
    neighbour mask ``rows[i]``.  The rows must be symmetric and loop-free;
    they are not checked."""
    return _fill(_new(Graph), (1 << len(rows)) - 1, tuple(rows), universe)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Universe:
    """What the bits of a family of graphs stand for: a root graph's labels
    in ``label_key`` order, the label -> bit index map, and each label's key
    string (None where that is empty or holds a key separator).  A label's
    key string is its ``str``, unless two labels of the universe have the
    same ``str`` (1 and "1"): then every label is keyed by its ``repr``, so
    that no two states of the universe share a key.

    Two universes are equal when their labels are, label by label and type
    by type (a universe of 1 and one of True differ).  Graphs over equal
    universes number the same labels alike, whichever root built them, so
    their bits can be compared and keyed as they are.
    """

    __slots__ = ("labels", "index", "_typed", "_hash", "_names", "_masks")

    def __init__(self, vertices: Collection[Label]):
        labels = sorted(vertices, key=label_key)
        self.labels = tuple(labels)
        self.index = dict(zip(labels, range(len(labels))))
        self._typed = tuple([(type(v), v) for v in labels])
        self._hash = hash(self._typed)
        self._names: tuple | None = None
        self._masks: dict[frozenset, int] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Universe) and self._typed == other._typed

    def __hash__(self) -> int:
        return self._hash

    @property
    def names(self) -> tuple:
        """Each label's key string, or None where its ``str`` (or, where
        labels are keyed by ``repr``, its ``str`` or its ``repr``) is empty
        or holds a key separator; made on first use."""
        names = self._names
        if names is None:
            texts = list(map(str, self.labels))
            if len(set(texts)) < len(texts):
                texts = [repr(v) if _is_key_text(s) else s for v, s in zip(self.labels, texts)]
            names = self._names = tuple(s if _is_key_text(s) else None for s in texts)
        return names

    def mask(self, labels: frozenset) -> int:
        """The bits of those of ``labels`` that are in the universe, kept
        for the last set asked: the solvers ask for one favorable set's mask
        at every node."""
        found = self._masks.get(labels)
        if found is None:
            index, found = self.index, 0
            for v in labels:
                i = index.get(v)
                if i is not None:
                    found |= 1 << i
            self._masks = {labels: found}
        return found

    def labels_in(self, mask: int) -> frozenset:
        """The labels of the bits of ``mask``."""
        labels = self.labels
        return frozenset([labels[i] for i in _bits(mask)])

    def render(self, mask: int) -> str:
        """The key strings of the labels in ``mask``, comma-separated, in bit order."""
        names = self.names
        return ",".join([names[i] for i in _bits(mask)])


class MasterList(Record):
    """The two columns of a gcds move at the ordered pair (x, y)."""

    __slots__ = ("column_x", "column_y")

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
    universe, rows = g.universe, g.rows
    i, j = universe.index[x], universe.index[y]
    return MasterList(
        column_x=universe.labels_in(rows[i] & ~(1 << j)),
        column_y=universe.labels_in(rows[j] & ~(1 << i)),
    )


def _pivot(rows: list, x: int, y: int) -> int:
    """Pivot the adjacency masks ``rows`` at the edge {x, y} in place and
    return the master list's members as a mask.

    The columns N(x) \\ {y} and N(y) \\ {x} split the members into three
    classes, N(x) \\ N(y), N(y) \\ N(x) and N(x) & N(y); each member's row
    toggles against the union of the other two classes, and every edge at x
    or y goes.
    """
    bx, by = 1 << x, 1 << y
    assert rows[x] & by, "the pivot pair must be an edge"
    cx, cy = rows[x] ^ by, rows[y] ^ bx
    gone = ~(bx | by)
    for cls, other in ((cx & ~cy, cy), (cy & ~cx, cx), (cx & cy, cx ^ cy)):
        while cls:
            low = cls & -cls
            cls ^= low
            i = low.bit_length() - 1
            rows[i] = (rows[i] ^ other) & gone
    rows[x] = rows[y] = 0
    return cx | cy


def apply_gcds(g: Graph, edge) -> Graph:
    """Pivot at an edge; the vertex set is unchanged and x, y end up isolated."""
    x, y = _check_edge(g, edge)
    return g._pivot_at(x, y, prune=False)


def apply_gcds2(g: Graph, edge) -> Graph:
    """Pivot, then delete the pivot pair and the isolated master-list vertices.

    A one-element master list is the exception: its sole member survives even
    when isolated.  Vertices outside the move always survive.
    """
    x, y = _check_edge(g, edge)
    return g._pivot_at(x, y, prune=True)


# ---------------------------------------------------------------------------
# Isomorphism by invariant-pruned backtracking on the rows.  A vertex is its
# bit index and a position's favorable set is one more colour mask.  A
# candidate u for v fits when u's row meets the images so far exactly in the
# images of v's mapped neighbours.

_ISO_MAX_VERTICES = 30


def _find_isomorphism(g1: Graph, g2: Graph, fav1: int = 0, fav2: int = 0) -> dict | None:
    if g1.n_vertices() != g2.n_vertices() or g1.n_edges() != g2.n_edges():
        return None
    if max(g1.n_vertices(), g2.n_vertices()) > _ISO_MAX_VERTICES:
        raise SizeBoundError(
            f"isomorphism search limited to {_ISO_MAX_VERTICES} vertices"
        )
    rows1, rows2 = g1.rows, g2.rows
    invs = []
    for g, fav in ((g1, fav1), (g2, fav2)):
        # Bit i's invariant: degree, sorted neighbour degrees, colour.
        deg = [row.bit_count() for row in g.rows]
        invs.append({i: (deg[i], tuple(sorted([deg[j] for j in _bits(g.rows[i])])), fav >> i & 1)
                     for i in _bits(g.alive)})
    inv1, inv2 = invs
    if sorted(inv1.values()) != sorted(inv2.values()):
        return None

    by_inv: dict[tuple, list] = {}
    for u, inv in inv2.items():  # bit order, so each group is sorted
        by_inv.setdefault(inv, []).append(u)

    # Most-constrained vertices first keeps the branching factor small.
    order = sorted(inv1, key=lambda v: (len(by_inv[inv1[v]]), -inv1[v][0], v))
    groups = [by_inv[inv1[v]] for v in order]
    image = [0] * len(rows1)

    def extend(i: int, mapped: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        want = 0  # the images of v's mapped neighbours
        for w in _bits(rows1[v] & mapped):
            want |= 1 << image[w]
        for u in groups[i]:
            bit = 1 << u
            if not used & bit and rows2[u] & used == want:
                image[v] = u
                if extend(i + 1, mapped | 1 << v, used | bit):
                    return True
        return False

    if not extend(0, 0, 0):
        return None
    # Paranoia: every row maps onto its image's row; under a bijection this
    # keeps edges in both directions.
    assert all(sum(1 << image[w] for w in _bits(rows1[v])) == rows2[image[v]] for v in order)
    labels1, labels2 = g1.universe.labels, g2.universe.labels
    return {labels1[v]: labels2[image[v]] for v in order}


def are_isomorphic(g1: Graph, g2: Graph) -> dict | None:
    """A vertex bijection carrying edges to edges both ways, or None."""
    return _find_isomorphism(g1, g2)


class Position(Record):
    """A graph together with the favorable vertex set A of the gcds game."""

    __slots__ = ("graph", "favorable")

    graph: Graph
    favorable: frozenset

    def _check(self) -> None:
        if not self.favorable <= self.graph.vertices:
            stray = sorted(self.favorable - self.graph.vertices, key=label_key)
            raise ValueError(f"favorable vertices {stray} are not in the graph")


def positions_isomorphic(p1: Position, p2: Position) -> dict | None:
    """Graph isomorphism that maps favorable vertices exactly onto favorable:
    the favorable sets' masks are the search's colours."""
    if len(p1.favorable) != len(p2.favorable):
        return None
    g1, g2 = p1.graph, p2.graph
    return _find_isomorphism(g1, g2, g1.universe.mask(p1.favorable),
                             g2.universe.mask(p2.favorable))
