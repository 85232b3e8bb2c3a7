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

Both pivots run on a :class:`Board`: the graph as an ``alive`` bit mask and
one adjacency mask per vertex, over a shared universe that numbers the
labels in ``label_key`` order.  As masks each class is one AND/AND-NOT of the
rows of x and y, and each class member's row toggles against the union of
the other two classes.  ``apply_gcds``/``apply_gcds2`` take the board a
``Graph`` keeps, pivot it and return a ``Graph``; the gcds solver plays on
boards throughout and renders its state keys from the bits
(:meth:`Board.text`), which is also what :meth:`Graph.key_text` returns.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, Mapping

from .permutations import SizeBoundError
from .record import Record

__all__ = [
    "NotAnEdgeError",
    "Graph",
    "Board",
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


def _is_key_text(s: str) -> bool:
    return bool(s) and not _KEY_FORBIDDEN.intersection(s)


def key_label(v: Label) -> str:
    """``str(v)``, checked to be usable inside a solver state key."""
    s = str(v)
    if not _is_key_text(s):
        raise ValueError(f"vertex label {v!r} cannot be used in a cache key")
    return s


class Graph:
    """Immutable undirected simple graph (no loops, no multi-edges)."""

    __slots__ = ("vertices", "edges", "_adj", "_hash", "_board")

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
        self._fill(vs, frozenset(es), None)

    def _fill(self, vertices: frozenset, edges: frozenset, board: "Board | None") -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_board", board)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # Rebuilt through the validating constructor; the kept adjacency,
        # hash and board are left behind.
        return Graph, (tuple(self.vertices), tuple(tuple(e) for e in self.edges))

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

    def board(self) -> "Board":
        """The graph as a :class:`Board` over a universe of its own labels,
        built on first use and kept."""
        board = self._board
        if board is None:
            universe = _Universe(self.vertices)
            index = universe.index
            rows = [0] * len(index)
            for edge in self.edges:
                a, b = edge
                i, j = index[a], index[b]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            board = Board((1 << len(rows)) - 1, tuple(rows), universe)
            object.__setattr__(self, "_board", board)
        return board

    def key_text(self) -> str:
        """``vertices|edges`` as the solver's state keys write them (see
        :meth:`Board.text`); a label :func:`key_label` rejects raises every
        time."""
        return self.board().text()

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


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_int_text(s: str) -> bool:
    try:
        return str(int(s)) == s
    except ValueError:
        return False


class _Universe:
    """What the bits of a family of boards stand for: a root graph's labels
    in ``label_key`` order, the label -> bit index map, and each label's key
    string (None where :func:`key_label` rejects the label).  A label's key
    string is its ``str``, unless two labels of the universe have the same
    ``str`` (1 and "1"): then every label is keyed by its ``repr``, so that
    no two states of the universe share a key.

    The universe is *plain* when every label is an int or a str that is no
    int's text.  A key string then names the same label in every plain
    universe, so boards of two plain universes with the same text are the
    same labelled graph.
    """

    __slots__ = ("labels", "index", "plain", "_names")

    def __init__(self, vertices: Collection[Label]):
        labels = sorted(vertices, key=label_key)
        self.labels = tuple(labels)
        self.index = dict(zip(labels, range(len(labels))))
        self.plain = all(type(v) is int or (type(v) is str and not _is_int_text(v))
                         for v in labels)
        self._names: tuple | None = None

    @property
    def names(self) -> tuple:
        """Each label's key string, or None for a label :func:`key_label`
        rejects (or whose ``repr`` it would reject, where labels are keyed
        by ``repr``); made on first use."""
        names = self._names
        if names is None:
            texts = list(map(str, self.labels))
            if len(set(texts)) < len(texts):
                texts = [repr(v) if _is_key_text(s) else s for v, s in zip(self.labels, texts)]
            names = self._names = tuple(s if _is_key_text(s) else None for s in texts)
        return names

    def mask(self, labels: Iterable[Label]) -> int:
        """The bits of those of ``labels`` that are in the universe."""
        index, found = self.index, 0
        for v in labels:
            i = index.get(v)
            if i is not None:
                found |= 1 << i
        return found

    def render(self, mask: int) -> str:
        """The key strings of the labels in ``mask``, comma-separated, in bit order."""
        names = self.names
        return ",".join([names[i] for i in _bits(mask)])


class Board:
    """A graph as masks over a universe: bit i of ``alive`` is set when
    ``universe.labels[i]`` is a vertex, and ``rows[i]`` is the mask of its
    neighbours (0 when it is not).  A board is never changed once made; its
    key text is rendered on first use and kept."""

    __slots__ = ("alive", "rows", "universe", "_text")

    def __init__(self, alive: int, rows: tuple, universe: _Universe):
        self.alive = alive
        self.rows = rows
        self.universe = universe
        self._text = None

    def text(self) -> str:
        """``vertices|edges``: the vertices' key strings in bit order, then
        ``a-b`` for each edge in the order of the pair (a, b), a before b.
        Bit order is ``label_key`` order, so this is byte for byte the
        rendering of ``vertex_list()`` and ``edge_list()``."""
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
                up = rows[i] & -(low << 1)  # the neighbours above i
                while up:
                    bit = up & -up
                    up ^= bit
                    es.append(f"{name}-{names[bit.bit_length() - 1]}")
            if None in vs:  # raise for the first label that cannot be keyed
                bad = self.universe.labels[next(i for i in _bits(self.alive) if names[i] is None)]
                raise ValueError(f"vertex label {bad!r} cannot be used in a cache key")
            text = self._text = f"{','.join(vs)}|{','.join(es)}"
        return text

    def memo_key(self):
        """The text, which identifies the labelled graph among boards of plain
        universes.  Otherwise one text can stand for different labels in two
        universes (1 in one, "1" in the other), and the memo keeps moves as
        labels, so the key is the bits and the universe."""
        if self.universe.plain:
            return self.text()
        return self.alive, self.rows, self.universe

    def moves(self) -> list[tuple]:
        """The edges as label pairs, in ``Graph.edge_list()`` order."""
        labels, rows = self.universe.labels, self.rows
        out = []
        m = self.alive
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            a = labels[i]
            up = rows[i] & -(low << 1)
            while up:
                bit = up & -up
                up ^= bit
                out.append((a, labels[bit.bit_length() - 1]))
        return out

    def apply_gcds(self, a: Label, b: Label) -> "Board":
        """The pivot at the edge {a, b}; every vertex stays."""
        index = self.universe.index
        rows = list(self.rows)
        _pivot(rows, index[a], index[b])
        return Board(self.alive, tuple(rows), self.universe)

    def apply_gcds2(self, a: Label, b: Label) -> "Board":
        """The pivot at {a, b}, pruned as :func:`apply_gcds2` says."""
        index = self.universe.index
        x, y = index[a], index[b]
        rows = list(self.rows)
        members = _pivot(rows, x, y)
        alive = self.alive & ~(1 << x | 1 << y)
        if members & (members - 1):  # more than one member
            while members:
                low = members & -members
                members ^= low
                if not rows[low.bit_length() - 1]:
                    alive ^= low
        return Board(alive, tuple(rows), self.universe)

    def graph(self) -> Graph:
        """The labelled graph, which keeps this board."""
        labels = self.universe.labels
        g = object.__new__(Graph)
        g._fill(frozenset([labels[i] for i in _bits(self.alive)]),
                frozenset(map(frozenset, self.moves())), self)
        return g


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
    adj = g.adjacency()
    return MasterList(
        column_x=adj[x] - {y},
        column_y=adj[y] - {x},
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
    return g.board().apply_gcds(x, y).graph()


def apply_gcds2(g: Graph, edge) -> Graph:
    """Pivot, then delete the pivot pair and the isolated master-list vertices.

    A one-element master list is the exception: its sole member survives even
    when isolated.  Vertices outside the move always survive.
    """
    x, y = _check_edge(g, edge)
    return g.board().apply_gcds2(x, y).graph()


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
    """Graph isomorphism that maps favorable vertices exactly onto favorable."""
    if len(p1.favorable) != len(p2.favorable):
        return None
    tag1 = {v: v in p1.favorable for v in p1.graph.vertices}
    tag2 = {v: v in p2.favorable for v in p2.graph.vertices}
    return _find_isomorphism(p1.graph, p2.graph, tag1, tag2)
