"""Exact solvers for the cds permutation game and the gcds graph game.

Both games alternate moves between players ONE and TWO until no move remains.

* CDS(alpha, A): a move applies cds at an interlocking pointer pair; play
  stops at a fixed point.  ONE wins when the fixed point is a rotation whose
  code lies in the favorable set A; the identity (and any code outside A)
  wins for TWO.
* GCDS(G, A): a move picks an edge and applies the gcds2 pivot; play stops
  when the graph is edgeless.  ONE wins when the surviving vertex set is
  nonempty and contained in A.

Both games are finite alternating win/loss games, and one engine solves them.
A game object (CdsGame, GcdsGame) holds the favorable set, takes a bare
Permutation or a :class:`~cdsgame.graphs.Graph` as the state and supplies what
the engine reads: ``key(state, mover)``, ``outcome(state)`` (the winner at a
terminal, else None), ``ident(state)`` (its identity in this process),
``moves(state)`` (its successor-memo entry, kept under its ident: its sorted
move list and a list of the children made so far, each made by
``make(state, move)`` on first use and interned by its ident, see
:func:`successor`) and ``variant(state, depth)`` (a natural number every move
lowers).  A game's
terminal rule is its ``outcome``: :func:`cds_terminal_winner` and
:func:`gcds_terminal_winner` call it, and ``needs(state)`` states it for every
favorable set at once, as the mask A must include for ONE to win, over
``universe(state)``: bit c-1 is code c of a word, bit i is label i of a
graph's universe.  A cds move came off the overlap rows, so it interlocks:
``CdsGame.make`` block-swaps the entry tuple and builds the child without the
validating constructor (permutations.py).  A gcds state is a graph: its
vertices and adjacency rows are bit masks over the root graph's labels, and a
move pivots them with mask operations into a child over the same labels,
without the validating constructor (graphs.py).  A graph's key text is
rendered from the bits once, and so is the text of the last favorable mask
it was asked for; the mask of the last favorable set asked for is kept on the
universe that owns the bits, and :func:`graph_state_key` reads all three.  A
word's ident is its entry tuple and a graph's is its bits and its universe,
and universes are equal when their labels are, type by type (see graphs.py),
so a root rebuilt on the same labels meets the same entries and every child
a walk meets numbers its root's labels.  Next to its entries each memo keeps
one object per child's ident: however many parents make a state, their
entries all hold that one object, which is keyed from one rendering and held
once, and each copy made later is dropped.
Both successor memos are shared by every search in the process, the cds memo
also by :func:`~cdsgame.cyclegraph.achievable_fixed_points`, which walks the
cds move graph through ``CdsGame.moves`` and :func:`successor`.  A memo
charges each state its full fan-out and is emptied, with its interned
children, when a new state would take the charge past MEMO_CHILDREN (2**16),
so it never holds more children than that or one state's fan-out, nor more
interned ones than that; :func:`clear_memos` empties both memos and
:func:`memo_stats` reports on them.

One memoised walk over the exact labelled states (no symmetry reduction)
values a state for many favorable sets at once: an int with one bit per set,
set where ONE wins.  ONE to move ORs its children's values and TWO ANDs them,
each stopping at the value that settles the state; only the children visited
are built, in move order.  The size-checked solvers :func:`solve_cds` and
:func:`solve_gcds` track the one set A, so they stop at the first winning
move, and keep winners in a :class:`SolveCache` under reproducible string
keys, which can be saved and reloaded.  The principal variation plays the
least winning move for the side to move (least move at all in lost positions)
and must end at the reported winner.  :func:`winning_sets` tracks every set
over the universe, for the exhaustive suites, keyed by ident, not key text.
"""

from __future__ import annotations

import contextlib
import os
from operator import attrgetter

from .graphs import Graph, Position, _bits
from .permutations import (
    Permutation,
    SizeBoundError,
    _from_entries,
    _move_list,
    _swap,
    is_fixed_point,
)
from .record import Record

__all__ = [
    "ONE",
    "TWO",
    "opponent",
    "GcdsState",
    "CdsState",
    "CdsGame",
    "GcdsGame",
    "SolveReport",
    "NpReport",
    "SolveCache",
    "CacheFormatError",
    "GameRuleError",
    "graph_state_key",
    "perm_state_key",
    "gcds_terminal_winner",
    "cds_terminal_winner",
    "solve_gcds",
    "solve_cds",
    "np_status",
    "cache_save",
    "cache_load",
    "successor",
    "winning_sets",
    "clear_memos",
    "memo_stats",
]

ONE = "ONE"
TWO = "TWO"


def opponent(player: str) -> str:
    if player == ONE:
        return TWO
    if player == TWO:
        return ONE
    raise ValueError(f"unknown player {player!r}")


class GcdsState(Record):
    __slots__ = ("position", "mover")

    position: Position
    mover: str

    def _check(self) -> None:
        opponent(self.mover)  # validates


class CdsState(Record):
    __slots__ = ("perm", "favorable", "mover")

    perm: Permutation
    favorable: frozenset
    mover: str

    def _check(self) -> None:
        opponent(self.mover)
        bad = [c for c in self.favorable
               if isinstance(c, bool) or not (isinstance(c, int) and 1 <= c <= self.perm.n - 1)]
        if bad:
            raise ValueError(f"favorable codes {sorted(map(str, bad))} out of range 1..{self.perm.n - 1}")


class SolveReport(Record):
    __slots__ = ("winner", "principal_variation", "nodes_expanded", "cache_hits")

    winner: str
    principal_variation: tuple
    nodes_expanded: int
    cache_hits: int


class NpReport(Record):
    """Outcome class of a position: N (next player wins) or P (previous does).

    Derived from two solves, one per first mover.  When the two winners do
    not form a consistent N or P pattern the status is None and ``anomaly``
    is set; callers report this rather than crash.
    """

    __slots__ = ("status", "winner_one_first", "winner_two_first")

    status: str | None
    winner_one_first: str
    winner_two_first: str

    @property
    def anomaly(self) -> bool:
        return self.status is None


# ---------------------------------------------------------------------------
# Canonical state keys and the persistent cache.

def graph_state_key(graph: Graph, favorable: frozenset, mover: str) -> str:
    """``G|vertices|edges|favorable|mover``, rendered from the graph's bits;
    favorable labels outside the graph are left out."""
    text = graph.key_text()  # first, so a bad graph label is the one reported
    fs = graph._mask_text(graph.universe.mask(favorable) & graph.alive)
    return f"G|{text}|{fs}|{1 if mover == ONE else 2}"


# The last frozenset of favorable codes perm_state_key rendered, and its text.
_rendered: tuple = (None, "")


def perm_state_key(perm: Permutation, favorable: frozenset, mover: str) -> str:
    """``P|word|favorable|mover``; a solve asks for one favorable set at
    every node, so the text of the last frozenset is kept for that object."""
    global _rendered
    held, fs = _rendered
    if favorable is not held:
        fs = ",".join(map(str, sorted(favorable)))
        if type(favorable) is frozenset:
            _rendered = (favorable, fs)
    return f"P|{perm.word()}|{fs}|{1 if mover == ONE else 2}"


# A winner as the search walk values it (1 where ONE wins), as a SolveCache keeps it.
_VALUES = {ONE: 1, TWO: 0}
_WINNERS = (TWO, ONE)


class SolveCache:
    """Maps canonical state keys to winners; shareable between solves."""

    __slots__ = ("_table",)

    def __init__(self):
        self._table: dict[str, int] = {}

    def get(self, key: str) -> str | None:
        value = self._table.get(key)
        return None if value is None else _WINNERS[value]

    def put(self, key: str, winner: str) -> None:
        self._table[key] = _VALUES[winner]

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: str) -> bool:
        return key in self._table

    def items(self) -> list:
        return [(key, _WINNERS[value]) for key, value in self._table.items()]

    def merge(self, other: "SolveCache") -> int:
        """Adopt every entry of ``other``, or none of them when a key has
        another winner here (CacheFormatError); returns how many keys were new."""
        table, theirs = self._table, other._table
        for key, value in theirs.items():
            if table.get(key, value) != value:
                raise CacheFormatError(
                    f"conflicting winners for key {key!r}: "
                    f"{_WINNERS[table[key]]} vs {_WINNERS[value]}"
                )
        before = len(table)
        table.update(theirs)
        return len(table) - before


class CacheFormatError(ValueError):
    """Raised for unreadable or version-mismatched cache files."""


class GameRuleError(ValueError):
    """Raised when a game's ``outcome`` says a state is not over but its
    ``moves`` list none: the search cannot value such a state."""


_CACHE_MAGIC = "GCDSCACHE"
_CACHE_VERSION = 1


def cache_save(cache: SolveCache, path) -> None:
    """Write header plus one ``key<TAB>winner`` line per entry, keys sorted,
    as UTF-8; lines end in a bare newline, the one line break no key holds.

    The lines go to a temporary file beside ``path``, which then replaces
    ``path`` in one step, so a failed save leaves the earlier file whole.
    """
    lines = [f"{_CACHE_MAGIC} {_CACHE_VERSION}\n"]
    for key, winner in sorted(cache.items()):
        assert winner in (ONE, TWO)
        assert "\t" not in key and "\n" not in key
        lines.append(f"{key}\t{winner}\n")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def cache_load(path) -> SolveCache:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"cache file is not UTF-8: {exc}") from None
    if raw[-1] == "":
        raw.pop()  # the last line's end
    if not raw:
        raise CacheFormatError("empty cache file (missing header)")
    header = raw[0].split()
    if len(header) != 2 or header[0] != _CACHE_MAGIC:
        raise CacheFormatError(f"not a cache file: bad header {raw[0]!r}")
    if header[1] != str(_CACHE_VERSION):
        raise CacheFormatError(
            f"cache version mismatch: file has {header[1]!r}, expected {_CACHE_VERSION}"
        )
    cache = SolveCache()
    bad: list[int] = []
    for lineno, line in enumerate(raw[1:], start=2):
        parts = line.split("\t")
        if (
            len(parts) != 2
            or parts[1] not in (ONE, TWO)
            or not parts[0]
            or parts[0][:2] not in ("G|", "P|")
            or (parts[0] in cache and cache.get(parts[0]) != parts[1])
        ):
            bad.append(lineno)
            continue
        cache.put(parts[0], parts[1])
    if bad:
        raise CacheFormatError(
            "corrupted cache line(s): " + ", ".join(str(n) for n in bad)
        )
    return cache


# ---------------------------------------------------------------------------
# Terminal evaluation.

def gcds_terminal_winner(position: Position) -> str:
    winner = GcdsGame(position.favorable).outcome(position.graph)
    if winner is None:
        raise ValueError("position still has edges; the gcds game is not over")
    return winner


def cds_terminal_winner(perm: Permutation, favorable: frozenset) -> str:
    winner = CdsGame(favorable).outcome(perm)
    if winner is None:
        raise ValueError("permutation still has moves; the cds game is not over")
    return winner


# ---------------------------------------------------------------------------
# Successor generation, shared across solves via memoisation.

# How many children one successor memo may hold.  A state is charged its full
# fan-out when it enters; one that would pass the bound empties the table
# first, and loops already running keep their own entry.  Measured with
# tracemalloc, the gcds memo holds about 0.4 KB per made child of the
# 17-vertex chain 8 (14,241 made, 3,123 distinct: each distinct graph with
# its key text, plus every child's share of the entries and move lists) and
# the cds memo about 0.2 KB per made child of B_20 (12,806 made, 3,287
# distinct), so a full memo is about 26 MB or 13 MB at those sizes.
MEMO_CHILDREN = 1 << 16


def _successor_memo(moves_of, key_of):
    """A memo from a state to its entry ``(moves, children)``, keyed by
    ``key_of(state)``.

    ``moves`` is ``moves_of(state)``, the state's moves in the order the
    search tries them; ``children[i]`` is the child after ``moves[i]``, or
    None until a caller makes it (see :func:`successor`).  Next to the
    entries the memo keeps ``interned``, the one object it holds for each
    child's ``key_of``, and it empties both together.  Like an ``lru_cache``,
    the memo has ``cache_info()`` = (hits, misses, bound, states held) and
    ``cache_clear()``; ``stats()`` also counts the children made and the
    distinct ones interned.
    """
    table: dict = {}
    interned: dict = {}
    counts = [0, 0, 0]  # hits, misses, children charged to the table

    def lookup(state) -> tuple:
        key = key_of(state)
        found = table.get(key)
        if found is not None:
            counts[0] += 1
            return found
        counts[1] += 1
        moves = moves_of(state)
        if counts[2] + len(moves) > MEMO_CHILDREN:
            table.clear()
            interned.clear()
            counts[2] = 0
        counts[2] += len(moves)
        found = table[key] = (moves, [None] * len(moves))
        return found

    def cache_info() -> tuple:
        return counts[0], counts[1], MEMO_CHILDREN, len(table)

    def cache_clear() -> None:
        table.clear()
        interned.clear()
        counts[:] = [0, 0, 0]

    def stats() -> dict:
        made = sum(len(children) - children.count(None) for _, children in table.values())
        return {"hits": counts[0], "misses": counts[1], "states": len(table),
                "children": made, "distinct": len(interned)}

    lookup.cache_info, lookup.cache_clear, lookup.stats = cache_info, cache_clear, stats
    lookup.interned = interned
    return lookup


def clear_memos() -> None:
    """Empty both successor memos, zero their counters, and drop the memos of
    :func:`winning_sets`."""
    for memo in _MEMOS.values():
        memo.cache_clear()
    _SET_MEMOS.clear()


def memo_stats() -> dict:
    """Per game: memo hits, misses, states held, children made and the
    distinct children interned."""
    return {name: memo.stats() for name, memo in _MEMOS.items()}


def successor(game, state, entry: tuple, i: int):
    """The child after move ``i`` of ``state``, made on first use and kept in
    the memo ``entry`` that ``game.moves(state)`` returned.

    A child made is looked up by ``game.ident`` in the memo's intern table,
    and the entry keeps the object that table already holds for the ident,
    so each distinct state is one object, its key text rendered once.  The
    table takes no new object once it holds MEMO_CHILDREN (loops that run
    past an emptied memo still make children)."""
    moves, children = entry
    made = children[i]
    if made is None:
        made = game.make(state, moves[i])
        interned = game.moves.interned
        if len(interned) < MEMO_CHILDREN:
            made = interned.setdefault(game.ident(made), made)
        children[i] = made
    return made


# ---------------------------------------------------------------------------
# The two games, as objects of the protocol the engine reads.

class CdsGame(Record):
    """CDS(alpha, A) with favorable codes A; states are permutations."""

    __slots__ = ("favorable",)

    favorable: frozenset

    def key(self, perm: Permutation, mover: str) -> str:
        return perm_state_key(perm, self.favorable, mover)

    def outcome(self, perm: Permutation) -> str | None:
        if not is_fixed_point(perm):
            return None
        code = perm.entries[0] - 1  # the fixed point's code, 0 for the identity
        return ONE if code and code in self.favorable else TWO

    @staticmethod
    def needs(perm: Permutation) -> int | None:
        """The bits a favorable set must hold for ONE to win at the terminal
        ``perm``: its code's, or 0 for the identity (ONE wins for no set);
        None when ``perm`` is not terminal."""
        if not is_fixed_point(perm):
            return None
        code = perm.entries[0] - 1
        return 1 << (code - 1) if code else 0

    @staticmethod
    def universe(perm: Permutation) -> range:
        """The codes 1..n-1 a favorable set is drawn from: bit c-1 is code c."""
        return range(1, perm.n)

    ident = attrgetter("entries")  # a state's identity in this process
    moves = staticmethod(_successor_memo(lambda perm: _move_list(perm.entries), ident))

    @staticmethod
    def make(perm: Permutation, move: tuple) -> Permutation:
        swapped = _swap(perm.entries, *move)
        assert swapped is not None  # the move came off the overlap rows, so it interlocks
        return _from_entries(swapped)

    @staticmethod
    def variant(perm: Permutation, depth: int) -> int:
        return perm.n - depth  # game length never exceeds n


class GcdsGame(Record):
    """GCDS(G, A) with favorable vertices A; states are graphs, and a state
    is judged on A & V."""

    __slots__ = ("favorable",)

    favorable: frozenset

    def key(self, graph: Graph, mover: str) -> str:
        return graph_state_key(graph, self.favorable, mover)

    def outcome(self, graph: Graph) -> str | None:
        if any(graph.rows):
            return None
        alive = graph.alive
        return ONE if alive and not alive & ~graph.universe.mask(self.favorable) else TWO

    @staticmethod
    def needs(graph: Graph) -> int | None:
        """The survivors of the terminal ``graph``, which a favorable set
        must include for ONE to win (none survive: ONE wins for no set);
        None when ``graph`` has an edge."""
        if any(graph.rows):
            return None
        return graph.alive

    @staticmethod
    def universe(graph: Graph) -> tuple:
        """The root's labels, numbered as the graph's masks number them."""
        return graph.universe.labels

    ident = attrgetter("alive", "rows", "universe")  # its bits and what they number
    moves = staticmethod(_successor_memo(Graph.edge_list, ident))

    @staticmethod
    def make(graph: Graph, edge: tuple) -> Graph:
        return graph._pivot_at(*edge, prune=True)

    @staticmethod
    def variant(graph: Graph, depth: int) -> int:
        rows = graph.rows
        return len(rows) - rows.count(0)  # vertices with an edge; moves burn them


_cds_successors, _gcds_successors = CdsGame.moves, GcdsGame.moves
_MEMOS = {"cds": _cds_successors, "gcds": _gcds_successors}


# ---------------------------------------------------------------------------
# The search engine: one memoised walk, then the principal variation.

class _Walk:
    """The search walk over ``game``'s moves: ``walk(state, mover, depth)``
    keys a visit by ``key(state, mover)`` and reads it by ``get``, else
    values it by ``leaf`` (None off a terminal) or its moves, ONE stopping at
    ``full`` and TWO at 0, and keeps it by ``put``; a state it expands that
    is not over but has no moves raises :class:`GameRuleError`.  ``expanded``
    and ``hits`` count the two kinds of visit.  A recursive closure would be a
    cycle that keeps a solve's cache alive."""

    __slots__ = ("game", "key", "get", "put", "leaf", "full", "expanded", "hits")

    def __init__(self, game, key, get, put, leaf, full: int) -> None:
        self.game, self.key, self.get, self.put = game, key, get, put
        self.leaf, self.full = leaf, full
        self.expanded = self.hits = 0

    def walk(self, state, mover: str, depth: int) -> int:
        game = self.game
        key = self.key(state, mover)
        value = self.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.expanded += 1
        value = self.leaf(state)
        if value is None:
            one = mover == ONE
            value, settled = (0, self.full) if one else (self.full, 0)
            variant = game.variant
            bound = variant(state, depth)
            entry = game.moves(state)
            if not entry[0]:
                raise _no_moves(game, state, key)
            for i in range(len(entry[0])):
                after = successor(game, state, entry, i)
                assert 0 <= variant(after, depth + 1) < bound  # every move makes progress
                child = self.walk(after, TWO if one else ONE, depth + 1)
                value = value | child if one else value & child
                if value == settled:
                    break
        self.put(key, value)
        return value


def _no_moves(game, state, key) -> GameRuleError:
    name = (game if isinstance(game, type) else type(game)).__name__
    return GameRuleError(f"{name}: {state!r}, keyed {key!r}, is not over by its outcome, "
                         "but it has no moves")


def _solve(game, root, mover: str, cache: SolveCache | None) -> SolveReport:
    if cache is None:
        cache = SolveCache()
    table = cache._table
    search = _Walk(game, game.key, table.get, table.__setitem__,
                   lambda state: _VALUES.get(game.outcome(state)), 1)
    winner = _WINNERS[search.walk(root, mover, 0)]
    pv, state = [], root
    while (final := game.outcome(state)) is None:
        entry = game.moves(state)
        if not entry[0]:  # a state read from the cache, never expanded here
            raise _no_moves(game, state, game.key(state, mover))
        for i in range(len(entry[0])):
            after = successor(game, state, entry, i)
            if search.walk(after, opponent(mover), len(pv) + 1) == _VALUES[mover]:
                break
        else:
            i, after = 0, entry[1][0]
        pv.append(entry[0][i])
        state, mover = after, opponent(mover)
    assert final == winner, "principal variation ends at the reported winner"
    return SolveReport(winner, tuple(pv), search.expanded, search.hits)


# ---------------------------------------------------------------------------
# Every favorable set at once.

# The largest universe :func:`winning_sets` accepts: a value is a 2**k-bit
# int, 8 KB at 16 codes.
MAX_UNIVERSE = 16

# One game's winning-set memo bound: an entry costs one unit plus one per 2 KB
# of value bits; an entry that would pass it empties the table first.  By
# tracemalloc after the tight suite at max_n 8 (successor memos emptied), an
# entry holds about 180 bytes (cds) or 235 (gcds: its key holds a graph's
# rows, over the one universe its overlap graphs share per length), and the
# tables hold 42,400 and 19,500 units.
MEMO_SETS = 1 << 18

# Per game class: [the table from (ident, mover) to value, units charged].
_SET_MEMOS: dict = {}
_PATTERNS: dict = {}


def _patterns(k: int) -> tuple:
    """All-ones over 2**k bits, and per i < k the value whose bit s is set
    when s holds bit i: blocks of 2**i zeros and 2**i ones, repeated."""
    found = _PATTERNS.get(k)
    if found is None:
        full = (1 << (1 << k)) - 1
        rows = []
        for i in range(k):
            block = 1 << i
            rows.append((((1 << block) - 1) << block) * (full // ((1 << 2 * block) - 1)))
        found = _PATTERNS[k] = (full, tuple(rows))
    return found


def winning_sets(game, state, mover: str) -> int:
    """Which favorable sets win for ONE.

    ``game`` is :class:`CdsGame` or :class:`GcdsGame`, and a favorable set
    S is a mask over ``game.universe(state)``, which holds at most
    MAX_UNIVERSE codes or labels: bit c-1 is code c of a word, bit i is
    label i of a graph's universe.  Bit S of the result is set when ONE wins
    from ``state`` with ``mover`` to move and favorable set S: the search
    walk's value, where a terminal is won for the sets that include the mask
    ``game.needs`` names, when that is not 0, else for none.  The empty set
    never wins, so ONE's OR visits every child.  Each visit is keyed by
    ``(game.ident(state), mover)``; an ident holds the numbering of the
    state's bits, so values for roots of every universe share one table per
    game, which is emptied when it would pass MEMO_SETS.
    """
    k = len(game.universe(state))
    if k > MAX_UNIVERSE:
        raise SizeBoundError(f"winning_sets limited to {MAX_UNIVERSE} codes, got {k}")
    opponent(mover)  # validates
    full, patterns = _patterns(k)
    held = _SET_MEMOS.setdefault(game, [{}, 0])
    table, ident = held[0], game.ident
    cost = 1 + ((1 << k) >> 11)

    def leaf(state) -> int | None:
        need = game.needs(state)
        if not need:
            return need  # None off a terminal; 0 where no set wins
        value = full
        for i in _bits(need):
            value &= patterns[i]
        return value

    def put(key: tuple, value: int) -> None:
        if held[1] + cost > MEMO_SETS:
            table.clear()
            held[1] = 0
        held[1] += cost
        table[key] = value

    return _Walk(game, lambda state, mover: (ident(state), mover), table.get, put, leaf,
                 full).walk(state, mover, 0)


# ---------------------------------------------------------------------------
# Public solvers.

def solve_gcds(
    state: GcdsState, cache: SolveCache | None = None, max_vertices: int = 16
) -> SolveReport:
    """Winner, principal variation, and search statistics for a gcds game."""
    graph = state.position.graph
    if graph.n_vertices() > max_vertices:
        raise SizeBoundError(
            f"gcds solver limited to {max_vertices} vertices, got {graph.n_vertices()}"
        )
    return _solve(GcdsGame(state.position.favorable), graph, state.mover, cache)


def solve_cds(
    state: CdsState, cache: SolveCache | None = None, max_n: int = 10
) -> SolveReport:
    """Winner, principal variation, and search statistics for a cds game."""
    if state.perm.n > max_n:
        raise SizeBoundError(
            f"cds solver limited to n <= {max_n}, got n = {state.perm.n}"
        )
    return _solve(CdsGame(state.favorable), state.perm, state.mover, cache)


def np_status(
    position: Position, cache: SolveCache | None = None, max_vertices: int = 16
) -> NpReport:
    """Classify a position as N or P by solving it once per first mover."""
    if cache is None:
        cache = SolveCache()
    first = solve_gcds(GcdsState(position, ONE), cache, max_vertices).winner
    second = solve_gcds(GcdsState(position, TWO), cache, max_vertices).winner
    if first == ONE and second == TWO:
        status = "N"
    elif first == TWO and second == ONE:
        status = "P"
    else:
        status = None
    return NpReport(status=status, winner_one_first=first, winner_two_first=second)
