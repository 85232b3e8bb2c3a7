"""Exact solvers for the cds permutation game and the gcds graph game.

Both games alternate moves between players ONE and TWO until no move remains.

* CDS(alpha, A): a move applies cds at an interlocking pointer pair; play
  stops at a fixed point.  ONE wins when the fixed point is a rotation whose
  code lies in the favorable set A; the identity (and any code outside A)
  wins for TWO.
* GCDS(G, A): a move picks an edge and applies the gcds2 pivot; play stops
  when the graph is edgeless.  ONE wins when the surviving vertex set is
  nonempty and contained in A.

Both games are finite alternating win/loss games, and one engine solves
them.  A game object (CdsGame, GcdsGame) holds the favorable set, takes a
bare Permutation or a graph's :class:`~cdsgame.graphs.Board` as the state
and supplies what the engine reads:
``key(state, mover)``, ``outcome(state)`` (the winner at a terminal, else
None), ``moves(state)`` (the state's successor-memo entry: its sorted move
list and a list of the children made so far, each made by ``make(state,
move)`` on first use, see :func:`successor`) and ``variant(state, depth)``
(a natural number every move lowers); its ``solve(perm_or_graph, mover,
cache)`` is the size-checked public solver.  A gcds state is a board: the
alive vertices and the adjacency rows as bit masks over the root graph's
labels, pivoted with mask operations (graphs.py).  Its key text is rendered
from the bits once per board, byte for byte the text a Graph renders.  The
gcds successor memo is keyed by that text, so roots with different label
sets share entries where both label sets are plain (see graphs.py; other
boards are keyed by their bits and universe); its moves are label pairs, which ``make`` maps through the state's own
universe.  The public solvers take labelled graphs and return label pairs.
The search builds only the children it
visits, in move order, and stops at the first winning one.  Each of the two
successor memos is shared by every solve in the process, and the cds memo
also by :func:`~cdsgame.cyclegraph.achievable_fixed_points`, which walks the
cds move graph through ``CdsGame.moves`` and :func:`successor`.  A memo
charges each state its full fan-out and is emptied when a new state would
take the charge past MEMO_CHILDREN (2**16), so it never holds more children
than that or one state's fan-out; :func:`clear_memos` empties both memos
and :func:`memo_stats` reports on them.  The search
is negamax with memoisation over the exact labelled state; no symmetry
reduction is applied, so cache keys are reproducible strings and can be
persisted to disk and reloaded across runs.  The principal variation always
plays the least winning move for the side to move (least move at all in
lost positions), and every solve asserts that its terminal agrees with the
reported winner.
"""

from __future__ import annotations

import contextlib
import os

from .graphs import Board, Graph, Position
from .permutations import (
    Permutation,
    SizeBoundError,
    apply_cds,
    fixed_point_code,
    is_fixed_point,
    legal_moves,
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
    """``G|vertices|edges|favorable|mover``; favorable labels outside the
    graph are left out."""
    board = graph.board()
    return _board_key(board, board.universe.mask(favorable), mover)


def _board_key(board: Board, favorable: int, mover: str) -> str:
    """The state key of a board, rendered from its bits; ``favorable`` is
    the favorable labels' mask over the board's universe."""
    text = board.text()  # first, so a bad graph label is the one reported
    fs = board.universe.render(favorable & board.alive)
    return f"G|{text}|{fs}|{1 if mover == ONE else 2}"


def perm_state_key(perm: Permutation, favorable: frozenset, mover: str) -> str:
    fs = ",".join(str(c) for c in sorted(favorable))
    return f"P|{perm.word()}|{fs}|{1 if mover == ONE else 2}"


class SolveCache:
    """Maps canonical state keys to winners; shareable between solves."""

    __slots__ = ("_table",)

    def __init__(self):
        self._table: dict[str, str] = {}

    def get(self, key: str) -> str | None:
        return self._table.get(key)

    def put(self, key: str, winner: str) -> None:
        self._table[key] = winner

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: str) -> bool:
        return key in self._table

    def items(self):
        return self._table.items()

    def merge(self, other: "SolveCache") -> int:
        """Adopt every entry of ``other``, or none of them when a key has
        another winner here (CacheFormatError); returns how many keys were new."""
        table = self._table
        for key, winner in other.items():
            if table.get(key, winner) != winner:
                raise CacheFormatError(
                    f"conflicting winners for key {key!r}: "
                    f"{table[key]} vs {winner}"
                )
        before = len(table)
        table.update(other.items())
        return len(table) - before


class CacheFormatError(ValueError):
    """Raised for unreadable or version-mismatched cache files."""


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
    if position.graph.n_edges():
        raise ValueError("position still has edges; the gcds game is not over")
    vs = position.graph.vertices
    return ONE if vs and vs <= position.favorable else TWO


def cds_terminal_winner(perm: Permutation, favorable: frozenset) -> str:
    if not is_fixed_point(perm):
        raise ValueError("permutation still has moves; the cds game is not over")
    code = fixed_point_code(perm)
    return ONE if code is not None and code in favorable else TWO


# ---------------------------------------------------------------------------
# Successor generation, shared across solves via memoisation.

# How many children one successor memo may hold.  A state is charged its full
# fan-out when it enters; one that would pass the bound empties the table
# first, and loops already running keep their own entry.  Measured with
# tracemalloc, the gcds memo holds about 0.7 KB per made child of the
# 17-vertex chain 8 (the board, its key text, its share of the entries and
# move lists) and the cds memo about 0.6 KB per child of B_20, so a full memo
# is about 45 MB or 40 MB at those sizes.
MEMO_CHILDREN = 1 << 16


def _successor_memo(moves_of, key_of=None):
    """A memo from a state to its entry ``(moves, children)``, keyed by
    ``key_of(state)`` (the state itself by default).

    ``moves`` is ``moves_of(state)``, the state's moves in the order the
    search tries them; ``children[i]`` is the child after ``moves[i]``, or
    None until a caller makes it (see :func:`successor`).  Like an ``lru_cache``,
    the memo has ``cache_info()`` = (hits, misses, bound, states held) and
    ``cache_clear()``; ``stats()`` also counts the children made.
    """
    table: dict = {}
    counts = [0, 0, 0]  # hits, misses, children charged to the table

    def lookup(state) -> tuple:
        key = state if key_of is None else key_of(state)
        found = table.get(key)
        if found is not None:
            counts[0] += 1
            return found
        counts[1] += 1
        moves = moves_of(state)
        if counts[2] + len(moves) > MEMO_CHILDREN:
            table.clear()
            counts[2] = 0
        counts[2] += len(moves)
        found = table[key] = (moves, [None] * len(moves))
        return found

    def cache_info() -> tuple:
        return counts[0], counts[1], MEMO_CHILDREN, len(table)

    def cache_clear() -> None:
        table.clear()
        counts[:] = [0, 0, 0]

    def stats() -> dict:
        made = sum(len(children) - children.count(None) for _, children in table.values())
        return {"hits": counts[0], "misses": counts[1], "states": len(table),
                "children": made}

    lookup.cache_info, lookup.cache_clear, lookup.stats = cache_info, cache_clear, stats
    return lookup


def _cds_moves(perm: Permutation) -> list:
    return sorted(legal_moves(perm))


_cds_successors = _successor_memo(_cds_moves)
_gcds_successors = _successor_memo(Board.moves, Board.memo_key)
_MEMOS = {"cds": _cds_successors, "gcds": _gcds_successors}


def clear_memos() -> None:
    """Empty both successor memos and zero their counters."""
    for memo in _MEMOS.values():
        memo.cache_clear()


def memo_stats() -> dict:
    """Per game: memo hits, misses, states held and children made."""
    return {name: memo.stats() for name, memo in _MEMOS.items()}


def successor(game, state, entry: tuple, i: int):
    """The child after move ``i`` of ``state``, made on first use and kept in
    the memo ``entry`` that ``game.moves(state)`` returned."""
    moves, children = entry
    made = children[i]
    if made is None:
        made = children[i] = game.make(state, moves[i])
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
        return cds_terminal_winner(perm, self.favorable) if is_fixed_point(perm) else None

    moves = staticmethod(_cds_successors)

    @staticmethod
    def make(perm: Permutation, move: tuple) -> Permutation:
        return apply_cds(perm, *move)

    def variant(self, perm: Permutation, depth: int) -> int:
        return perm.n - depth  # game length never exceeds n

    def solve(self, perm: Permutation, mover: str, cache: SolveCache | None = None):
        return solve_cds(CdsState(perm, self.favorable, mover), cache)


class GcdsGame:
    """GCDS(G, A) with favorable vertices A.  The engine's states are boards
    (``graph.board()`` and the boards made from it); a state is judged on
    A & V.  ``solve`` takes a labelled graph.  The favorable set's mask is
    kept per universe the game meets, so it lives as long as the game; games
    compare and hash by A alone."""

    __slots__ = ("favorable", "_masks")

    favorable: frozenset

    def __init__(self, favorable: frozenset):
        object.__setattr__(self, "favorable", favorable)
        object.__setattr__(self, "_masks", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return GcdsGame, (self.favorable,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GcdsGame:
            return NotImplemented
        return self.favorable == other.favorable

    def __hash__(self) -> int:
        return hash((self.favorable,))

    def __repr__(self) -> str:
        return f"GcdsGame(favorable={self.favorable!r})"

    def _favorable_mask(self, board: Board) -> int:
        universe = board.universe
        found = self._masks.get(universe)
        if found is None:
            found = self._masks[universe] = universe.mask(self.favorable)
        return found

    def key(self, board: Board, mover: str) -> str:
        return _board_key(board, self._favorable_mask(board), mover)

    def outcome(self, board: Board) -> str | None:
        if any(board.rows):
            return None
        alive = board.alive
        return ONE if alive and not alive & ~self._favorable_mask(board) else TWO

    moves = staticmethod(_gcds_successors)

    @staticmethod
    def make(board: Board, edge: tuple) -> Board:
        return board.apply_gcds2(*edge)

    def variant(self, board: Board, depth: int) -> int:
        rows = board.rows
        return len(rows) - rows.count(0)  # vertices with an edge; moves burn them

    def solve(self, graph: Graph, mover: str, cache: SolveCache | None = None):
        position = Position(graph, self.favorable & graph.vertices)
        return solve_gcds(GcdsState(position, mover), cache)


# ---------------------------------------------------------------------------
# The search engine: negamax with a memo, then the principal variation.

class _Stats:
    __slots__ = ("expanded", "hits")

    def __init__(self) -> None:
        self.expanded = 0
        self.hits = 0


def _value(game, state, mover: str, cache: SolveCache, stats: _Stats, depth: int = 0) -> str:
    key = game.key(state, mover)
    winner = cache.get(key)
    if winner is not None:
        stats.hits += 1
        return winner
    stats.expanded += 1
    winner = game.outcome(state)
    if winner is None:
        winner = opponent(mover)
        bound = game.variant(state, depth)
        entry = game.moves(state)
        for i in range(len(entry[0])):
            after = successor(game, state, entry, i)
            assert 0 <= game.variant(after, depth + 1) < bound  # every move makes progress
            if _value(game, after, opponent(mover), cache, stats, depth + 1) == mover:
                winner = mover
                break
    cache.put(key, winner)
    return winner


def _solve(game, root, mover: str, cache: SolveCache | None) -> SolveReport:
    if cache is None:
        cache = SolveCache()
    stats = _Stats()
    winner = _value(game, root, mover, cache, stats)
    pv, state = [], root
    while (final := game.outcome(state)) is None:
        entry = game.moves(state)
        for i in range(len(entry[0])):
            after = successor(game, state, entry, i)
            if _value(game, after, opponent(mover), cache, stats, len(pv) + 1) == mover:
                break
        else:
            i, after = 0, entry[1][0]
        pv.append(entry[0][i])
        state, mover = after, opponent(mover)
    assert final == winner, "principal variation ends at the reported winner"
    return SolveReport(winner, tuple(pv), stats.expanded, stats.hits)


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
    return _solve(GcdsGame(state.position.favorable), graph.board(), state.mover, cache)


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
