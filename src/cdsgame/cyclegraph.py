"""Cycle graphs, alternating-cycle decompositions, and the strategic pile.

The cycle graph of a permutation [a_1, ..., a_n] has vertices 0..n+1 and two
edge families:

* *dotted* edges i -> i+1 for 0 <= i <= n (the sorted order), and
* *black* edges a_i -> a_{i-1} for 2 <= i <= n, plus n+1 -> a_n and a_1 -> 0
  (the permutation order, reversed, framed by the two sentinels).

Every vertex has exactly one outgoing edge of each colour, so the edge set
decomposes uniquely into cycles that alternate dotted/black.  The *strategic
pile* of the permutation collects the dotted edges encountered strictly
between n -> n+1 and 0 -> 1 on their shared alternating cycle, recorded as
pointer codes in walk order; it is empty when those two dotted edges lie on
different cycles.  The pile is empty exactly when the permutation is
cds-sortable, and the pile codes are exactly the fixed-point codes reachable
by playing cds to the end.  :func:`achievable_fixed_points` finds those
codes on the cds solver's successor memo (games.py).  The ``pile-lemma``
suite checks both facts one move deep (a word's pile is the union of its
children's), and the tests check them with this search and with plain
brute-force oracles.
"""

from __future__ import annotations

from .games import CdsGame, successor
from .permutations import (
    Permutation,
    SizeBoundError,
    fixed_point_code,
    is_fixed_point,
)
from .record import Record

__all__ = [
    "SizeBoundError",
    "CycleGraph",
    "AltCycleDecomposition",
    "StrategicPile",
    "build_cycle_graph",
    "alternating_cycles",
    "strategic_pile",
    "is_sortable",
    "achievable_fixed_points",
]


class CycleGraph(Record):
    """Cycle graph on vertices 0..n+1 with black successors stored per vertex."""

    __slots__ = ("n", "black_successor")

    n: int
    black_successor: dict[int, int]

    @property
    def dotted_edges(self) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in range(self.n + 1)]

    @property
    def black_edges(self) -> list[tuple[int, int]]:
        return sorted(self.black_successor.items())


# An edge inside an alternating cycle is ("dotted"|"black", tail, head).
Edge = tuple[str, int, int]


class AltCycleDecomposition(Record):
    """Partition of all dotted and black edges into alternating cycles."""

    __slots__ = ("cycles",)

    cycles: tuple[tuple[Edge, ...], ...]

    def __len__(self) -> int:
        return len(self.cycles)


class StrategicPile(Record):
    """Pile codes in walk order (may be empty)."""

    __slots__ = ("codes",)

    codes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)

    def __contains__(self, code: int) -> bool:
        return code in self.codes

    def as_set(self) -> frozenset[int]:
        return frozenset(self.codes)


def _black_successors(e: tuple[int, ...]) -> dict[int, int]:
    """The black edges of the word ``e`` as a successor map on 1..n+1."""
    succ = dict(zip(e[1:], e))
    succ[len(e) + 1] = e[-1]
    succ[e[0]] = 0
    assert set(succ) == set(range(1, len(e) + 2))
    return succ


def build_cycle_graph(perm: Permutation) -> CycleGraph:
    return CycleGraph(perm.n, _black_successors(perm.entries))


def alternating_cycles(cg: CycleGraph) -> AltCycleDecomposition:
    """Trace every alternating cycle, starting each from its least dotted edge.

    From the dotted edge i -> i+1 the unique continuation is the black edge
    out of i+1, landing on some t in 0..n, followed by the dotted edge
    t -> t+1, and so on until the walk closes.
    """
    black = cg.black_successor
    cycles = []
    seen = set()
    for start in range(cg.n + 1):
        if start in seen:
            continue
        cycle: list[Edge] = []
        j = start
        while True:
            seen.add(j)
            cycle.append(("dotted", j, j + 1))
            t = black[j + 1]
            cycle.append(("black", j + 1, t))
            j = t
            if j == start:
                break
        cycles.append(tuple(cycle))
    return AltCycleDecomposition(tuple(cycles))


def strategic_pile(perm: Permutation) -> StrategicPile:
    """Walk the alternating cycle from n -> n+1; collect codes until 0 -> 1.

    Codes are the dotted edges met strictly between the two distinguished
    edges.  If the walk returns to n -> n+1 first, the distinguished edges
    lie on different cycles and the pile is empty.
    """
    return StrategicPile(_pile_codes(perm.entries))


def _pile_codes(e: tuple[int, ...]) -> tuple[int, ...]:
    """The pile codes of the word ``e`` over 1..n in walk order; ``e`` is
    not checked."""
    black = _black_successors(e)
    n = len(e)
    codes: list[int] = []
    j = n
    while True:
        j = black[j + 1]
        if j == n:
            return ()
        if j == 0:
            return tuple(codes)
        codes.append(j)


def is_sortable(perm: Permutation) -> bool:
    """True iff the strategic pile is empty."""
    return len(strategic_pile(perm)) == 0


def achievable_fixed_points(
    perm: Permutation, max_n: int = 7
) -> frozenset[int | None]:
    """All fixed-point codes reachable by playing cds to the end.

    The identity is reported as ``None``; the rotation [k+1..n, 1..k] as k.
    Exhaustive search, refused above ``max_n``: each state's moves and
    children come from the cds successor memo and its codes are kept for the
    rest of the call.
    """
    if perm.n > max_n:
        raise SizeBoundError(f"brute force limited to n <= {max_n}, got n = {perm.n}")
    memo: dict[Permutation, frozenset[int | None]] = {}

    def walk(state: Permutation) -> frozenset[int | None]:
        known = memo.get(state)
        if known is not None:
            return known
        if is_fixed_point(state):
            result: frozenset[int | None] = frozenset({fixed_point_code(state)})
        else:
            entry = CdsGame.moves(state)
            acc: set[int | None] = set()
            for i in range(len(entry[0])):
                acc |= walk(successor(CdsGame, state, entry, i))
            result = frozenset(acc)
        memo[state] = result
        return result

    return walk(perm)
