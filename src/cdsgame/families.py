"""Named instance families and closed-form winner bounds.

The *chain* family G_m is a row of m triangles glued at odd-labelled
vertices: vertices 1..2m+1, a triangle on {1,2,3}, and for each k < m a
triangle on {2k+1, 2k+2, 2k+3}.  Its favorable companion A_m is {2} plus
every multiple of 4 up to 2m+1.  Pivoting an edge of G_m with gcds2
collapses it to a graph isomorphic to G_{m-1}, except at the interior
glue-glue edges (2k+1, 2k+3), 1 <= k <= m-2: there the five neighbours
2k-1, 2k, 2k+2, 2k+4, 2k+5 become a K5, a chain with a K5 bead on 2m-1
vertices and 3m+1 edges.  The ``chain-collapse`` suite checks the collapse
at every edge and reports those edges as failures (10 of the 60 edges for
m = 2..6).  (G_m, A_m) is an N-position exactly for odd m, which the
``np-classification`` suite checks.

The permutation family alpha_n (n divisible by 4, n >= 8) has a full
strategic pile, and its overlap graph is a relabelled G_{(n-2)/2}; carrying
A_{(n-2)/2} through any such relabelling gives a favorable code set B_n that
wins for ONE while every proper subset of it loses — the construction behind
``tight_instance``.

``bound_prediction`` evaluates the closed-form winner bounds that depend
only on the pile size and the favorable-set size.
"""

from __future__ import annotations

from .graphs import Graph, Position, are_isomorphic, positions_isomorphic
from .overlap import overlap_graph
from .permutations import Permutation
from .record import Record

__all__ = [
    "ConstructionError",
    "BoundPrediction",
    "gen_chain",
    "gen_favorable",
    "gen_alpha",
    "expected_np",
    "tight_instance",
    "bound_prediction",
]

UNDETERMINED = "UNDETERMINED"


class ConstructionError(Exception):
    """Raised when a family instance cannot be assembled as specified."""


def gen_chain(m: int) -> Graph:
    """The chain of m glued triangles on vertices 1..2m+1."""
    if m < 1:
        raise ValueError(f"chain index must be >= 1, got {m}")
    edges = [(1, 2), (1, 3), (2, 3)]
    for k in range(1, m):
        a = 2 * k + 1
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return Graph(range(1, 2 * m + 2), edges)


def gen_favorable(m: int) -> frozenset[int]:
    """Favorable vertices for the chain of m triangles: {2} and multiples of 4."""
    if m < 1:
        raise ValueError(f"chain index must be >= 1, got {m}")
    return frozenset({2}) | frozenset(range(4, 2 * m + 2, 4))


def expected_np(m: int) -> str:
    """Outcome class of (chain m, favorable m): N for odd m, P for even m."""
    if m < 1:
        raise ValueError(f"chain index must be >= 1, got {m}")
    return "N" if m % 2 == 1 else "P"


def gen_alpha(n: int) -> Permutation:
    """The full-pile permutation [5, 7, 6, 9, 8, ..., n-1, n-2, 3, 2, 4, n, 1]."""
    if n < 8 or n % 4 != 0:
        raise ValueError(f"alpha is defined for multiples of 4 starting at 8, got {n}")
    word = [5]
    for j in range(3, n // 2):
        word += [2 * j + 1, 2 * j]
    word += [3, 2, 4, n, 1]
    return Permutation(word)


def tight_instance(n: int) -> tuple[Permutation, frozenset[int]]:
    """A permutation and favorable code set sitting exactly on the winning bound.

    Returns (alpha_n, B_n) where B_n carries the chain family's favorable set
    through an isomorphism from the chain of (n-2)/2 triangles onto the
    overlap graph of alpha_n.  Any such isomorphism yields an equivalent
    position (asserted), so the winner does not depend on the choice.
    """
    alpha = gen_alpha(n)
    m = (n - 2) // 2
    chain = gen_chain(m)
    favorable_chain = gen_favorable(m)
    overlap = overlap_graph(alpha)
    mapping = are_isomorphic(chain, overlap)
    if mapping is None:
        raise ConstructionError(
            f"overlap graph of alpha_{n} is not a relabelled chain of {m} triangles"
        )
    favorable = frozenset(mapping[v] for v in favorable_chain)
    assert (
        positions_isomorphic(
            Position(chain, favorable_chain), Position(overlap, favorable)
        )
        is not None
    )
    return alpha, favorable


class BoundPrediction(Record):
    """Verdict ONE | TWO | UNDETERMINED plus the names of all rules that fired."""

    __slots__ = ("verdict", "rules")

    verdict: str
    rules: tuple[str, ...]


def bound_prediction(pile_size: int, a_size: int) -> BoundPrediction:
    """Winner from sizes alone, when the closed-form bounds apply.

    With P = pile_size, a = a_size, and j = P mod 4:

    * ``one-basic``:         a >= ceil(3P/4)
    * ``one-endgame-low``:   j in {0, 1} and 4a >= 3P + j
    * ``one-endgame-high``:  j in {2, 3} and 4a >= 3P + j - 4
    * ``two-basic``:         a <= max(P/4 - 2, 0)
    * ``two-endgame``:       4a <= P - j

    The ONE rules and TWO rules are mutually exclusive (audited exhaustively
    in the bounds suite); when none fire the verdict is UNDETERMINED.
    """
    if pile_size < 1:
        raise ValueError(f"pile size must be >= 1, got {pile_size}")
    if not 0 <= a_size <= pile_size:
        raise ValueError(
            f"favorable size must lie in 0..{pile_size}, got {a_size}"
        )
    p, a = pile_size, a_size
    j = p % 4
    rules = []
    if a >= -(-3 * p // 4):  # ceil(3p/4)
        rules.append("one-basic")
    if j < 2 and 4 * a >= 3 * p + j:
        rules.append("one-endgame-low")
    if j >= 2 and 4 * a >= 3 * p + j - 4:
        rules.append("one-endgame-high")
    if 4 * a <= p - 8 or a == 0:
        rules.append("two-basic")
    if 4 * a <= p - j:
        rules.append("two-endgame")
    one_fired = any(r.startswith("one-") for r in rules)
    two_fired = any(r.startswith("two-") for r in rules)
    assert not (one_fired and two_fired), (pile_size, a_size, rules)
    if one_fired:
        verdict = "ONE"
    elif two_fired:
        verdict = "TWO"
    else:
        verdict = UNDETERMINED
    return BoundPrediction(verdict, tuple(rules))
