"""Overlap graphs: pointers as vertices, interlocking pairs as edges.

The overlap graph of a permutation of {1..n} has one vertex per pointer code
1..n-1 and an edge for every interlocking pair, so its edges are exactly the
legal cds moves.  Both functions here work on the adjacency rows that one
sweep over the word gives (permutations.py): bit k-1 of a row is pointer k.
A cds move and the gcds pivot at the matching edge commute with taking
overlap graphs; ``_square`` tests one instance of that square on the rows,
for ``check_commutation`` and for the commutation suite.
"""

from __future__ import annotations

from .graphs import Graph, _from_rows, _pivot, _Universe
from .permutations import Permutation, _checked_swap, _overlap_rows

__all__ = ["overlap_graph", "check_commutation"]

# Per word length n, the universe of codes 1..n-1 that every overlap graph of
# that length shares, so graphs of many words do not each keep their own.
_UNIVERSES: dict[int, _Universe] = {}


def overlap_graph(perm: Permutation) -> Graph:
    """The overlap graph on vertex codes 1..n-1 (edgeless when n <= 2)."""
    n = perm.n
    universe = _UNIVERSES.get(n)
    if universe is None:
        universe = _UNIVERSES[n] = _Universe(range(1, n))
    return _from_rows(universe, _overlap_rows(perm.entries))


def check_commutation(perm: Permutation, p: int, q: int) -> bool:
    """Does overlap(cds_{p,q}(perm)) equal gcds(overlap(perm), {p, q})?

    Exact equality of the two labelled graphs, tested on the adjacency rows
    over the vertex codes 1..n-1 by ``_square``; no child Permutation is
    built.  p and q are validated first, as ``apply_cds`` validates them, so
    a pair that does not interlock raises NotApplicableError.
    """
    swapped = _checked_swap(perm, p, q)
    return _square(_overlap_rows(perm.entries), p, q, swapped)


def _square(rows: list, p: int, q: int, swapped: tuple) -> bool:
    """Are a word's overlap ``rows``, pivoted at {p, q} (graphs._pivot), the
    rows of ``swapped``, the word after the move (p, q)?  ``rows`` is kept."""
    pivoted = rows.copy()
    _pivot(pivoted, p - 1, q - 1)
    return pivoted == _overlap_rows(swapped)
