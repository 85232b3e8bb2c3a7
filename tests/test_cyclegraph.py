"""Tests for cycle graphs, strategic piles, and sortability."""

from itertools import permutations as all_words

import pytest

from cdsgame import games
from cdsgame.cyclegraph import (
    SizeBoundError,
    achievable_fixed_points,
    alternating_cycles,
    build_cycle_graph,
    is_sortable,
    strategic_pile,
)
from cdsgame.games import clear_memos
from cdsgame.permutations import (
    Permutation,
    apply_cds,
    fixed_point_code,
    identity,
    is_fixed_point,
    legal_moves,
)


BETA = Permutation([3, 6, 5, 2, 4, 8, 1, 7])


def _reference_sortable(perm: Permutation) -> bool:
    """Can some sequence of cds moves reach the identity?  A plain search,
    independent of the pile and of the solver's successor memo."""
    target = identity(perm.n)
    memo: dict[Permutation, bool] = {}

    def reachable(state: Permutation) -> bool:
        if state == target:
            return True
        known = memo.get(state)
        if known is None:
            known = memo[state] = any(
                reachable(apply_cds(state, p, q)) for p, q in sorted(legal_moves(state))
            )
        return known

    return reachable(perm)


def _reference_achievable_fixed_points(perm: Permutation) -> frozenset:
    """The fixed-point codes reachable from ``perm``, walked with a fresh
    dict per call and no successor memo."""
    memo: dict[Permutation, frozenset] = {}

    def walk(state: Permutation) -> frozenset:
        known = memo.get(state)
        if known is None:
            if is_fixed_point(state):
                known = frozenset({fixed_point_code(state)})
            else:
                known = frozenset().union(
                    *(walk(apply_cds(state, p, q)) for p, q in sorted(legal_moves(state)))
                )
            memo[state] = known
        return known

    return walk(perm)


def _reference_pile(word: tuple[int, ...]) -> tuple[int, ...]:
    """The pile in walk order, read off the cycle graph's definition: the
    dotted edges met between n -> n+1 and 0 -> 1 on the alternating cycle
    through both, with black edges a_i -> a_{i-1}, n+1 -> a_n and a_1 -> 0."""
    n = len(word)
    black = {word[i]: word[i - 1] for i in range(1, n)}
    black[n + 1] = word[-1]
    black[word[0]] = 0
    tails = [n]  # the dotted edges t -> t+1 of the cycle through n -> n+1
    while (t := black[tails[-1] + 1]) != n:
        tails.append(t)
    return tuple(tails[1:tails.index(0)]) if 0 in tails else ()


def _check_walks_against_the_references(top: int) -> None:
    for n in range(1, top + 1):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            achieved = achievable_fixed_points(perm)
            assert achieved == _reference_achievable_fixed_points(perm), word
            assert (None in achieved) == _reference_sortable(perm), word


def test_cycle_graph_of_the_worked_example():
    cg = build_cycle_graph(BETA)
    assert cg.n == 8
    assert cg.black_successor == {
        6: 3, 5: 6, 2: 5, 4: 2, 8: 4, 1: 8, 7: 1, 9: 7, 3: 0,
    }
    assert cg.dotted_edges == [(k, k + 1) for k in range(9)]
    assert sorted(cg.black_edges) == sorted(
        (u, v) for u, v in cg.black_successor.items()
    )


def test_alternating_cycles_partition_every_edge():
    for n in range(1, 7):
        for word in all_words(range(1, n + 1)):
            cg = build_cycle_graph(Permutation(word))
            seen = set()
            total = 0
            for cycle in alternating_cycles(cg).cycles:
                # Colors alternate around the cycle, so its length is even.
                colors = [color for color, _, _ in cycle]
                assert all(
                    colors[i] != colors[(i + 1) % len(colors)]
                    for i in range(len(colors))
                )
                seen.update(cycle)
                total += len(cycle)
            assert total == 2 * (n + 1)
            assert len(seen) == total


def test_worked_example_is_one_cycle_with_full_pile():
    decomposition = alternating_cycles(build_cycle_graph(BETA))
    assert len(decomposition) == 1
    assert len(decomposition.cycles[0]) == 18
    pile = strategic_pile(BETA)
    assert tuple(pile) == (7, 4, 6, 1, 5, 3, 2)
    assert pile.as_set() == frozenset(range(1, 8))
    assert not is_sortable(BETA)


def test_small_pile_example():
    pile = strategic_pile(Permutation([2, 4, 1, 3]))
    assert tuple(pile) == (3, 2, 1)
    assert len(pile) == 3
    assert 2 in pile and 4 not in pile


def test_identity_and_rotations():
    assert len(strategic_pile(identity(5))) == 0
    assert is_sortable(identity(5))
    rot = Permutation([3, 4, 5, 1, 2])
    assert strategic_pile(rot).as_set() == {2}
    assert not is_sortable(rot)


def test_pile_walk_order_matches_the_definition_up_to_seven():
    for n in range(1, 8):
        for word in all_words(range(1, n + 1)):
            assert tuple(strategic_pile(Permutation(word))) == _reference_pile(word), word


def test_pile_empty_iff_bruteforce_sortable():
    for n in range(1, 6):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            assert is_sortable(perm) == _reference_sortable(perm)


def test_achievable_fixed_points_match_the_references(monkeypatch):
    _check_walks_against_the_references(6)  # through one shared memo
    clear_memos()
    _check_walks_against_the_references(6)  # from an empty memo
    monkeypatch.setattr(games, "MEMO_CHILDREN", 8)
    clear_memos()
    _check_walks_against_the_references(6)  # the memo empties mid-walk
    _, misses, _, held = games._cds_successors.cache_info()
    assert misses > held
    clear_memos()


@pytest.mark.slow
def test_achievable_fixed_points_match_the_references_at_n7():
    _check_walks_against_the_references(7)


def test_achievable_fixed_points_examples():
    assert achievable_fixed_points(Permutation([2, 4, 1, 3])) == frozenset({1, 2, 3})
    assert achievable_fixed_points(identity(4)) == frozenset({None})
    assert achievable_fixed_points(Permutation([2, 3, 1])) == frozenset({1})


def test_achievable_codes_match_the_pile():
    for n in range(1, 6):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            pile = strategic_pile(perm)
            expected = frozenset({None}) if len(pile) == 0 else pile.as_set()
            assert achievable_fixed_points(perm) == expected


def test_search_size_bounds():
    big = identity(9)
    with pytest.raises(SizeBoundError):
        achievable_fixed_points(big)
    assert achievable_fixed_points(big, max_n=9) == frozenset({None})
