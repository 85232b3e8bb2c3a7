"""Tests for the named families and the closed-form winner rules."""

from itertools import combinations, permutations as all_words

import pytest

from cdsgame.cyclegraph import strategic_pile
from cdsgame.families import (
    UNDETERMINED,
    bound_prediction,
    expected_np,
    gen_alpha,
    gen_chain,
    gen_favorable,
    tight_instance,
)
from cdsgame.games import ONE, TWO, CdsState, SolveCache, solve_cds
from cdsgame.graphs import (
    Graph,
    Position,
    apply_gcds2,
    are_isomorphic,
    positions_isomorphic,
)
from cdsgame.overlap import overlap_graph
from cdsgame.permutations import Permutation, is_fixed_point

from test_graphs import without_vertices


def test_gen_chain_small_cases():
    assert gen_chain(1) == Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    g3 = gen_chain(3)
    assert g3.n_vertices() == 7 and g3.n_edges() == 9
    assert g3.edge_list() == [
        (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7), (6, 7),
    ]
    with pytest.raises(ValueError):
        gen_chain(0)


def test_gen_chain_counts_and_nesting():
    for m in range(1, 21):
        g = gen_chain(m)
        assert g.n_vertices() == 2 * m + 1
        assert g.n_edges() == 3 * m
        bigger = gen_chain(m + 1)
        assert without_vertices(bigger, {2 * m + 2, 2 * m + 3}) == g


def test_gen_favorable():
    assert gen_favorable(1) == {2}
    assert gen_favorable(2) == {2, 4}
    assert gen_favorable(5) == {2, 4, 8}
    for m in range(1, 51):
        fav = gen_favorable(m)
        assert fav == {2} | {k for k in range(4, 2 * m + 2, 4)}
        assert len(fav) == 1 + (2 * m + 1) // 4
        assert fav <= gen_chain(m).vertices
    with pytest.raises(ValueError):
        gen_favorable(0)


def test_expected_np_parity():
    assert [expected_np(m) for m in range(1, 7)] == ["N", "P", "N", "P", "N", "P"]
    with pytest.raises(ValueError):
        expected_np(0)


def test_gen_alpha_instances():
    assert list(gen_alpha(8)) == [5, 7, 6, 3, 2, 4, 8, 1]
    assert list(gen_alpha(12)) == [5, 7, 6, 9, 8, 11, 10, 3, 2, 4, 12, 1]
    for n in (8, 12, 16, 20):
        alpha = gen_alpha(n)
        assert alpha.n == n
        assert not is_fixed_point(alpha)
    for bad in (7, 6, 4, 10, 0):
        with pytest.raises(ValueError):
            gen_alpha(bad)


def test_alpha_has_a_full_pile():
    for n in (8, 12):
        pile = strategic_pile(gen_alpha(n))
        assert len(pile) == n - 1
        assert (n - 1) % 4 == 3


def test_alpha_overlap_is_a_triangle_chain():
    for n in (8, 12, 16):
        graph = overlap_graph(gen_alpha(n))
        assert are_isomorphic(graph, gen_chain((n - 2) // 2)) is not None


def test_tight_instance_arithmetic_and_isomorphism():
    for n, size in ((8, 2), (12, 3)):
        alpha, favorable = tight_instance(n)
        assert alpha == gen_alpha(n)
        assert len(favorable) == size
        assert favorable <= strategic_pile(alpha).as_set()
        m = (n - 2) // 2
        assert positions_isomorphic(
            Position(overlap_graph(alpha), favorable),
            Position(gen_chain(m), gen_favorable(m)),
        )


def test_tight_instance_favorable_sets_are_pinned():
    # B_n follows the first mapping the isomorphism search returns.
    expected = [3, 4]
    for n in range(8, 29, 4):
        assert tight_instance(n)[1] == frozenset(expected), n
        expected.append(n)


def test_chain_to_alpha_overlap_mapping_is_pinned():
    mapping = are_isomorphic(gen_chain(3), overlap_graph(gen_alpha(8)))
    assert list(mapping.items()) == [(4, 4), (3, 1), (5, 7), (1, 2), (2, 3), (6, 5), (7, 6)]


def test_tight_instance_rejects_bad_sizes():
    for bad in (7, 10, 4):
        with pytest.raises(ValueError):
            tight_instance(bad)


def test_bound_prediction_examples():
    pred = bound_prediction(7, 1)
    assert pred.verdict == TWO and "two-endgame" in pred.rules
    assert bound_prediction(7, 2).verdict == UNDETERMINED
    pred = bound_prediction(8, 6)
    assert pred.verdict == ONE and "one-basic" in pred.rules
    assert bound_prediction(4, 0).verdict == TWO
    assert bound_prediction(1, 1).verdict == ONE


def test_bound_prediction_validates_arguments():
    with pytest.raises(ValueError):
        bound_prediction(0, 0)
    with pytest.raises(ValueError):
        bound_prediction(3, 4)
    with pytest.raises(ValueError):
        bound_prediction(3, -1)


def test_bound_prediction_rules_never_cross():
    # ONE-rules and TWO-rules never fire together (the constructor asserts
    # it; this sweep would explode if the clauses ever overlapped).
    for pile_size in range(1, 33):
        for a_size in range(pile_size + 1):
            pred = bound_prediction(pile_size, a_size)
            assert pred.verdict in (ONE, TWO, UNDETERMINED)
            assert (pred.verdict == UNDETERMINED) == (not pred.rules)


def test_bound_prediction_is_monotone_in_favorable_size():
    # Once the first-player rules fire they keep firing as A grows, and the
    # second-player rules as A shrinks.
    for pile_size in range(1, 33):
        verdicts = [bound_prediction(pile_size, a).verdict for a in range(pile_size + 1)]
        first_one = next((i for i, v in enumerate(verdicts) if v == ONE), None)
        last_two = next(
            (i for i in range(len(verdicts) - 1, -1, -1) if verdicts[i] == TWO), None
        )
        if first_one is not None:
            assert all(v == ONE for v in verdicts[first_one:])
        if last_two is not None:
            assert all(v == TWO for v in verdicts[: last_two + 1])


def test_bound_prediction_agrees_with_the_solver_at_n_five():
    cache = SolveCache()
    for word in all_words(range(1, 6)):
        perm = Permutation(word)
        pile = strategic_pile(perm)
        if len(pile) == 0:
            continue
        codes = sorted(pile.as_set())
        for r in range(len(codes) + 1):
            pred = bound_prediction(len(pile), r)
            if pred.verdict == UNDETERMINED:
                continue
            for combo in combinations(codes, r):
                winner = solve_cds(
                    CdsState(perm, frozenset(combo), ONE), cache=cache
                ).winner
                assert winner == pred.verdict


def test_chain_collapse_behavior_is_pinned():
    # Pivot-and-prune at an edge of the triangle chain contracts it to the
    # next smaller chain for boundary and triangle edges.  At interior
    # glue-glue edges (both endpoints odd, triangles on both sides) the
    # cross-column toggles complete a clique instead, so the contraction
    # fails there -- and only there.
    failing = []
    for m in range(2, 7):
        chain = gen_chain(m)
        smaller = gen_chain(m - 1)
        for edge in chain.edge_list():
            if are_isomorphic(apply_gcds2(chain, edge), smaller) is None:
                failing.append((m, edge))
    expected = [
        (m, (2 * k + 1, 2 * k + 3)) for m in range(3, 7) for k in range(1, m - 1)
    ]
    assert failing == expected


def test_chain_collapse_at_the_smallest_failing_edge_is_a_clique():
    out = apply_gcds2(gen_chain(3), (3, 5))
    assert out.vertices == {1, 2, 4, 6, 7}
    assert out.n_edges() == 10  # all pairs: the masterlist became a clique
