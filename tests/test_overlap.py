"""Tests for overlap graphs and the sorting/pivot commutation."""

from itertools import permutations as all_words

import random

import pytest
from hypothesis import given, settings, strategies as st

from cdsgame.graphs import Graph, _pivot, apply_gcds
from cdsgame.jsonio import graph_to_doc
from cdsgame.overlap import check_commutation, overlap_graph
from cdsgame.permutations import (
    NotApplicableError,
    Permutation,
    _overlap_rows,
    apply_cds,
    identity,
    interlocks,
    legal_moves,
)


def test_overlap_graph_fixture():
    g = overlap_graph(Permutation([3, 1, 4, 2, 5]))
    assert g == Graph([1, 2, 3, 4], [(1, 3), (1, 4), (2, 4)])


def test_overlap_vertices_are_all_pointer_codes():
    for n in range(2, 7):
        word = list(range(1, n + 1))
        random.Random(n).shuffle(word)
        g = overlap_graph(Permutation(word))
        assert g.vertices == frozenset(range(1, n))


def test_overlap_edges_are_the_legal_moves():
    # The graph built from the rows is the one the validating constructor
    # builds from the legal moves, in every view the package reads.
    for n in range(1, 7):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            g = overlap_graph(perm)
            ref = Graph(range(1, n), legal_moves(perm))
            assert {tuple(sorted(e)) for e in g.edges} == legal_moves(perm)
            assert g == ref and ref == g and hash(g) == hash(ref)
            assert g.key_text() == ref.key_text()
            assert g.edge_list() == ref.edge_list()
            assert graph_to_doc(g) == graph_to_doc(ref)


def test_fixed_points_have_edgeless_overlap_graphs():
    assert overlap_graph(identity(5)).n_edges() == 0
    # ...but edgeless does not mean sorted: [3,4,1,2] has no interlocking
    # pointers and no moves, yet is not the identity.
    assert overlap_graph(Permutation([3, 4, 1, 2])).n_edges() == 0
    assert legal_moves(Permutation([3, 4, 1, 2])) == set()
    assert overlap_graph(Permutation([3, 1, 4, 2, 5])).n_edges() == 3


def test_commutation_on_the_worked_example():
    beta = Permutation([3, 6, 5, 2, 4, 8, 1, 7])
    assert check_commutation(beta, 3, 6)
    # The cds move validates the pair before any rows are pivoted.
    with pytest.raises(NotApplicableError):
        check_commutation(Permutation([3, 1, 4, 2, 5]), 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        check_commutation(beta, 3, 8)


def test_commutation_exhaustive_small():
    # The row-level square agrees with the square of labelled graphs.
    for n in range(2, 7):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            for p, q in legal_moves(perm):
                graphs_commute = overlap_graph(apply_cds(perm, p, q)) == apply_gcds(
                    overlap_graph(perm), (p, q))
                assert check_commutation(perm, p, q) == graphs_commute
                assert graphs_commute


def test_commutation_sampled_larger():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.choice((7, 8, 9))
        word = list(range(1, n + 1))
        rng.shuffle(word)
        perm = Permutation(word)
        moves = sorted(legal_moves(perm))
        if not moves:
            continue
        p, q = moves[rng.randrange(len(moves))]
        assert check_commutation(perm, p, q)
        # Spelled out: the overlap graph of the swapped permutation is the
        # pivoted overlap graph.
        assert overlap_graph(apply_cds(perm, p, q)) == apply_gcds(
            overlap_graph(perm), (p, q)
        )


def _reference_commutation(perm, p, q):
    # The square through a validated child Permutation, as the check was
    # first written.
    child = apply_cds(perm, p, q)
    rows = _overlap_rows(perm.entries)
    _pivot(rows, p - 1, q - 1)
    return rows == _overlap_rows(child.entries)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 12).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.integers(1, n - 1), st.integers(1, n - 1))))
def test_commutation_on_rows_matches_a_child_permutation_reference(case):
    word, p, q = case
    perm = Permutation(word)
    for a, b in legal_moves(perm):
        assert check_commutation(perm, a, b) is _reference_commutation(perm, a, b) is True
    if p == q or not interlocks(perm, p, q):
        with pytest.raises(NotApplicableError, match=f"pointers {p} and {q} do not interlock"):
            check_commutation(perm, p, q)
    else:
        assert check_commutation(perm, p, q) is _reference_commutation(perm, p, q)
