"""Tests for the two game solvers and the solve cache."""

import os
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cdsgame.cyclegraph import SizeBoundError, strategic_pile
from cdsgame.families import gen_chain, gen_favorable, tight_instance
from cdsgame.games import (
    ONE,
    TWO,
    CacheFormatError,
    CdsState,
    GcdsState,
    SolveCache,
    cache_load,
    cache_save,
    cds_terminal_winner,
    gcds_terminal_winner,
    graph_state_key,
    np_status,
    opponent,
    perm_state_key,
    solve_cds,
    solve_gcds,
)
from cdsgame.graphs import Graph, Position, apply_gcds2
from cdsgame.permutations import Permutation, apply_cds, identity, legal_moves


REPLAY_GRAPH = Graph(
    range(1, 8),
    [(1, 2), (1, 3), (1, 4), (1, 7), (2, 3), (2, 4), (2, 6),
     (3, 4), (3, 6), (4, 5), (5, 6), (6, 7)],
)


def test_opponent():
    assert opponent(ONE) == TWO and opponent(TWO) == ONE
    with pytest.raises(ValueError):
        opponent("THREE")


def test_gcds_terminal_winner():
    empty = Graph([], [])
    assert gcds_terminal_winner(Position(empty, frozenset())) == TWO
    lone = Graph([5], [])
    assert gcds_terminal_winner(Position(lone, frozenset({5}))) == ONE
    assert gcds_terminal_winner(Position(lone, frozenset())) == TWO
    pair = Graph([1, 2], [])
    assert gcds_terminal_winner(Position(pair, frozenset({1, 2}))) == ONE
    assert gcds_terminal_winner(Position(pair, frozenset({1}))) == TWO
    with pytest.raises(ValueError):
        gcds_terminal_winner(Position(Graph([1, 2], [(1, 2)]), frozenset()))


def test_cds_terminal_winner():
    assert cds_terminal_winner(identity(4), frozenset({1, 2, 3})) == TWO
    rot = Permutation([4, 1, 2, 3])
    assert cds_terminal_winner(rot, frozenset({3})) == ONE
    assert cds_terminal_winner(rot, frozenset({1})) == TWO
    with pytest.raises(ValueError):
        cds_terminal_winner(Permutation([2, 4, 1, 3]), frozenset())


def test_state_constructors_validate():
    with pytest.raises(ValueError):
        GcdsState(Position(gen_chain(1), frozenset({2})), "NEITHER")
    with pytest.raises(ValueError):
        CdsState(Permutation([2, 1]), frozenset({5}), ONE)
    with pytest.raises(ValueError):
        CdsState(Permutation([2, 1]), frozenset({1}), "X")


def test_solve_gcds_one_triangle():
    report = solve_gcds(GcdsState(Position(gen_chain(1), gen_favorable(1)), ONE))
    assert report.winner == ONE
    assert report.principal_variation == ((1, 3),)
    assert report.nodes_expanded >= 1


def test_solve_gcds_two_triangles_is_a_second_player_win():
    report = solve_gcds(GcdsState(Position(gen_chain(2), gen_favorable(2)), ONE))
    assert report.winner == TWO


def test_solve_gcds_replay_fixture():
    report = solve_gcds(GcdsState(Position(REPLAY_GRAPH, frozenset({1, 3, 5, 7})), ONE))
    assert report.winner == ONE
    # Replay the principal variation by hand and land on a ONE-terminal.
    graph, favorable = REPLAY_GRAPH, frozenset({1, 3, 5, 7})
    for move in report.principal_variation:
        graph = apply_gcds2(graph, move)
        favorable = favorable & graph.vertices
    assert gcds_terminal_winner(Position(graph, favorable)) == ONE


def test_solve_cds_small_games():
    perm = Permutation([2, 4, 1, 3])
    assert solve_cds(CdsState(perm, frozenset({1}), ONE)).winner == ONE
    assert solve_cds(CdsState(perm, frozenset({1, 2, 3}), ONE)).winner == ONE
    assert solve_cds(CdsState(perm, frozenset(), ONE)).winner == TWO
    # With favorable {1} TWO moving first can dodge code 1.
    assert solve_cds(CdsState(perm, frozenset({1}), TWO)).winner == TWO


def test_solve_cds_principal_variation_replays_to_terminal():
    perm = Permutation([2, 4, 1, 3])
    favorable = frozenset({2})
    report = solve_cds(CdsState(perm, favorable, ONE))
    state = perm
    for p, q in report.principal_variation:
        state = apply_cds(state, p, q)
    assert cds_terminal_winner(state, favorable) == report.winner


def test_np_status_on_chains():
    cache = SolveCache()
    for m, expected in ((1, "N"), (2, "P"), (3, "N")):
        rep = np_status(Position(gen_chain(m), gen_favorable(m)), cache=cache)
        assert rep.status == expected
        assert not rep.anomaly
        if expected == "N":
            assert rep.winner_one_first == ONE and rep.winner_two_first == TWO
        else:
            assert rep.winner_one_first == TWO and rep.winner_two_first == ONE


def test_warm_cache_speeds_up_and_agrees():
    state = GcdsState(Position(gen_chain(3), gen_favorable(3)), ONE)
    cache = SolveCache()
    cold = solve_gcds(state, cache=cache)
    warm = solve_gcds(state, cache=cache)
    assert warm.winner == cold.winner
    assert warm.principal_variation == cold.principal_variation
    assert warm.nodes_expanded < cold.nodes_expanded
    assert warm.cache_hits >= 1


def test_winner_is_invariant_under_relabeling():
    rng = random.Random(11)
    labels = list("abcdefghij")
    for _ in range(30):
        n = rng.randrange(2, 9)
        verts = list(range(1, n + 1))
        edges = [e for e in combinations(verts, 2) if rng.random() < 0.5]
        g = Graph(verts, edges)
        favorable = frozenset(v for v in verts if rng.random() < 0.4)
        mapping = dict(zip(verts, rng.sample(labels, n)))
        h = g.relabel(mapping)
        image = frozenset(mapping[v] for v in favorable)
        for mover in (ONE, TWO):
            w1 = solve_gcds(GcdsState(Position(g, favorable), mover)).winner
            w2 = solve_gcds(GcdsState(Position(h, image), mover)).winner
            assert w1 == w2


def test_solver_size_bounds_and_overrides():
    big = Graph(range(17), [(0, 1)])
    with pytest.raises(SizeBoundError):
        solve_gcds(GcdsState(Position(big, frozenset()), ONE))
    report = solve_gcds(GcdsState(Position(big, frozenset()), ONE), max_vertices=17)
    assert report.winner == TWO  # only isolated vertices survive, none favorable
    word = list(range(1, 12))
    with pytest.raises(SizeBoundError):
        solve_cds(CdsState(Permutation(word), frozenset(), ONE))
    report = solve_cds(CdsState(Permutation(word), frozenset(), ONE), max_n=11)
    assert report.winner == TWO  # the identity is already sorted


def test_state_keys_are_stable_and_safe():
    key = graph_state_key(gen_chain(1), frozenset({2}), ONE)
    assert key == "G|1,2,3|1-2,1-3,2-3|2|1"
    key = perm_state_key(Permutation([2, 4, 1, 3]), frozenset({3, 1}), TWO)
    assert key == "P|2 4 1 3|1,3|2"
    with pytest.raises(ValueError):
        graph_state_key(Graph(["a b"], []), frozenset(), ONE)
    with pytest.raises(ValueError):
        graph_state_key(Graph(["x|y"], []), frozenset(), ONE)


def test_cache_round_trip(tmp_path):
    cache = SolveCache()
    solve_gcds(GcdsState(Position(gen_chain(2), gen_favorable(2)), ONE), cache=cache)
    path = tmp_path / "solve.tsv"
    cache_save(cache, path)
    loaded = cache_load(path)
    assert sorted(loaded.items()) == sorted(cache.items())
    head = path.read_text().splitlines()[0]
    assert head == "GCDSCACHE 1"
    # Saves are canonical: same contents, same bytes.
    again = tmp_path / "again.tsv"
    cache_save(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_cache_load_rejects_corruption(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("GCDSCACHE 1\nG|1|||1\tONE\njunk\nP|1|x|1\tMAYBE\n")
    with pytest.raises(CacheFormatError, match="3, 4"):
        cache_load(path)
    path.write_text("GCDSCACHE 7\n")
    with pytest.raises(CacheFormatError, match="version"):
        cache_load(path)
    path.write_text("")
    with pytest.raises(CacheFormatError, match="header"):
        cache_load(path)
    path.write_text("NOTACACHE 1\n")
    with pytest.raises(CacheFormatError, match="header"):
        cache_load(path)


def test_cache_merge_conflicts_are_loud():
    a = SolveCache()
    a.put("G|1|||1", ONE)
    b = SolveCache()
    b.put("G|1|||1", TWO)
    with pytest.raises(CacheFormatError, match="conflicting"):
        a.merge(b)
    c = SolveCache()
    c.put("G|2|||1", ONE)
    assert a.merge(c) == 1
    assert len(a) == 2


def test_cached_solves_cross_sessions(tmp_path):
    state = GcdsState(Position(gen_chain(3), gen_favorable(3)), ONE)
    cache = SolveCache()
    first = solve_gcds(state, cache=cache)
    path = tmp_path / "warm.tsv"
    cache_save(cache, path)
    reloaded = cache_load(path)
    second = solve_gcds(state, cache=reloaded)
    assert second.winner == first.winner
    assert second.nodes_expanded < first.nodes_expanded


def test_gcds_favorable_outside_graph_is_rejected():
    with pytest.raises(ValueError):
        GcdsState(Position(gen_chain(1), frozenset({9})), ONE)


def test_cache_save_failure_leaves_old_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "solve.tsv"
    old = SolveCache()
    old.put("G|1|||1", TWO)
    cache_save(old, path)
    before = path.read_bytes()
    new = SolveCache()
    new.put("G|2|||1", ONE)

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        cache_save(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["solve.tsv"]


def _fields(report):
    return (report.winner, report.principal_variation,
            report.nodes_expanded, report.cache_hits)


def test_solve_reports_are_pinned():
    # Every field, search counts included, as the two per-game solvers that
    # preceded the shared engine reported them.
    alpha, favorable = tight_instance(8)
    assert _fields(solve_cds(CdsState(alpha, favorable, ONE))) == (
        ONE, ((5, 6), (1, 2), (3, 7)), 26, 40)
    replay = GcdsState(Position(REPLAY_GRAPH, frozenset({1, 3, 5, 7})), ONE)
    assert _fields(solve_gcds(replay)) == (ONE, ((1, 2), (3, 4), (5, 6)), 11, 13)
    chain = GcdsState(Position(gen_chain(3), gen_favorable(3)), ONE)
    cache = SolveCache()
    assert _fields(solve_gcds(chain, cache=cache)) == (ONE, ((5, 6), (1, 2), (3, 7)), 27, 40)
    assert _fields(solve_gcds(chain, cache=cache)) == (ONE, ((5, 6), (1, 2), (3, 7)), 0, 16)
    small = CdsState(Permutation([2, 4, 1, 3]), frozenset({1}), TWO)
    assert _fields(solve_cds(small)) == (TWO, ((1, 2),), 2, 1)
    # The two solves np_status makes on chain 5, in one cache as it makes them.
    chain5 = Position(gen_chain(5), gen_favorable(5))
    assert np_status(chain5).status == "N"
    cache = SolveCache()
    assert _fields(solve_gcds(GcdsState(chain5, ONE), cache=cache)) == (
        ONE, ((5, 6), (1, 2), (9, 10), (3, 4), (7, 11)), 150, 308)
    assert _fields(solve_gcds(GcdsState(chain5, TWO), cache=cache)) == (
        TWO, ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)), 48, 77)
    # String labels order the moves by name: the chain 3 with 1..7 renamed g..a.
    names = dict(zip(range(1, 8), "gfedcba"))
    lettered = Position(gen_chain(3).relabel(names),
                        frozenset(names[v] for v in gen_favorable(3)))
    assert _fields(solve_gcds(GcdsState(lettered, ONE))) == (
        ONE, (("a", "b"), ("c", "d"), ("e", "g")), 12, 16)
    assert _fields(solve_gcds(GcdsState(lettered, TWO))) == (
        TWO, (("a", "b"), ("c", "d"), ("e", "f")), 13, 11)
    # The cache keys a solve leaves carry only the favorable vertices still alive.
    cache = SolveCache()
    solve_gcds(GcdsState(Position(gen_chain(2), frozenset({2, 4})), ONE), cache=cache)
    assert sorted(cache.items()) == [
        ("G|1,2,3,4,5|1-2,1-3,2-3,3-4,3-5,4-5|2,4|1", TWO),
        ("G|1,2,3|1-2,1-3,2-3|2|2", TWO), ("G|1,2,4|1-2,1-4,2-4|2,4|2", TWO),
        ("G|1,2,5|1-2,1-5,2-5|2|2", TWO), ("G|1,4,5|1-4,1-5,4-5|4|2", TWO),
        ("G|1|||1", TWO), ("G|2,4,5|2-4,2-5,4-5|2,4|2", TWO), ("G|2||2|1", ONE),
        ("G|3,4,5|3-4,3-5,4-5|4|2", TWO), ("G|3|||1", TWO), ("G|4||4|1", ONE),
        ("G|5|||1", TWO),
    ]


# The tight cds solves as the pairwise move generator (interlocks on every
# pointer pair) reported them; the slot-interval fast path must not move them.
TIGHT_CDS_REPORTS = {
    (12, ONE): (ONE, ((5, 6), (1, 2), (3, 11), (4, 9), (7, 10)), 115, 208),
    (12, TWO): (TWO, ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)), 48, 77),
    (16, ONE): (ONE, ((5, 6), (1, 2), (3, 15), (4, 13), (7, 9), (8, 10), (11, 14)), 625, 1444),
    (16, TWO): (TWO, ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14)), 204, 473),
    (20, ONE): (ONE, ((5, 6), (1, 2), (3, 19), (4, 17), (7, 9), (8, 10), (11, 13),
                      (12, 14), (15, 18)), 3288, 9594),
    (20, TWO): (TWO, ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14),
                      (15, 16), (17, 18)), 877, 2735),
}


@pytest.mark.parametrize("n, mover", sorted(TIGHT_CDS_REPORTS))
def test_tight_cds_solve_reports_are_pinned(n, mover):
    alpha, favorable = tight_instance(n)
    report = solve_cds(CdsState(alpha, favorable, mover), max_n=n)
    assert _fields(report) == TIGHT_CDS_REPORTS[n, mover]


def test_cds_state_rejects_bool_codes():
    # True == 1, but a bool code would give the state a second cache key.
    with pytest.raises(ValueError, match="True"):
        CdsState(Permutation([2, 4, 1, 3]), frozenset({True}), ONE)
    CdsState(Permutation([2, 4, 1, 3]), frozenset({1}), ONE)


# Plain uncached minimax, written from the rules of the two games.
def _minimax_cds(perm, favorable, mover):
    moves = sorted(legal_moves(perm))
    if not moves:  # a fixed point: the identity, or the rotation with code e[0]-1
        return ONE if perm.entries[0] - 1 in favorable else TWO
    if any(_minimax_cds(apply_cds(perm, p, q), favorable, opponent(mover)) == mover
           for p, q in moves):
        return mover
    return opponent(mover)


def _minimax_gcds(graph, favorable, mover):
    if not graph.edges:
        alive = graph.vertices
        return ONE if alive and alive <= favorable else TWO
    for edge in graph.edge_list():
        child = apply_gcds2(graph, edge)
        if _minimax_gcds(child, favorable & child.vertices, opponent(mover)) == mover:
            return mover
    return opponent(mover)


@st.composite
def _cds_games(draw):
    n = draw(st.integers(2, 6))
    perm = Permutation(draw(st.permutations(range(1, n + 1))))
    favorable = frozenset(draw(st.sets(st.integers(1, n - 1))))
    return perm, favorable, draw(st.sampled_from((ONE, TWO)))


@st.composite
def _gcds_games(draw):
    n = draw(st.integers(0, 6))
    vertices = list(range(1, n + 1))
    pairs = list(combinations(vertices, 2))
    edges = [pair for pair, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    favorable = frozenset(draw(st.sets(st.sampled_from(vertices)))) if vertices else frozenset()
    return Graph(vertices, edges), favorable, draw(st.sampled_from((ONE, TWO)))


@settings(max_examples=150, deadline=None)
@given(_cds_games())
def test_cds_engine_agrees_with_plain_minimax(game):
    perm, favorable, mover = game
    assert solve_cds(CdsState(perm, favorable, mover)).winner == _minimax_cds(
        perm, favorable, mover)


@settings(max_examples=150, deadline=None)
@given(_gcds_games())
def test_gcds_engine_agrees_with_plain_minimax(game):
    graph, favorable, mover = game
    assert solve_gcds(GcdsState(Position(graph, favorable), mover)).winner == _minimax_gcds(
        graph, favorable, mover)
