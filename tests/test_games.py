"""Tests for the two game solvers and the solve cache."""

import os
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cdsgame import games
from cdsgame.cyclegraph import SizeBoundError, strategic_pile
from cdsgame.families import gen_chain, gen_favorable, tight_instance
from cdsgame.games import (
    ONE,
    TWO,
    CacheFormatError,
    CdsGame,
    CdsState,
    GcdsGame,
    GcdsState,
    SolveCache,
    cache_load,
    cache_save,
    cds_terminal_winner,
    clear_memos,
    gcds_terminal_winner,
    graph_state_key,
    memo_stats,
    np_status,
    opponent,
    perm_state_key,
    solve_cds,
    solve_gcds,
)
from cdsgame.graphs import Graph, Position, apply_gcds2
from cdsgame.permutations import Permutation, apply_cds, identity, legal_moves

from test_graphs import _reference_apply_gcds2, all_graphs, without_vertices


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
    # The graph's first bad label is named, not a later favorable one.
    with pytest.raises(ValueError, match="^vertex label 'a b' cannot be used"):
        graph_state_key(Graph([1, "a b", "z|y"], [(1, "a b")]), frozenset({"z|y"}), ONE)


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


def test_cache_merge_adopts_nothing_on_a_conflict():
    a = SolveCache()
    a.put("P|1 2|1|1", ONE)
    b = SolveCache()
    b.put("P|2 1|1|1", TWO)  # new to a, and met before the conflicting key
    b.put("P|1 2|1|1", TWO)
    with pytest.raises(CacheFormatError, match="conflicting winners for key 'P|1 2|1|1'"):
        a.merge(b)
    assert sorted(a.items()) == [("P|1 2|1|1", ONE)]


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


# Plain uncached minimax, written from the rules of the two games.  The gcds
# one pivots by the master-list rules, not through the solver's mask pivot.
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
        child = _reference_apply_gcds2(graph, edge)
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


def _assert_gcds_engine_agrees_on_every_game(n):
    """Every labelled graph on 1..n, every favorable set, both movers."""
    for graph in all_graphs(n):
        vertices = graph.vertex_list()
        for mask in range(1 << n):
            favorable = frozenset(v for i, v in enumerate(vertices) if mask >> i & 1)
            for mover in (ONE, TWO):
                solved = solve_gcds(GcdsState(Position(graph, favorable), mover)).winner
                assert solved == _minimax_gcds(graph, favorable, mover), (graph, favorable, mover)


@pytest.mark.parametrize("n", range(5))
def test_gcds_engine_agrees_with_plain_minimax_on_every_small_game(n):
    _assert_gcds_engine_agrees_on_every_game(n)


@pytest.mark.slow
def test_gcds_engine_agrees_with_plain_minimax_on_every_five_vertex_game():
    _assert_gcds_engine_agrees_on_every_game(5)


# ---------------------------------------------------------------------------
# The lazy successor memos and the cached key text.

def _pinned_solves():
    """The solves of test_solve_reports_are_pinned plus both tight B_12 solves,
    in order, each sharing a cache where that test shares one."""
    alpha, favorable = tight_instance(8)
    yield solve_cds(CdsState(alpha, favorable, ONE))
    yield solve_gcds(GcdsState(Position(REPLAY_GRAPH, frozenset({1, 3, 5, 7})), ONE))
    chain = GcdsState(Position(gen_chain(3), gen_favorable(3)), ONE)
    cache = SolveCache()
    yield solve_gcds(chain, cache=cache)
    yield solve_gcds(chain, cache=cache)
    yield solve_cds(CdsState(Permutation([2, 4, 1, 3]), frozenset({1}), TWO))
    chain5 = Position(gen_chain(5), gen_favorable(5))
    cache = SolveCache()
    yield solve_gcds(GcdsState(chain5, ONE), cache=cache)
    yield solve_gcds(GcdsState(chain5, TWO), cache=cache)
    names = dict(zip(range(1, 8), "gfedcba"))
    lettered = Position(gen_chain(3).relabel(names),
                        frozenset(names[v] for v in gen_favorable(3)))
    yield solve_gcds(GcdsState(lettered, ONE))
    yield solve_gcds(GcdsState(lettered, TWO))
    alpha, favorable = tight_instance(12)
    yield solve_cds(CdsState(alpha, favorable, ONE), max_n=12)
    yield solve_cds(CdsState(alpha, favorable, TWO), max_n=12)


def test_every_cache_info_of_games_reads_as_four_ints():
    # The benchmark calls cache_info() on every attribute of games that has one.
    found = 0
    for name, value in vars(games).items():
        info = getattr(value, "cache_info", None)
        if callable(info):
            found += 1
            counts = info()
            assert len(counts) == 4 and all(type(c) is int for c in counts), name
    assert found == 2


def test_bounded_memo_gives_the_same_reports(monkeypatch):
    clear_memos()
    expected = list(_pinned_solves())
    bound, fan_out, held = 8, [0], []

    def watch(key):
        def keyed(state, favorable, mover):
            moves = legal_moves(state) if isinstance(state, Permutation) else state.moves()
            fan_out[0] = max(fan_out[0], len(moves))
            held.append(max(m["children"] for m in memo_stats().values()))
            return key(state, favorable, mover)
        return keyed

    monkeypatch.setattr(games, "MEMO_CHILDREN", bound)
    monkeypatch.setattr(games, "perm_state_key", watch(games.perm_state_key))
    monkeypatch.setattr(games, "_board_key", watch(games._board_key))
    clear_memos()
    assert list(_pinned_solves()) == expected
    assert max(held) <= bound + fan_out[0]
    assert all(info["states"] <= bound for info in memo_stats().values())
    clear_memos()


def test_clear_memos_empties_both_memos():
    alpha, favorable = tight_instance(8)
    state = CdsState(alpha, favorable, ONE)
    first = solve_cds(state)
    solve_gcds(GcdsState(Position(gen_chain(2), gen_favorable(2)), ONE))
    assert all(m["states"] and m["children"] for m in memo_stats().values())
    clear_memos()
    assert games._cds_successors.cache_info() == (0, 0, games.MEMO_CHILDREN, 0)
    assert games._gcds_successors.cache_info() == (0, 0, games.MEMO_CHILDREN, 0)
    assert memo_stats() == {name: {"hits": 0, "misses": 0, "states": 0, "children": 0}
                            for name in ("cds", "gcds")}
    assert solve_cds(state) == first


def _cross_universe_pairs():
    """Pairs of positions whose solves meet the same key texts under different
    label sets: a graph with an induced subgraph, with a child rebuilt as a
    graph of its own, the same with mixed int/str labels, and two graphs whose
    labels 1..5 and "1".."5" render alike."""
    chain, favorable = gen_chain(4), gen_favorable(4)
    mixed_names = {v: v if v % 2 else f"v{v}" for v in chain.vertices}
    mixed = chain.relabel(mixed_names)
    mixed_favorable = frozenset(mixed_names[v] for v in favorable)
    for graph, fav in ((chain, favorable), (mixed, mixed_favorable)):
        first = graph.edge_list()[0]
        child = apply_gcds2(graph, first)
        for smaller in (without_vertices(graph, [graph.vertex_list()[0]]),
                        Graph(child.vertices, child.edges)):
            yield Position(graph, fav), Position(smaller, fav & smaller.vertices)
    ints = without_vertices(REPLAY_GRAPH, [6, 7])
    strs = ints.relabel({v: str(v) for v in ints.vertices})
    assert strs.key_text() == ints.key_text()
    yield Position(ints, frozenset({1, 3, 5})), Position(strs, frozenset({"1", "3", "5"}))


def test_memo_shared_across_label_sets_gives_fresh_reports():
    def solves(position):
        before = memo_stats()["gcds"]["misses"]
        reports = [solve_gcds(GcdsState(position, mover)) for mover in (ONE, TWO)]
        return reports, memo_stats()["gcds"]["misses"] - before

    shared = 0
    for pair in _cross_universe_pairs():
        fresh = []
        for position in pair:
            clear_memos()
            fresh.append(solves(position))
        for first, second in ((0, 1), (1, 0)):
            clear_memos()
            solves(pair[first])
            reports, misses = solves(pair[second])
            assert reports == fresh[second][0]
            shared += misses < fresh[second][1]
    assert shared  # some second solve used entries that the first one built
    clear_memos()


def test_memo_tells_apart_boards_of_one_universe_with_one_text():
    # 1 and "1" have one str: the move (1, 2) leaves the path "1"-"2"-x and
    # the move ("1", "2") leaves 1-2-x, two boards whose str texts agree.
    # Such a universe keys its labels by repr, so the key texts differ too.
    graph = Graph([1, 2, "1", "2", "x"], [(1, 2), (2, "x"), ("1", "2"), ("2", "x")])
    assert apply_gcds2(graph, (1, 2)).key_text() == "'1','2','x'|'1'-'2','2'-'x'"
    assert apply_gcds2(graph, ("1", "2")).key_text() == "1,2,'x'|1-2,2-'x'"
    vertices = graph.vertex_list()
    for shared in (False, True):
        clear_memos()
        for mask in range(1 << len(vertices)):
            favorable = frozenset(v for i, v in enumerate(vertices) if mask >> i & 1)
            for mover in (ONE, TWO):
                if not shared:
                    clear_memos()
                solved = solve_gcds(GcdsState(Position(graph, favorable), mover)).winner
                assert solved == _minimax_gcds(graph, favorable, mover), (favorable, mover)
    clear_memos()


def test_labels_with_one_str_share_no_cache_key():
    # 1 and "1" have one str; keyed by str, favorable {1, 2} and {"1", "2"}
    # both gave G|1,2,1,2|1-2|1,2|1, and the second solve read the first's
    # winner from the shared cache.
    graph = Graph([1, 2, "1", "2"], [(1, 2)])
    keys = {graph_state_key(graph, frozenset(fav), ONE) for fav in ({1, 2}, {"1", "2"})}
    assert keys == {"G|1,2,'1','2'|1-2|1,2|1", "G|1,2,'1','2'|1-2|'1','2'|1"}
    cache = SolveCache()
    for favorable in (frozenset({1, 2}), frozenset({"1", "2"})):
        for mover in (ONE, TWO):
            state = GcdsState(Position(graph, favorable), mover)
            clear_memos()
            fresh = solve_gcds(state)
            clear_memos()
            assert solve_gcds(state, cache=cache) == fresh
    clear_memos()


def _built_prefixes(game, root, reference, view=lambda state: state):
    """Walk every memo entry the engine built below ``root``: its children must
    be made in move order and, seen through ``view``, equal the eager
    ``reference(state)`` list."""
    seen, todo = set(), [root]
    while todo:
        state = todo.pop()
        if state in seen or game.outcome(state) is not None:
            continue
        seen.add(state)
        moves, children = game.moves(state)
        made = [c for c in children if c is not None]
        assert children[:len(made)] == made  # a prefix, in move order
        assert [(m, view(c)) for m, c in zip(moves, made)] == reference(state)[:len(made)]
        todo += made


@settings(max_examples=60, deadline=None)
@given(_cds_games())
def test_lazy_cds_successors_match_the_eager_list(game):
    perm, favorable, mover = game
    clear_memos()
    solve_cds(CdsState(perm, favorable, mover))
    _built_prefixes(CdsGame(favorable), perm,
                    lambda p: [(m, apply_cds(p, *m)) for m in sorted(legal_moves(p))])


@settings(max_examples=60, deadline=None)
@given(_gcds_games())
def test_lazy_gcds_successors_match_the_eager_list(game):
    graph, favorable, mover = game
    clear_memos()
    solve_gcds(GcdsState(Position(graph, favorable), mover))
    _built_prefixes(GcdsGame(favorable), graph.board(),
                    lambda b: [(e, _reference_apply_gcds2(b.graph(), e))
                               for e in b.graph().edge_list()],
                    view=lambda b: b.graph())


_LABELS = st.one_of(st.integers(-5, 30), st.text("abcXYZ0123_|,- ", min_size=0, max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.sets(_LABELS, max_size=6), st.data())
def test_cached_key_text_equals_a_fresh_rendering(vertices, data):
    pairs = list(combinations(sorted(vertices, key=str), 2))
    edges = [pair for pair in pairs if data.draw(st.booleans())]
    graph = Graph(vertices, edges)
    favorable = frozenset(data.draw(st.sets(st.sampled_from(sorted(vertices, key=str))))
                          if vertices else ())
    bad = [v for v in graph.vertex_list() if not str(v) or set(str(v)) & set("|,-\t\n ")]
    if bad:
        # The first bad vertex in the key's order is named, even when a later
        # one is favorable; and it raises every time, not only the first.
        for fs in (frozenset(), frozenset(bad[-1:]), frozenset(bad[-1:]), frozenset()):
            with pytest.raises(ValueError, match="cannot be used in a cache key") as err:
                graph_state_key(graph, fs, ONE)
            assert str(err.value) == f"vertex label {bad[0]!r} cannot be used in a cache key"
        return
    # Where two labels have one str (1 and "1"), every label is keyed by repr.
    name = repr if len({str(v) for v in vertices}) < len(vertices) else str
    fresh = "G|{}|{}|{}|2".format(
        ",".join(name(v) for v in graph.vertex_list()),
        ",".join(f"{name(a)}-{name(b)}" for a, b in graph.edge_list()),
        ",".join(name(v) for v in sorted(favorable, key=lambda v: (isinstance(v, str), v))))
    assert graph_state_key(graph, favorable, TWO) == fresh
    assert graph_state_key(graph, favorable, TWO) == fresh  # from the kept text
    assert graph_state_key(Graph(vertices, edges), favorable, TWO) == fresh


@given(st.permutations(range(1, 9)), st.sets(st.integers(1, 7)))
def test_cached_word_equals_a_fresh_rendering(entries, favorable):
    perm = Permutation(entries)
    fresh = "P|{}|{}|1".format(" ".join(map(str, entries)), ",".join(map(str, sorted(favorable))))
    assert perm_state_key(perm, frozenset(favorable), ONE) == fresh
    assert perm_state_key(perm, frozenset(favorable), ONE) == fresh
