"""Tests for graphs, the gcds pivot, pruning, and isomorphism search."""

import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cdsgame.cyclegraph import SizeBoundError
from cdsgame.graphs import (
    Graph,
    NotAnEdgeError,
    Position,
    apply_gcds,
    apply_gcds2,
    are_isomorphic,
    label_key,
    masterlist,
    positions_isomorphic,
)


PIVOT_SMALL = Graph(
    range(1, 8),
    [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
     (1, 3), (2, 4), (3, 6), (1, 4), (2, 6), (1, 7)],
)
PIVOT_LARGE = Graph(
    range(1, 10),
    [(1, 2), (1, 5), (1, 6), (1, 7), (1, 9), (2, 3), (2, 6), (2, 7), (2, 9),
     (3, 5), (5, 6), (5, 7), (5, 9), (6, 7), (6, 9), (7, 8), (8, 9)],
)


def all_graphs(n):
    """Every labeled graph on vertices 1..n."""
    verts = range(1, n + 1)
    pairs = list(combinations(verts, 2))
    for mask in range(1 << len(pairs)):
        yield Graph(verts, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_graph(rng, n, p=0.5, labels=None):
    verts = labels if labels is not None else list(range(1, n + 1))
    edges = [e for e in combinations(verts, 2) if rng.random() < p]
    return Graph(verts, edges)


def without_vertices(g, doomed):
    """g with the vertices in ``doomed`` and their edges deleted."""
    gone = frozenset(doomed)
    return Graph(g.vertices - gone, [e for e in g.edge_list() if gone.isdisjoint(e)])


def _reference_apply_gcds(g, edge):
    """The pivot by the master-list case rules, kept as the oracle."""
    ml = masterlist(g, edge)
    x, y = edge
    cx, cy = ml.column_x, ml.column_y
    adj = g.adjacency()
    others = sorted(g.vertices - {x, y}, key=label_key)
    new_edges = []
    for p, q in combinations(others, 2):
        present = q in adj[p]
        if p in cx or p in cy:
            if q in cx or q in cy:
                same_column = (p in cx and q in cx) or (p in cy and q in cy)
                if not same_column:
                    present = not present
                else:
                    occurrences = (p in cx) + (p in cy) + (q in cx) + (q in cy)
                    if occurrences % 2 == 1:
                        present = not present
        if present:
            new_edges.append((p, q))
    return Graph(g.vertices, new_edges)


def _reference_apply_gcds2(g, edge):
    """The oracle pivot, pruned as apply_gcds2's docstring says."""
    members = masterlist(g, edge).members()
    pivoted = _reference_apply_gcds(g, edge)
    doomed = set(edge)
    if len(members) > 1:
        doomed |= members & pivoted.isolated_vertices()
    return without_vertices(pivoted, doomed)


def assert_pivots_match_the_reference(g):
    for a, b in g.edge_list():
        for edge in ((a, b), (b, a)):
            assert apply_gcds(g, edge) == _reference_apply_gcds(g, edge)
            assert apply_gcds2(g, edge) == _reference_apply_gcds2(g, edge)


def test_graph_construction_and_validation():
    g = Graph([1, 2, 3], [(1, 2)])
    assert g.n_vertices() == 3 and g.n_edges() == 1
    assert g.has_edge(2, 1)
    assert not g.has_edge(1, 3) and not g.has_edge(1, 1) and not g.has_edge(1, 4)
    assert g.adjacency() == {1: {2}, 2: {1}, 3: frozenset()}
    assert g.isolated_vertices() == {3}
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])


def test_graph_equality_ignores_edge_listing_order():
    a = Graph([1, 2, 3], [(1, 2), (2, 3)])
    b = Graph({3, 2, 1}, [(3, 2), (2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph([1, 2, 3], [(1, 2)])


def _clones(obj):
    return [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]


def test_graph_pickles_and_copies_through_its_constructor():
    g = Graph([3, 1, "b", "a"], [("b", 1), (3, "a"), (1, 3)])
    child = apply_gcds2(g, (1, 3))  # keeps a board over g's labels
    for graph in (g, child, Graph([1, "a b"], [(1, "a b")])):
        for clone in _clones(graph):
            assert clone == graph and hash(clone) == hash(graph)
            assert clone.board().universe.labels == tuple(clone.vertex_list())
            if "a b" not in graph.vertices:
                assert clone.key_text() == graph.key_text()
    assert g.key_text() == "1,3,a,b|1-3,1-b,3-a"
    assert child.key_text() == "a,b|a-b"
    assert Graph.__reduce__(g)[0] is Graph


def _frozenset_views(vs, es):
    """The label views by the formulas of a graph that stores the vertex set
    ``vs`` and the frozenset edges ``es``: the reference for the views a
    Graph reads off its board."""
    adj = {v: set() for v in vs}
    for a, b in es:
        adj[a].add(b)
        adj[b].add(a)
    pairs = [tuple(sorted(e, key=label_key)) for e in es]
    pairs.sort(key=lambda pair: (label_key(pair[0]), label_key(pair[1])))
    return {
        "vertex_list": sorted(vs, key=label_key),
        "edge_list": pairs,
        "adjacency": {v: frozenset(nb) for v, nb in adj.items()},
        "isolated_vertices": frozenset(v for v in vs if not adj[v]),
        "n_vertices": len(vs),
        "n_edges": len(es),
    }


def _label_pivot(vs, es, edge, prune):
    """The pivot on label sets by its three classes (see the graphs module),
    then apply_gcds2's pruning when ``prune``."""
    x, y = edge
    nx = {v for e in es if x in e for v in e} - {x, y}
    ny = {v for e in es if y in e for v in e} - {x, y}
    classes = (nx - ny, ny - nx, nx & ny)
    toggled = {frozenset((p, q)) for c1, c2 in combinations(classes, 2) for p in c1 for q in c2}
    es = {e for e in es if x not in e and y not in e} ^ toggled
    if prune:
        members = nx | ny
        doomed = {x, y}
        if len(members) > 1:
            doomed |= {v for v in members if not any(v in e for e in es)}
        vs = vs - doomed
    return frozenset(vs), es


def assert_views_match_the_reference(g, vs, es):
    assert g.vertices == vs and g.edges == es
    assert {name: getattr(g, name)() for name in (
        "vertex_list", "edge_list", "adjacency", "isolated_vertices", "n_vertices", "n_edges",
    )} == _frozenset_views(vs, es)
    assert list(g.adjacency()) == g.vertex_list()
    probes = list(g.board().universe.labels) + ["z", 99]
    for a in probes:
        for b in probes:
            assert g.has_edge(a, b) == (frozenset((a, b)) in es)


@st.composite
def _labelled_graphs(draw):
    # 1 and "1" are different labels; "x" is no int's text.
    labels = draw(st.lists(st.one_of(st.integers(0, 5), st.sampled_from(["0", "1", "2", "x", "y"])),
                           min_size=1, max_size=9, unique=True))
    pairs = [pair for pair in combinations(labels, 2) if draw(st.booleans())]
    return labels, [pair[::-1] if draw(st.booleans()) else pair for pair in pairs]


@settings(max_examples=150, deadline=None)
@given(_labelled_graphs())
def test_label_views_match_the_frozenset_formulas(drawn):
    labels, pairs = drawn
    g = Graph(labels, pairs)
    vs, es = frozenset(labels), frozenset(map(frozenset, pairs))
    assert_views_match_the_reference(g, vs, es)
    for edge in g.edge_list():
        for pivot, prune in ((apply_gcds, False), (apply_gcds2, True)):
            child = pivot(g, edge)
            assert child.board().universe is g.board().universe
            assert_views_match_the_reference(child, *_label_pivot(vs, es, edge, prune))
            # Same labels: bits are compared; fewer labels: label sets are.
            rebuilt = Graph(child.vertex_list(), child.edge_list())
            assert child == rebuilt and rebuilt == child and hash(child) == hash(rebuilt)
            if child.n_edges():
                fewer = Graph(child.vertex_list(), child.edge_list()[1:])
                assert child != fewer and fewer != child


def test_vertex_and_edge_lists_are_sorted():
    g = Graph([3, 1, "b", "a"], [("b", 1), (3, "a"), (1, 3)])
    assert g.vertex_list() == [1, 3, "a", "b"]
    assert g.edge_list() == [(1, 3), (1, "b"), (3, "a")]
    assert label_key(2) < label_key(10) < label_key("10")


def test_without_vertices_and_relabel():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    assert without_vertices(g, [2]) == Graph([1, 3], [])
    assert g.relabel({1: "x", 2: "y", 3: "z"}) == Graph("xyz", [("x", "y"), ("y", "z")])


def test_masterlist_fixtures():
    ml = masterlist(PIVOT_SMALL, (1, 2))
    assert ml.column_x == {3, 4, 7}
    assert ml.column_y == {3, 4, 6}
    assert ml.members() == {3, 4, 6, 7}
    ml = masterlist(PIVOT_LARGE, (2, 7))
    assert ml.column_x == {1, 3, 6, 9}
    assert ml.column_y == {1, 5, 6, 8}


def test_masterlist_columns_follow_the_pair_order():
    fwd = masterlist(PIVOT_SMALL, (1, 2))
    rev = masterlist(PIVOT_SMALL, (2, 1))
    assert fwd.column_x == rev.column_y and fwd.column_y == rev.column_x


def test_apply_gcds_fixtures():
    out = apply_gcds(PIVOT_SMALL, (1, 2))
    assert out.edge_list() == [(3, 4), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6)]
    assert out.vertices == PIVOT_SMALL.vertices
    out = apply_gcds(PIVOT_LARGE, (2, 7))
    assert out.edge_list() == [(1, 3), (1, 6), (1, 8), (3, 6), (3, 8), (6, 8)]
    assert out.isolated_vertices() == {2, 4, 5, 7, 9}


def test_apply_gcds_requires_an_edge():
    with pytest.raises(NotAnEdgeError):
        apply_gcds(PIVOT_SMALL, (1, 5))
    with pytest.raises(NotAnEdgeError):
        apply_gcds2(PIVOT_SMALL, (1, 6))
    with pytest.raises(ValueError):
        apply_gcds(PIVOT_SMALL, (1, 2, 3))


def test_gcds_routes_agree_exhaustively_up_to_five_vertices():
    for n in range(2, 6):
        for g in all_graphs(n):
            assert_pivots_match_the_reference(g)


@pytest.mark.slow
def test_gcds_routes_agree_exhaustively_at_six_vertices():
    for g in all_graphs(6):
        assert_pivots_match_the_reference(g)


def test_gcds_routes_agree_on_random_graphs_up_to_seven_vertices():
    rng = random.Random(1)
    for _ in range(400):
        assert_pivots_match_the_reference(random_graph(rng, rng.randrange(2, 8)))


@st.composite
def _mixed_label_graphs(draw):
    # Labels a state key cannot hold ("a b", "x|", None) must pivot all the same.
    labels = draw(st.lists(st.one_of(st.integers(-3, 30), st.text("abcxyz |,-", max_size=2),
                                     st.none(), st.tuples(st.integers(0, 2))),
                           min_size=2, max_size=12, unique=True))
    pairs = list(combinations(labels, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(labels, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=300, deadline=None)
@given(_mixed_label_graphs())
def test_gcds_routes_agree_on_mixed_label_graphs(g):
    assert_pivots_match_the_reference(g)


def test_fixture_pivots_match_the_reference():
    for g, edge, after in (
        (PIVOT_SMALL, (1, 2), [(3, 4), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6)]),
        (PIVOT_LARGE, (2, 7), [(1, 3), (1, 6), (1, 8), (3, 6), (3, 8), (6, 8)]),
    ):
        assert _reference_apply_gcds(g, edge).edge_list() == after
        assert_pivots_match_the_reference(g)


def test_gcds_is_order_insensitive_and_preserves_vertices():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 11))
        for edge in g.edge_list():
            out = apply_gcds(g, edge)
            assert out.vertices == g.vertices
            assert out == apply_gcds(g, (edge[1], edge[0]))
            a, b = edge
            assert {a, b} <= out.isolated_vertices()


def test_gcds_never_touches_outside_edges():
    rng = random.Random(3)
    touched = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randrange(3, 9))
        if not g.edges:
            continue
        edge = g.edge_list()[rng.randrange(g.n_edges())]
        outside = g.vertices - set(edge) - masterlist(g, edge).members()
        out = apply_gcds(g, edge)
        # Any pair with an endpoint outside the master list keeps its status.
        for v in outside:
            for w in g.vertices - set(edge) - {v}:
                assert g.has_edge(v, w) == out.has_edge(v, w)
                touched += 1
    assert touched > 0


def test_gcds2_deletes_pivot_and_isolated_masterlist_vertices():
    out = apply_gcds2(PIVOT_LARGE, (2, 7))
    # The pivot pair goes; so do the master-list vertices left isolated.
    # Vertex 4 is isolated too, but it sits outside the master list and is
    # kept.
    assert out.vertices == {1, 3, 4, 6, 8}
    assert out.edge_list() == [(1, 3), (1, 6), (1, 8), (3, 6), (3, 8), (6, 8)]


def test_gcds2_keeps_a_sole_masterlist_member():
    triangle = Graph([5, 6, 7], [(5, 6), (5, 7), (6, 7)])
    out = apply_gcds2(triangle, (6, 7))
    assert out == Graph([5], [])


def test_gcds2_never_deletes_outside_the_move():
    rng = random.Random(4)
    for _ in range(500):
        g = random_graph(rng, rng.randrange(3, 9))
        if not g.edges:
            continue
        edge = g.edge_list()[rng.randrange(g.n_edges())]
        allowed = masterlist(g, edge).members() | set(edge)
        out = apply_gcds2(g, edge)
        assert g.vertices - out.vertices <= allowed


def test_game_replay_fixture():
    g = Graph(
        range(1, 8),
        [(1, 2), (1, 3), (1, 4), (1, 7), (2, 3), (2, 4), (2, 6),
         (3, 4), (3, 6), (4, 5), (5, 6), (6, 7)],
    )
    g = apply_gcds2(g, (2, 4))
    assert g.vertices == {1, 3, 5, 6, 7}
    assert g.edge_list() == [(1, 3), (1, 5), (1, 6), (1, 7), (3, 5), (6, 7)]
    g = apply_gcds2(g, (1, 3))
    assert g == Graph([5, 6, 7], [(5, 6), (5, 7), (6, 7)])
    g = apply_gcds2(g, (6, 7))
    assert g == Graph([5], [])


def test_are_isomorphic_positive_and_mapping_validity():
    g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    h = g.relabel({1: "a", 2: "c", 3: "e", 4: "b", 5: "d"})
    mapping = are_isomorphic(g, h)
    assert mapping is not None
    assert sorted(mapping) == [1, 2, 3, 4, 5]
    for a, b in g.edge_list():
        assert h.has_edge(mapping[a], mapping[b])


def test_are_isomorphic_negative_cases():
    path = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
    star = Graph(range(1, 5), [(1, 2), (1, 3), (1, 4)])
    assert are_isomorphic(path, star) is None
    # Same degree sequence, different structure: one hexagon vs two triangles.
    hexagon = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    triangles = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert are_isomorphic(hexagon, triangles) is None
    assert are_isomorphic(path, Graph(range(1, 5), [(1, 2), (2, 3)])) is None


def test_are_isomorphic_size_bound():
    g = Graph(range(31), [])
    with pytest.raises(SizeBoundError):
        are_isomorphic(g, Graph(range(100, 131), []))


def test_position_validates_favorable():
    g = Graph([1, 2, 3], [(1, 2)])
    Position(g, frozenset({1, 3}))
    with pytest.raises(ValueError):
        Position(g, frozenset({4}))


def test_positions_isomorphic_respects_favorable():
    chain2 = Graph(range(1, 6), [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert positions_isomorphic(
        Position(chain2, frozenset({2, 4})), Position(chain2, frozenset({2, 4}))
    )
    # {2,4} avoids the cut vertex 3; {1,3} uses it, so no mapping can match.
    assert (
        positions_isomorphic(
            Position(chain2, frozenset({2, 4})), Position(chain2, frozenset({1, 3}))
        )
        is None
    )
    # Sizes must agree before any search happens.
    assert (
        positions_isomorphic(
            Position(chain2, frozenset({2})), Position(chain2, frozenset({2, 4}))
        )
        is None
    )


def test_positions_isomorphic_finds_relabelings():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, 7)
        favorable = frozenset(v for v in g.vertices if rng.random() < 0.4)
        names = list("abcdefg")
        rng.shuffle(names)
        mapping = dict(zip(g.vertex_list(), names))
        h = g.relabel(mapping)
        image = frozenset(mapping[v] for v in favorable)
        assert positions_isomorphic(Position(g, favorable), Position(h, image))
