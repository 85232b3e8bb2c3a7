"""Tests for the JSON document formats."""

import json
import random
from itertools import combinations

import pytest

from cdsgame.families import gen_chain
from cdsgame.games import ONE, TWO, NpReport, SolveReport
from cdsgame.graphs import Graph, Position
from cdsgame.jsonio import (
    dump_document,
    graph_from_doc,
    graph_from_file,
    graph_to_doc,
    move_to_doc,
    np_report_to_doc,
    perm_to_doc,
    position_to_doc,
    report_to_doc,
)
from cdsgame.permutations import ParseError, Permutation


def test_graph_document_shape():
    doc = graph_to_doc(Graph([1, 2, 3], [(1, 2), (2, 3)]))
    assert doc == {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}


def test_graph_round_trip_int_labels():
    for m in range(1, 7):
        g = gen_chain(m)
        assert graph_from_doc(json.loads(json.dumps(graph_to_doc(g)))) == g


def test_graph_round_trip_mixed_and_string_labels():
    rng = random.Random(0)
    for _ in range(100):
        k = rng.randrange(1, 8)
        verts = rng.sample(["a", "b", "c", "zed", "n1", "x9y"], min(k, 6))
        edges = [e for e in combinations(verts, 2) if rng.random() < 0.5]
        g = Graph(verts, edges)
        assert graph_from_doc(graph_to_doc(g)) == g


def test_digit_labels_become_ints():
    g = graph_from_doc({"vertices": ["1", "02"], "edges": [["1", "02"]]})
    # "02" is all digits, so it parses as the integer 2.
    assert g == Graph([1, 2], [(1, 2)])


def test_non_ascii_digit_labels_stay_strings():
    # str.isdigit accepts "²" (which int() rejects) and "٣" (which int()
    # reads as 3, so the label would come back as "3").
    doc = {"vertices": ["²", "٣"], "edges": [["²", "٣"]]}
    g = graph_from_doc(doc)
    assert g == Graph(["²", "٣"], [("²", "٣")])
    assert graph_to_doc(g) == doc


def test_graph_from_doc_rejects_malformed_input():
    with pytest.raises(ParseError):
        graph_from_doc([])
    with pytest.raises(ParseError):
        graph_from_doc({"vertices": ["1"]})
    with pytest.raises(ParseError):
        graph_from_doc({"vertices": "1", "edges": []})
    with pytest.raises(ParseError):
        graph_from_doc({"vertices": ["1", "1"], "edges": []})
    with pytest.raises(ParseError):
        graph_from_doc({"vertices": ["1", "2"], "edges": [["1"]]})
    with pytest.raises(ParseError):
        graph_from_doc({"vertices": ["1"], "edges": [["1", "7"]]})
    with pytest.raises(ParseError):
        graph_from_doc({"vertices": [""], "edges": []})
    with pytest.raises(ParseError):
        graph_from_doc({"vertices": ["1"], "edges": [["1", "1"]]})


def test_graph_from_file(tmp_path):
    path = tmp_path / "g.json"
    g = gen_chain(2)
    path.write_text(dump_document(graph_to_doc(g)))
    assert graph_from_file(str(path)) == g
    with pytest.raises(ParseError, match="not valid JSON"):
        (tmp_path / "bad.json").write_text("{nope")
        graph_from_file(str(tmp_path / "bad.json"))
    with pytest.raises(ParseError, match="cannot read"):
        graph_from_file(str(tmp_path / "missing.json"))


def test_position_document_sorts_favorable():
    pos = Position(gen_chain(2), frozenset({4, 2}))
    doc = position_to_doc(pos)
    assert doc["favorable"] == ["2", "4"]
    assert doc["vertices"] == ["1", "2", "3", "4", "5"]


def test_perm_and_move_documents():
    assert perm_to_doc(Permutation([2, 1])) == [2, 1]
    assert move_to_doc((3, 6)) == ["3", "6"]
    assert move_to_doc(("a", 2)) == ["a", "2"]


def test_report_documents():
    doc = report_to_doc(SolveReport(ONE, ((1, 3),), 3, 2))
    assert doc == {
        "winner": ONE,
        "pv": [["1", "3"]],
        "nodes_expanded": 3,
        "cache_hits": 2,
    }
    doc = np_report_to_doc(NpReport("P", TWO, ONE))
    assert doc["status"] == "P" and doc["anomaly"] is False


def test_dump_document_is_canonical():
    doc = {"b": 1, "a": [2, 3]}
    compact = dump_document(doc)
    assert compact == '{"a":[2,3],"b":1}'
    pretty = dump_document(doc, pretty=True)
    assert json.loads(pretty) == doc
    assert "\n" in pretty
