"""JSON renderings of graphs, positions, and solver reports.

Graph documents look like::

    {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}

Labels are rendered with ``str``; on parsing, labels made of decimal digits
become ints again, so generated graphs (whose labels are ints) survive a
render/parse round trip unchanged.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .games import NpReport, SolveReport
from .graphs import Graph, Position, label_key
from .permutations import ParseError, Permutation

__all__ = [
    "graph_to_doc",
    "graph_from_doc",
    "graph_from_file",
    "parse_label",
    "position_to_doc",
    "perm_to_doc",
    "move_to_doc",
    "report_to_doc",
    "np_report_to_doc",
    "dump_document",
]


def parse_label(s):
    """A vertex label from its text: ASCII decimal digits give an int, else the string."""
    if not isinstance(s, str) or not s:
        raise ParseError(f"vertex label must be a non-empty string, got {s!r}")
    return int(s) if s.isascii() and s.isdigit() else s


def graph_to_doc(g: Graph) -> dict[str, Any]:
    return {
        "vertices": [str(v) for v in g.vertex_list()],
        "edges": [[str(a), str(b)] for a, b in g.edge_list()],
    }


def graph_from_doc(doc: Any) -> Graph:
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    for field in ("vertices", "edges"):
        if field not in doc or not isinstance(doc[field], list):
            raise ParseError(f"graph document needs a {field!r} array")
    vertices = [parse_label(v) for v in doc["vertices"]]
    if len(set(vertices)) != len(vertices):
        raise ParseError("duplicate vertex label")
    edges = []
    for item in doc["edges"]:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"edge {item!r} is not a two-element array")
        edges.append((parse_label(item[0]), parse_label(item[1])))
    try:
        return Graph(vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def graph_from_file(path: str) -> Graph:
    """Load a graph document from a JSON file, or from stdin when path is -."""
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read graph file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"graph file {path} is not valid JSON: {exc}") from None
    return graph_from_doc(doc)


def position_to_doc(position: Position) -> dict[str, Any]:
    doc = graph_to_doc(position.graph)
    doc["favorable"] = [str(v) for v in sorted(position.favorable, key=label_key)]
    return doc


def perm_to_doc(perm: Permutation) -> list[int]:
    return list(perm.entries)


def move_to_doc(move) -> list[str]:
    return [str(v) for v in move]


def report_to_doc(report: SolveReport) -> dict[str, Any]:
    return {
        "winner": report.winner,
        "pv": [move_to_doc(m) for m in report.principal_variation],
        "nodes_expanded": report.nodes_expanded,
        "cache_hits": report.cache_hits,
    }


def np_report_to_doc(report: NpReport) -> dict[str, Any]:
    return {
        "status": report.status,
        "winner_one_first": report.winner_one_first,
        "winner_two_first": report.winner_two_first,
        "anomaly": report.anomaly,
    }


def dump_document(doc: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
