"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

import cdsgame
from cdsgame import cli
from cdsgame.cli import main
from cdsgame.games import CacheFormatError, SolveCache, cache_load, cache_save
from cdsgame.graphs import Graph
from cdsgame.jsonio import dump_document, graph_to_doc
from cdsgame.families import gen_chain, tight_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(dump_document(graph_to_doc(g)))
    return str(path)


def test_perm_pile(capsys):
    code, doc = run_cli(capsys, "perm", "pile", "--perm", "3 6 5 2 4 8 1 7")
    assert code == 0
    assert doc["pile"] == [7, 4, 6, 1, 5, 3, 2]
    assert doc["sortable"] is False


def test_perm_apply_and_moves(capsys):
    code, doc = run_cli(
        capsys, "perm", "apply", "--perm", "3 6 5 2 4 8 1 7", "--pair", "3,6"
    )
    assert code == 0
    assert doc["result"] == [3, 4, 8, 1, 5, 2, 6, 7]
    code, doc = run_cli(capsys, "perm", "moves", "--perm", "2 4 1 3")
    assert code == 0
    assert doc["moves"] == [["1", "2"], ["1", "3"], ["2", "3"]]


def test_perm_overlap_and_fixedpoints(capsys):
    code, doc = run_cli(capsys, "perm", "overlap", "--perm", "3 1 4 2 5")
    assert code == 0
    assert doc == {
        "vertices": ["1", "2", "3", "4"],
        "edges": [["1", "3"], ["1", "4"], ["2", "4"]],
    }
    code, doc = run_cli(capsys, "perm", "fixedpoints", "--perm", "2 4 1 3")
    assert code == 0
    assert doc["codes"] == [1, 2, 3] and doc["identity"] is False
    code, doc = run_cli(capsys, "perm", "sortable", "--perm", "1 2 3")
    assert code == 0
    assert doc["sortable"] is True and doc["pile_size"] == 0


def test_gen_commands(capsys):
    code, doc = run_cli(capsys, "gen", "alpha", "--n", "8")
    assert code == 0
    assert doc == {"perm": [5, 7, 6, 3, 2, 4, 8, 1]}
    code, doc = run_cli(capsys, "gen", "chain", "--m", "1")
    assert code == 0
    assert doc["vertices"] == ["1", "2", "3"]
    code, doc = run_cli(capsys, "gen", "favorable", "--m", "5")
    assert code == 0
    assert doc == {"favorable": [2, 4, 8]}
    code, doc = run_cli(capsys, "gen", "tight", "--n", "8")
    assert code == 0
    assert doc["perm"] == [5, 7, 6, 3, 2, 4, 8, 1]
    assert len(doc["favorable"]) == 2


def test_graph_commands(capsys, tmp_path):
    chain = write_graph(tmp_path, gen_chain(1))
    code, doc = run_cli(capsys, "graph", "gcds2", "--graph", chain, "--edge", "1,3")
    assert code == 0
    assert doc == {"vertices": ["2"], "edges": []}
    code, doc = run_cli(capsys, "graph", "gcds", "--graph", chain, "--edge", "1,3")
    assert code == 0
    assert doc["vertices"] == ["1", "2", "3"] and doc["edges"] == []
    other = write_graph(tmp_path, gen_chain(1).relabel({1: "a", 2: "b", 3: "c"}), "h.json")
    code, doc = run_cli(capsys, "graph", "iso", "--graph", chain, "--other", other)
    assert code == 0
    assert doc["isomorphic"] is True
    assert sorted(doc["mapping"]) == ["1", "2", "3"]


def test_graph_reads_stdin_for_piping(capsys, monkeypatch):
    doc_text = dump_document(graph_to_doc(gen_chain(1)))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc_text))
    code, doc = run_cli(capsys, "graph", "gcds2", "--graph", "-", "--edge", "1,3")
    assert code == 0
    assert doc == {"vertices": ["2"], "edges": []}


def test_solve_gcds_matches_known_position(capsys, tmp_path):
    chain = write_graph(tmp_path, gen_chain(2))
    code, doc = run_cli(
        capsys, "solve", "gcds", "--graph", chain, "--favorable", "2,4",
        "--first", "ONE",
    )
    assert code == 0
    assert doc["winner"] == "TWO"
    assert "timing" in doc and "seconds" in doc["timing"]


def test_solve_np(capsys, tmp_path):
    chain = write_graph(tmp_path, gen_chain(1))
    code, doc = run_cli(capsys, "solve", "np", "--graph", chain, "--favorable", "2")
    assert code == 0
    assert doc["status"] == "N" and doc["anomaly"] is False


def test_solve_cds_with_cache(capsys, tmp_path):
    cache = str(tmp_path / "c.tsv")
    argv = ["solve", "cds", "--perm", "2 4 1 3", "--favorable", "1",
            "--first", "ONE", "--cache", cache]
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["winner"] == "ONE"
    cold_nodes = doc["nodes_expanded"]
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["winner"] == "ONE"
    assert doc["nodes_expanded"] < cold_nodes


def test_empty_favorable_is_legal(capsys, tmp_path):
    chain = write_graph(tmp_path, gen_chain(1))
    code, doc = run_cli(capsys, "solve", "gcds", "--graph", chain, "--favorable", "")
    assert code == 0
    assert doc["winner"] == "TWO"


def test_exit_code_invalid_input(capsys, tmp_path):
    code, doc = run_cli(capsys, "perm", "pile", "--perm", "1 2 x")
    assert code == 2 and "error" in doc
    code, doc = run_cli(capsys, "gen", "alpha", "--n", "7")
    assert code == 2
    chain = write_graph(tmp_path, gen_chain(1))
    code, doc = run_cli(capsys, "graph", "gcds", "--graph", chain, "--edge", "1,9")
    assert code == 2
    code, doc = run_cli(capsys, "solve", "gcds", "--graph",
                        str(tmp_path / "nope.json"), "--favorable", "")
    assert code == 2


# The integer options; argparse refuses a bad value of one itself, printing
# its usage and exiting 2 before any document is written.
INT_OPTIONS = ("--m", "--n", "--max-n", "--max-m", "--seed", "--samples", "--threads")


@pytest.mark.parametrize("argv, token", [
    (["perm", "pile", "--perm", "２ １ ３"], "２"),
    (["perm", "pile", "--perm", "1 2 3 4 5 6 7 8 9 1_0"], "1_0"),
    (["perm", "apply", "--perm", "3 6 5 2 4 8 1 7", "--pair", "３,٦"], "３"),
    (["perm", "apply", "--perm", "3 6 5 2 4 8 1 7", "--pair", "3,0_6"], "0_6"),
    (["solve", "cds", "--perm", "2 4 1 3", "--favorable", "١"], "١"),
    (["solve", "cds", "--perm", "2 4 1 3", "--favorable", "1,0_2"], "0_2"),
    (["gen", "chain", "--m", "1_0"], "1_0"),
    (["gen", "favorable", "--m", "٣"], "٣"),
    (["gen", "alpha", "--n", "１２"], "１２"),
    (["gen", "tight", "--n", "1_2"], "1_2"),
    (["perm", "fixedpoints", "--perm", "2 4 1 3", "--max-n", "٥"], "٥"),
    (["solve", "cds", "--perm", "2 4 1 3", "--favorable", "", "--max-n", "1_0"], "1_0"),
    (["verify", "formats", "--seed", "0_1"], "0_1"),
    (["verify", "formats", "--max-m", "٢"], "٢"),
    (["verify", "formats", "--samples", "1_0"], "1_0"),
    (["verify", "formats", "--threads", "２"], "２"),
])
def test_integers_are_read_as_ascii_decimals(capsys, argv, token):
    if argv[-2] in INT_OPTIONS:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        err = capsys.readouterr().err
        assert exited.value.code == 2
        assert f"argument {argv[-2]}: invalid integer value" in err and token in err
        assert "parse_decimal" not in err
        return
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "ParseError"
    assert token in doc["error"]["message"]


def test_spaces_around_a_comma_are_accepted(capsys):
    code, doc = run_cli(capsys, "perm", "apply", "--perm", "3 6 5 2 4 8 1 7",
                        "--pair", "3, 6")
    assert code == 0 and doc["result"] == [3, 4, 8, 1, 5, 2, 6, 7]
    docs = []
    for favorable in ("1 , 2", "1,2"):
        code, doc = run_cli(capsys, "solve", "cds", "--perm", "2 4 1 3",
                            "--favorable", favorable)
        assert code == 0
        del doc["timing"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_exit_code_size_bound(capsys):
    word = " ".join(str(i) for i in range(1, 13))
    code, doc = run_cli(capsys, "solve", "cds", "--perm", word, "--favorable", "")
    assert code == 4
    assert doc["error"]["type"] == "size-bound"


def test_perm_fixedpoints_is_size_bounded(capsys):
    word = " ".join(str(v) for v in tight_instance(24)[0])
    start = time.perf_counter()
    code, doc = run_cli(capsys, "perm", "fixedpoints", "--perm", word)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and doc["error"]["type"] == "size-bound"
    code, doc = run_cli(capsys, "perm", "fixedpoints", "--perm", "2 4 1 3")
    assert code == 0 and doc["codes"] == [1, 2, 3]
    code, doc = run_cli(capsys, "perm", "fixedpoints", "--perm", "5 7 6 3 2 4 8 1")
    assert code == 4
    code, doc = run_cli(capsys, "perm", "fixedpoints", "--perm", "5 7 6 3 2 4 8 1",
                        "--max-n", "8")
    assert code == 0 and doc["codes"] == [1, 2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("initial", ["missing", "empty"])
def test_concurrent_cache_users_keep_each_others_entries(capsys, tmp_path, monkeypatch,
                                                         initial):
    # One solve loads the shared file, and while it runs a second session
    # loads, solves and saves; the first save must not drop the second's entries.
    path = str(tmp_path / "shared.tsv")
    if initial == "empty":
        cache_save(SolveCache(), path)
    solve_cds = cli.solve_cds

    def solve_while_another_session_saves(state, cache, *bound):
        monkeypatch.setattr(cli, "solve_cds", solve_cds)
        assert main(["solve", "cds", "--perm", "2 4 1 3", "--favorable", "1",
                     "--cache", path]) == 0
        return solve_cds(state, cache, *bound)

    monkeypatch.setattr(cli, "solve_cds", solve_while_another_session_saves)
    assert main(["solve", "cds", "--perm", "3 1 4 2 5", "--favorable", "2",
                 "--cache", path]) == 0
    capsys.readouterr()
    keys = {key for key, _ in cache_load(path).items()}
    assert {"P|2 4 1 3|1|1", "P|3 1 4 2 5|2|1"} <= keys


def test_parallel_cache_users_lose_no_entries(tmp_path):
    # More sessions than cores start from no file and save into it at once.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cdsgame.__file__)))
    path = str(tmp_path / "shared.tsv")
    words = ["2 4 1 3", "3 1 4 2 5", "2 5 3 1 4", "3 5 2 4 1", "4 2 5 1 3", "2 4 6 1 3 5"]
    sessions = [subprocess.Popen([sys.executable, "-m", "cdsgame.cli", "solve", "cds",
                                  "--perm", word, "--cache", path],
                                 env=env, stdout=subprocess.DEVNULL)
                for word in words]
    assert [session.wait(timeout=60) for session in sessions] == [0] * len(words)
    keys = {key for key, _ in cache_load(path).items()}
    assert {f"P|{word}||1" for word in words} <= keys


def test_cache_store_rereads_only_a_file_another_session_wrote(capsys, tmp_path,
                                                               monkeypatch):
    path = str(tmp_path / "c.tsv")
    argv = ["solve", "cds", "--perm", "2 4 1 3", "--favorable", "1", "--cache", path]
    assert main(argv) == 0
    loads = []
    monkeypatch.setattr(cli, "cache_load", lambda p: loads.append(p) or cache_load(p))
    assert main(argv) == 0
    assert loads == [path]
    capsys.readouterr()


def test_exit_code_verification(capsys):
    code, doc = run_cli(capsys, "verify", "formats")
    assert code == 0
    assert doc["ok"] is True and doc["suites"][0]["failures"] == []
    code, doc = run_cli(capsys, "verify", "chain-collapse")
    assert code == 3
    assert doc["ok"] is False
    assert len(doc["suites"][0]["failures"]) == 10


@pytest.mark.parametrize("argv", [
    ["chain-collapse", "--max-m", "1"],
    ["np-classification", "--max-m", "0"],
    ["pile-lemma", "--max-n", "0"],
    ["commutation", "--max-n", "1", "--samples", "0"],
])
def test_a_suite_that_checks_nothing_is_not_ok(capsys, argv):
    code, doc = run_cli(capsys, "verify", *argv)
    assert code == 3 and doc["ok"] is False
    (suite,) = doc["suites"]
    assert suite["cases"] == 0 and suite["failures"] == [] and suite["ok"] is False
    assert suite["notes"][-1] == "no case ran at these sizes, so nothing was checked"


def test_verify_refuses_an_oversized_max_n_at_once(capsys):
    for suite in ("commutation", "pile-lemma", "bounds", "tight"):
        start = time.perf_counter()
        code, doc = run_cli(capsys, "verify", suite, "--max-n", "12")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and doc["error"]["type"] == "size-bound", suite


def test_verify_refuses_negative_sizes_at_once(capsys):
    for option, knob in (("--max-n", "max_n"), ("--max-m", "max_m"), ("--samples", "samples")):
        code, doc = run_cli(capsys, "verify", "all", option, "-2")
        assert code == 2 and doc["error"] == {"type": "ValueError",
                                              "message": f"{knob} must be >= 0, got -2"}


def test_verify_output_is_deterministic(capsys):
    code1, doc1 = run_cli(capsys, "verify", "formats", "--seed", "5")
    code2, doc2 = run_cli(capsys, "verify", "formats", "--seed", "5")
    assert code1 == code2 == 0
    doc1.pop("timing")
    doc2.pop("timing")
    assert doc1 == doc2


def test_verify_reports_time_per_phase(capsys):
    code, doc = run_cli(capsys, "verify", "all", "--max-n", "3", "--samples", "20")
    assert code == 3  # chain-collapse stays red
    timing = doc["timing"]
    assert sorted(timing["per_phase"]) == sorted(timing["per_suite"]) == sorted(cdsgame.SUITE_NAMES)
    phased = {"commutation": ["exhaustive", "sampled"], "pile-lemma": ["per_move"],
              "bounds": ["audit", "solver"], "tight": ["exhaustive", "fixtures"]}
    for name in cdsgame.SUITE_NAMES:
        phases = timing["per_phase"][name]
        assert sorted(phases) == phased.get(name, []), name
        assert all(t >= 0 for t in phases.values())
        assert sum(phases.values()) <= timing["per_suite"][name]


def test_pretty_flag(capsys):
    code = main(["gen", "chain", "--m", "1", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0 and "\n" in out.strip()
    assert json.loads(out)["vertices"] == ["1", "2", "3"]


def test_cache_export_import(capsys, tmp_path):
    cache = str(tmp_path / "a.tsv")
    run_cli(capsys, "solve", "cds", "--perm", "2 4 1 3", "--favorable", "1",
            "--cache", cache)
    code, doc = run_cli(capsys, "cache", "export", "--cache", cache)
    assert code == 0 and doc["entries"] > 0
    merged = str(tmp_path / "m.tsv")
    code, doc = run_cli(capsys, "cache", "import", "--cache", merged,
                        "--input", cache, "--input", cache)
    assert code == 0
    assert doc["added"] == doc["entries"]


@pytest.mark.parametrize("label", ["\u00e9", "b\rc", "x\u2028y"])
def test_cache_keeps_every_label_the_solver_accepts(capsys, tmp_path, label):
    # Non-ASCII labels once broke the save; line breaks other than "\n"
    # once broke the next load.
    graph = write_graph(tmp_path, Graph(["a", label], [("a", label)]))
    cache = str(tmp_path / "c.tsv")
    argv = ["solve", "gcds", "--graph", graph, "--favorable", "a", "--cache", cache]
    code, first = run_cli(capsys, *argv)
    assert code == 0
    code, second = run_cli(capsys, *argv)
    assert code == 0 and second["winner"] == first["winner"]
    code, doc = run_cli(capsys, "cache", "export", "--cache", cache)
    assert code == 0 and doc["entries"] == len(cache_load(cache)) > 0
    assert any(label in key for key, _ in doc["records"])


def test_undecodable_cache_file_is_a_format_error(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"GCDSCACHE 1\nP|\xff|1|1\tONE\n")
    with pytest.raises(CacheFormatError):
        cache_load(str(path))


def test_play_cds_game(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1,3\n"))
    code = main(["play", "--perm", "3 1 4 2 5", "--favorable", "2", "--human", "ONE"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["game"] == "cds"
    assert doc["moves"][0] == {"mover": "ONE", "move": ["1", "3"]}
    assert doc["winner"] in ("ONE", "TWO")


def test_play_engine_opens_and_wins(capsys, monkeypatch):
    # Engine is ONE with favorable {1}; it should win without consulting the
    # human at all (one move ends the game).
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = main(["play", "--perm", "2 4 1 3", "--favorable", "1", "--human", "TWO"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["winner"] == "ONE" and doc["human_won"] is False


def test_play_rejects_ambiguous_setup(capsys):
    code = main(["play", "--favorable", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2 and "error" in doc


def test_play_handles_eof(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = main(["play", "--perm", "3 1 4 2 5", "--favorable", "2", "--human", "ONE"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2 and "error" in doc


def test_play_graph_rejects_stray_favorable(capsys, tmp_path):
    chain = write_graph(tmp_path, gen_chain(1))
    code, doc = run_cli(capsys, "play", "--graph", chain, "--favorable", "2,9")
    assert code == 2
    assert doc["error"]["message"] == "favorable vertices [9] are not in the graph"


def test_play_graph_engine_opens_and_wins(capsys, monkeypatch, tmp_path):
    chain = write_graph(tmp_path, gen_chain(1))
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = main(["play", "--graph", chain, "--favorable", "2", "--human", "TWO"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0
    assert doc == {"game": "gcds", "human": "TWO", "winner": "ONE", "human_won": False,
                   "moves": [{"mover": "ONE", "move": ["1", "3"]}],
                   "final": {"vertices": ["2"], "edges": []}}
    assert captured.err == "engine plays 1,3\n"


def test_play_graph_human_move_is_reprompted_until_legal(capsys, monkeypatch, tmp_path):
    chain = write_graph(tmp_path, gen_chain(2))
    monkeypatch.setattr("sys.stdin", io.StringIO("1,9\n1,2\n"))
    code = main(["play", "--graph", chain, "--favorable", "2,4", "--human", "ONE"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0
    assert doc["moves"] == [{"mover": "ONE", "move": ["1", "2"]},
                            {"mover": "TWO", "move": ["3", "4"]}]
    assert doc["final"] == {"vertices": ["5"], "edges": []}
    assert doc["winner"] == "TWO" and doc["human_won"] is False
    prompt = "legal moves: 1,2  1,3  2,3  3,4  3,5  4,5\nyour move: "
    assert captured.err == (prompt + "  '1,9' is not a legal move\n" + prompt
                            + "engine plays 3,4\n")


def _fresh_import_probe(probe: str) -> str:
    """Run ``probe`` in a new interpreter after ``import cdsgame.cli``."""
    src = os.path.dirname(os.path.dirname(cdsgame.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", "import sys, cdsgame.cli\n" + probe], env=env,
                          check=True, capture_output=True, text=True).stdout.strip()


def test_cli_import_does_not_load_the_process_pool():
    assert _fresh_import_probe("print('concurrent.futures.process' in sys.modules)") == "False"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI call pays for its imports; these two cost about 20 ms together.
    probe = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_import_probe(probe) == "[]"


def test_cli_import_loads_every_module_the_cli_tracer_targets():
    # perfbench/cli_traced.py installs its tracer right after importing the
    # CLI, and the tracer looks each traced module up in sys.modules, then
    # each attribute in it ("Class.method" in the class's own namespace).
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    probe = (f"sys.path.insert(0, {perfbench!r}); from tracer import TARGETS\n"
             "def missing(module, attr):\n"
             "    owner = sys.modules.get('cdsgame.' + module)\n"
             "    cls, _, name = attr.rpartition('.')\n"
             "    if cls:\n"
             "        owner = getattr(owner, cls, None)\n"
             "        return owner is None or name not in vars(owner)\n"
             "    return not hasattr(owner, name)\n"
             "print(sorted(f'{m}.{a}' for m, a, _ in TARGETS if missing(m, a)))")
    assert _fresh_import_probe(probe) == "[]"
