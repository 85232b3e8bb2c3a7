"""Command-line interface.

Every subcommand prints exactly one JSON document on standard output
(``--pretty`` switches to indented rendering); interactive prompts from
``play`` go to standard error so the document contract survives piping.
Exit codes: 0 success, 2 invalid input, 3 verification failure, 4 refusal
to exceed a solver size bound.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
import time

from .cyclegraph import (
    SizeBoundError,
    achievable_fixed_points,
    strategic_pile,
)
from .families import (
    ConstructionError,
    gen_alpha,
    gen_chain,
    gen_favorable,
    tight_instance,
)
from .games import (
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
    np_status,
    opponent,
    solve_cds,
    solve_gcds,
    successor,
)
from .graphs import (
    NotAnEdgeError,
    Position,
    apply_gcds,
    apply_gcds2,
    are_isomorphic,
)
from .jsonio import (
    dump_document,
    graph_from_file,
    graph_to_doc,
    move_to_doc,
    np_report_to_doc,
    parse_label,
    perm_to_doc,
    report_to_doc,
)
from .overlap import overlap_graph
from .permutations import (
    NotApplicableError,
    ParseError,
    apply_cds,
    legal_moves,
    parse_decimal,
    parse_permutation,
)
from .suites import SUITE_NAMES, run_suite

__all__ = ["build_parser", "main"]


def integer(text: str) -> int:
    """:func:`parse_decimal` for argparse, which names the type function when
    it refuses a value: ``invalid integer value: '1_0'``."""
    return parse_decimal(text)


def _split_csv(text: str) -> list[str]:
    return [part for part in (text or "").split(",") if part != ""]


def _parse_edge(text: str) -> tuple:
    parts = _split_csv(text)
    if len(parts) != 2:
        raise ParseError(f"expected two comma-separated labels, got {text!r}")
    return (parse_label(parts[0]), parse_label(parts[1]))


def _parse_pair(text: str) -> tuple[int, int]:
    parts = _split_csv(text)
    if len(parts) != 2:
        raise ParseError(f"expected two comma-separated codes, got {text!r}")
    try:
        return (parse_decimal(parts[0]), parse_decimal(parts[1]))
    except ValueError:
        raise ParseError(f"pointer codes must be integers, got {text!r}") from None


def _position(args) -> Position:
    graph = graph_from_file(args.graph)
    return Position(graph, frozenset(parse_label(part) for part in _split_csv(args.favorable)))


def _cds_state(args, mover: str) -> CdsState:
    perm = parse_permutation(args.perm)
    codes = set()
    for part in _split_csv(args.favorable):
        try:
            codes.add(parse_decimal(part))
        except ValueError:
            raise ParseError(f"favorable code {part!r} is not an integer") from None
    return CdsState(perm, frozenset(codes), mover)


def _file_stamp(path: str) -> tuple[int, int, int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _load_cache(path: str | None) -> tuple[SolveCache, tuple[int, int, int] | None]:
    """The cache at ``path`` (empty when absent) and the file stamp it was read at."""
    if path is None:
        return SolveCache(), None
    stamp = _file_stamp(path)
    try:
        return cache_load(path), stamp
    except FileNotFoundError:
        return SolveCache(), None


def _store_cache(cache: SolveCache, path: str | None,
                 stamp: tuple[int, int, int] | None) -> None:
    """Save ``cache`` to ``path``, first merging in what other processes saved.

    Saves are serialised by an exclusive lock on ``<path>.lock``.  When the
    file's stamp differs from the one ``_load_cache`` saw, another process
    has written it since, so its entries are read back and merged; a
    conflicting winner raises CacheFormatError.
    """
    if path is None:
        return
    with open(f"{path}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        current = _file_stamp(path)
        if current is not None and current != stamp:
            cache.merge(cache_load(path))
        cache_save(cache, path)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (document, exit code).
# ---------------------------------------------------------------------------

def _cmd_perm_apply(args):
    perm = parse_permutation(args.perm)
    p, q = _parse_pair(args.pair)
    result = apply_cds(perm, p, q)
    return {"perm": perm_to_doc(perm), "move": [str(p), str(q)],
            "result": perm_to_doc(result)}, 0


def _cmd_perm_moves(args):
    perm = parse_permutation(args.perm)
    moves = [[str(p), str(q)] for p, q in sorted(legal_moves(perm))]
    return {"perm": perm_to_doc(perm), "moves": moves}, 0


def _cmd_perm_pile(args):
    perm = parse_permutation(args.perm)
    pile = strategic_pile(perm)
    return {"perm": perm_to_doc(perm), "pile": list(pile),
            "sortable": len(pile) == 0}, 0


def _cmd_perm_overlap(args):
    perm = parse_permutation(args.perm)
    return graph_to_doc(overlap_graph(perm)), 0


def _cmd_perm_sortable(args):
    perm = parse_permutation(args.perm)
    pile = strategic_pile(perm)
    return {"perm": perm_to_doc(perm), "sortable": len(pile) == 0,
            "pile_size": len(pile)}, 0


def _cmd_perm_fixedpoints(args):
    perm = parse_permutation(args.perm)
    bound = () if args.max_n is None else (args.max_n,)
    reachable = achievable_fixed_points(perm, *bound)
    codes = sorted(c for c in reachable if c is not None)
    return {"perm": perm_to_doc(perm), "codes": codes,
            "identity": None in reachable}, 0


def _cmd_graph_gcds(args):
    g = graph_from_file(args.graph)
    return graph_to_doc(apply_gcds(g, _parse_edge(args.edge))), 0


def _cmd_graph_gcds2(args):
    g = graph_from_file(args.graph)
    return graph_to_doc(apply_gcds2(g, _parse_edge(args.edge))), 0


def _cmd_graph_iso(args):
    g = graph_from_file(args.graph)
    h = graph_from_file(args.other)
    mapping = are_isomorphic(g, h)
    doc = {"isomorphic": mapping is not None,
           "mapping": None if mapping is None
           else {str(k): str(v) for k, v in mapping.items()}}
    return doc, 0


def _cmd_gen_chain(args):
    return graph_to_doc(gen_chain(args.m)), 0


def _cmd_gen_favorable(args):
    return {"favorable": sorted(gen_favorable(args.m))}, 0


def _cmd_gen_alpha(args):
    return {"perm": perm_to_doc(gen_alpha(args.n))}, 0


def _cmd_gen_tight(args):
    alpha, favorable = tight_instance(args.n)
    return {"perm": perm_to_doc(alpha), "favorable": sorted(favorable),
            "pile": list(strategic_pile(alpha))}, 0


def _run_solver(args, solver, problem, to_doc):
    """Solve under the --max-n and --cache options; the document gets a timing."""
    cache, stamp = _load_cache(args.cache)
    bound = () if args.max_n is None else (args.max_n,)
    start = time.perf_counter()
    report = solver(problem, cache, *bound)
    elapsed = time.perf_counter() - start
    _store_cache(cache, args.cache, stamp)
    doc = to_doc(report)
    doc["timing"] = {"seconds": elapsed}
    return doc, 0


def _cmd_solve_gcds(args):
    state = GcdsState(_position(args), args.first)
    return _run_solver(args, solve_gcds, state, report_to_doc)


def _cmd_solve_cds(args):
    return _run_solver(args, solve_cds, _cds_state(args, args.first), report_to_doc)


def _cmd_solve_np(args):
    return _run_solver(args, np_status, _position(args), np_report_to_doc)


def _cmd_verify(args):
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    suites = []
    timing = {}
    phases = {}
    for name in names:
        result = run_suite(name, seed=args.seed, max_n=args.max_n,
                           max_m=args.max_m, samples=args.samples,
                           threads=args.threads)
        suites.append({
            "name": result.name,
            "cases": result.cases,
            "failures": result.failures,
            "notes": result.notes,
            "ok": result.ok,
        })
        timing[name] = result.elapsed
        phases[name] = result.phases
    ok = all(s["ok"] for s in suites)
    doc = {"suites": suites, "ok": ok,
           "timing": {"seconds": sum(timing.values()), "per_suite": timing,
                      "per_phase": phases}}
    return doc, 0 if ok else 3


def _prompt(moves: list[str]) -> str:
    print("legal moves: " + "  ".join(moves), file=sys.stderr)
    print("your move: ", end="", file=sys.stderr, flush=True)
    line = sys.stdin.readline()
    if not line:
        raise ParseError("input ended before the game finished")
    return line.strip()


def _cmd_play(args):
    if (args.perm is None) == (args.graph is None):
        raise ParseError("play needs exactly one of --perm or --graph")
    cache, stamp = _load_cache(args.cache)
    if args.perm is not None:
        root = _cds_state(args, ONE)
        state, game, name = root.perm, CdsGame(root.favorable), "cds"

        def solve(perm, mover):
            return solve_cds(CdsState(perm, root.favorable, mover), cache)
    else:
        root = _position(args)
        state, game, name = root.graph, GcdsGame(root.favorable), "gcds"

        def solve(graph, mover):
            position = Position(graph, root.favorable & graph.vertices)
            return solve_gcds(GcdsState(position, mover), cache)

    transcript = []
    mover = ONE
    while (winner := game.outcome(state)) is None:
        entry = game.moves(state)
        moves = entry[0]
        if mover == args.human:
            rendered = [f"{a},{b}" for a, b in moves]
            while (choice := _prompt(rendered)) not in rendered:
                print(f"  {choice!r} is not a legal move", file=sys.stderr)
            i = rendered.index(choice)
            move, after = moves[i], successor(game, state, entry, i)
        else:
            report = solve(state, mover)
            move = report.principal_variation[0]
            after = successor(game, state, entry, moves.index(move))
            if report.winner == mover:
                check = solve(after, opponent(mover))
                assert check.winner == mover, "engine left a won game"
            print(f"engine plays {move[0]},{move[1]}", file=sys.stderr)
        transcript.append({"mover": mover, "move": move_to_doc(move)})
        state = after
        mover = opponent(mover)

    _store_cache(cache, args.cache, stamp)
    final = {"perm": perm_to_doc(state)} if name == "cds" else graph_to_doc(state)
    doc = {"game": name, "human": args.human, "winner": winner,
           "human_won": winner == args.human, "moves": transcript, "final": final}
    return doc, 0


def _cmd_cache_export(args):
    cache = cache_load(args.cache)
    records = sorted(cache.items())
    return {"path": args.cache, "entries": len(records),
            "records": [[k, w] for k, w in records]}, 0


def _cmd_cache_import(args):
    merged, stamp = _load_cache(args.cache)
    added = 0
    for source in args.input:
        added += merged.merge(cache_load(source))
    _store_cache(merged, args.cache, stamp)
    return {"path": args.cache, "entries": len(merged), "added": added,
            "sources": list(args.input)}, 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

def _common() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    return shared


def build_parser() -> argparse.ArgumentParser:
    shared = _common()
    parser = argparse.ArgumentParser(
        prog="cdsgame",
        description="Context-directed swap sorting and its two solitaire-style games.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    perm = groups.add_parser("perm", help="permutation operations").add_subparsers(
        dest="sub", required=True)
    p = perm.add_parser("apply", parents=[shared], help="apply one swap")
    p.add_argument("--perm", required=True, help='entries, e.g. "3 6 5 2 4 8 1 7"')
    p.add_argument("--pair", required=True, help="pointer codes, e.g. 3,6")
    p.set_defaults(handler=_cmd_perm_apply)
    p = perm.add_parser("moves", parents=[shared], help="list interlocking pairs")
    p.add_argument("--perm", required=True)
    p.set_defaults(handler=_cmd_perm_moves)
    p = perm.add_parser("pile", parents=[shared], help="strategic pile in walk order")
    p.add_argument("--perm", required=True)
    p.set_defaults(handler=_cmd_perm_pile)
    p = perm.add_parser("overlap", parents=[shared], help="overlap graph as JSON")
    p.add_argument("--perm", required=True)
    p.set_defaults(handler=_cmd_perm_overlap)
    p = perm.add_parser("sortable", parents=[shared], help="sortability via the pile")
    p.add_argument("--perm", required=True)
    p.set_defaults(handler=_cmd_perm_sortable)
    p = perm.add_parser("fixedpoints", parents=[shared],
                        help="reachable fixed-point codes")
    p.add_argument("--perm", required=True)
    p.add_argument("--max-n", type=integer, default=None,
                   help="search size bound override")
    p.set_defaults(handler=_cmd_perm_fixedpoints)

    graph = groups.add_parser("graph", help="graph pivots and isomorphism").add_subparsers(
        dest="sub", required=True)
    p = graph.add_parser("gcds", parents=[shared], help="pivot at an edge")
    p.add_argument("--graph", required=True, help="graph JSON file, - for stdin")
    p.add_argument("--edge", required=True, help="edge, e.g. 1,2")
    p.set_defaults(handler=_cmd_graph_gcds)
    p = graph.add_parser("gcds2", parents=[shared], help="pivot, then prune")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge", required=True)
    p.set_defaults(handler=_cmd_graph_gcds2)
    p = graph.add_parser("iso", parents=[shared], help="isomorphism test")
    p.add_argument("--graph", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(handler=_cmd_graph_iso)

    gen = groups.add_parser("gen", help="named families").add_subparsers(
        dest="sub", required=True)
    p = gen.add_parser("chain", parents=[shared], help="triangle chain graph")
    p.add_argument("--m", type=integer, required=True)
    p.set_defaults(handler=_cmd_gen_chain)
    p = gen.add_parser("favorable", parents=[shared], help="chain favorable set")
    p.add_argument("--m", type=integer, required=True)
    p.set_defaults(handler=_cmd_gen_favorable)
    p = gen.add_parser("alpha", parents=[shared], help="tight permutation")
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(handler=_cmd_gen_alpha)
    p = gen.add_parser("tight", parents=[shared],
                       help="tight permutation with its favorable set")
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(handler=_cmd_gen_tight)

    solve = groups.add_parser("solve", help="perfect-play solving").add_subparsers(
        dest="sub", required=True)
    # Options shared by the three solvers and play.
    solving = argparse.ArgumentParser(add_help=False, parents=[shared])
    solving.add_argument("--favorable", default="",
                         help="comma-separated vertex labels or fixed-point codes")
    solving.add_argument("--cache", default=None, help="cache file to read and update")
    p = solve.add_parser("gcds", parents=[solving], help="solve a graph game state")
    p.add_argument("--graph", required=True)
    p.add_argument("--first", choices=(ONE, TWO), default=ONE)
    p.add_argument("--max-n", type=integer, default=None, help="state size bound override")
    p.set_defaults(handler=_cmd_solve_gcds)
    p = solve.add_parser("cds", parents=[solving], help="solve a permutation game state")
    p.add_argument("--perm", required=True)
    p.add_argument("--first", choices=(ONE, TWO), default=ONE)
    p.add_argument("--max-n", type=integer, default=None, help="state size bound override")
    p.set_defaults(handler=_cmd_solve_cds)
    p = solve.add_parser("np", parents=[solving],
                         help="classify a position for both opening movers")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-n", type=integer, default=None, help="state size bound override")
    p.set_defaults(handler=_cmd_solve_np)

    p = groups.add_parser("verify", parents=[shared], help="run verification suites")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=integer, default=0, help="seed for randomized blocks")
    p.add_argument("--max-n", type=integer, default=None)
    p.add_argument("--max-m", type=integer, default=None)
    p.add_argument("--samples", type=integer, default=None)
    p.add_argument("--threads", type=integer, default=1,
                   help="processes for the commutation suite's sampled squares")
    p.set_defaults(handler=_cmd_verify)

    p = groups.add_parser("play", parents=[solving],
                          help="play against the exact solver")
    p.add_argument("--perm", default=None)
    p.add_argument("--graph", default=None)
    p.add_argument("--human", choices=(ONE, TWO), default=ONE,
                   help="which mover the human controls")
    p.set_defaults(handler=_cmd_play)

    cache = groups.add_parser("cache", help="cache file utilities").add_subparsers(
        dest="sub", required=True)
    p = cache.add_parser("export", parents=[shared],
                         help="print a cache file as JSON")
    p.add_argument("--cache", required=True)
    p.set_defaults(handler=_cmd_cache_export)
    p = cache.add_parser("import", parents=[shared],
                         help="merge cache files into one")
    p.add_argument("--cache", required=True, help="destination cache file")
    p.add_argument("--input", action="append", required=True,
                   help="source cache file (repeatable)")
    p.set_defaults(handler=_cmd_cache_import)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pretty = getattr(args, "pretty", False)
    try:
        doc, code = args.handler(args)
    except SizeBoundError as exc:
        print(dump_document({"error": {"type": "size-bound", "message": str(exc)}},
                            pretty))
        return 4
    except (ParseError, NotApplicableError, NotAnEdgeError, CacheFormatError,
            ConstructionError, ValueError, OSError) as exc:
        print(dump_document({"error": {"type": type(exc).__name__,
                                       "message": str(exc)}}, pretty))
        return 2
    print(dump_document(doc, pretty))
    return code


if __name__ == "__main__":
    sys.exit(main())
