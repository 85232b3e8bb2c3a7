"""Machine-checkable verification suites.

Each suite replays a body of claims against the implementation: frozen
worked examples, exhaustive small-case sweeps, and seeded random sampling
for sizes where exhaustion is out of reach.  A suite returns a
:class:`SuiteResult` whose ``failures`` list carries one minimal
reproducing description per failed case; an empty list means the suite
passed.  Suites are deterministic for a fixed seed, including under
``threads > 1`` (work is chunked and merged in input order).
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from itertools import combinations, permutations as all_words

from .cyclegraph import (
    achievable_fixed_points,
    alternating_cycles,
    build_cycle_graph,
    is_sortable,
    sortable_bruteforce,
    strategic_pile,
)
from .families import (
    UNDETERMINED,
    bound_prediction,
    expected_np,
    gen_alpha,
    gen_chain,
    gen_favorable,
    tight_instance,
)
from .games import (
    ONE,
    TWO,
    CacheFormatError,
    CdsState,
    GcdsState,
    SolveCache,
    cache_load,
    cache_save,
    gcds_terminal_winner,
    np_status,
    solve_cds,
    solve_gcds,
)
from .graphs import (
    Graph,
    Position,
    apply_gcds,
    apply_gcds2,
    are_isomorphic,
    masterlist,
    positions_isomorphic,
)
from .jsonio import dump_document, graph_from_doc, graph_to_doc
from .overlap import check_commutation, overlap_graph
from .permutations import (
    HEAD_RIGHT,
    TAIL_LEFT,
    Permutation,
    apply_cds,
    fixed_point_code,
    identity,
    interlocks,
    is_fixed_point,
    legal_moves,
    parse_permutation,
    pointer_occurrences,
)

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_all"]


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    cases: int
    failures: list[str]
    notes: list[str]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures


class _Recorder:
    """Accumulates case counts, failures, and free-form notes."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(describe() if callable(describe) else describe)

    def bulk(self, checked: int, failures: list[str]) -> None:
        self.cases += checked
        self.failures.extend(failures)

    def note(self, text: str) -> None:
        self.notes.append(text)


def _fan_out(worker, items: list, threads: int) -> list:
    """Apply ``worker`` to contiguous chunks of ``items``, merged in order.

    With ``threads <= 1`` (or trivially small input) everything runs in
    process; otherwise chunks go to a process pool of at most one worker per
    CPU and per item.  Either way the merged result order depends only on the
    input order, never on scheduling.
    """
    threads = min(threads, os.cpu_count() or 1, len(items))
    if threads <= 1:
        return [worker(items)]
    # Imported here so that importing the package does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    size = -(-len(items) // threads)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


# ---------------------------------------------------------------------------
# Frozen worked-example fixtures.
#
# The 8-entry word is the running sorting example; the two pivot fixtures
# are the hand-checked before/after graphs with their masterlists; the game
# replay fixture is the 7-vertex played-out match, recorded move by move.
# ---------------------------------------------------------------------------

_WORKED_SORT = (3, 6, 5, 2, 4, 8, 1, 7)

_PIVOT_SMALL_BEFORE = (
    range(1, 8),
    [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
     (1, 3), (2, 4), (3, 6), (1, 4), (2, 6), (1, 7)],
)
_PIVOT_SMALL_EDGE = (1, 2)
_PIVOT_SMALL_COLUMNS = (frozenset({3, 4, 7}), frozenset({3, 4, 6}))
_PIVOT_SMALL_AFTER = [(3, 4), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6)]

_PIVOT_LARGE_BEFORE = (
    range(1, 10),
    [(1, 2), (1, 5), (1, 6), (1, 7), (1, 9), (2, 3), (2, 6), (2, 7), (2, 9),
     (3, 5), (5, 6), (5, 7), (5, 9), (6, 7), (6, 9), (7, 8), (8, 9)],
)
_PIVOT_LARGE_EDGE = (2, 7)
_PIVOT_LARGE_COLUMNS = (frozenset({1, 3, 6, 9}), frozenset({1, 5, 6, 8}))
_PIVOT_LARGE_AFTER = [(1, 3), (1, 6), (1, 8), (3, 6), (3, 8), (6, 8)]
_PIVOT_LARGE_ISOLATED = frozenset({2, 4, 5, 7, 9})

_REPLAY_GRAPH = (
    range(1, 8),
    [(1, 2), (1, 3), (1, 4), (1, 7), (2, 3), (2, 4), (2, 6),
     (3, 4), (3, 6), (4, 5), (5, 6), (6, 7)],
)
_REPLAY_FAVORABLE = frozenset({1, 3, 5, 7})
_REPLAY_MOVES = ((2, 4), (1, 3), (6, 7))
_REPLAY_STATES = (
    ({1, 3, 5, 6, 7}, [(1, 3), (1, 5), (1, 6), (1, 7), (3, 5), (6, 7)]),
    ({5, 6, 7}, [(5, 6), (5, 7), (6, 7)]),
    ({5}, []),
)


def _suite_paper_examples(rec, *, seed, max_n, max_m, samples, threads):
    beta = Permutation(_WORKED_SORT)

    rec.check(parse_permutation("3 6 5 2 4 8 1 7") == beta,
              "parsing the worked sorting example")
    rec.check(interlocks(beta, 3, 6),
              "pointers 3 and 6 should interlock in the worked example")
    delta = apply_cds(beta, 3, 6)
    rec.check(
        list(delta) == [3, 4, 8, 1, 5, 2, 6, 7],
        lambda: f"swap on pointers (3,6) gave {list(delta)}",
    )

    gamma = Permutation((3, 1, 4, 2, 5))
    occ = pointer_occurrences(gamma, 1)
    rec.check(
        [(o.position, o.side) for o in occ] == [(2, HEAD_RIGHT), (4, TAIL_LEFT)],
        lambda: f"occurrences of pointer 1 in [3,1,4,2,5]: {occ}",
    )
    rec.check(not interlocks(gamma, 1, 2), "pointers 1,2 of [3,1,4,2,5] do not interlock")
    rec.check(interlocks(gamma, 1, 3), "pointers 1,3 of [3,1,4,2,5] interlock")
    rec.check(
        overlap_graph(gamma).edge_list() == [(1, 3), (1, 4), (2, 4)],
        lambda: f"overlap graph of [3,1,4,2,5]: {overlap_graph(gamma).edge_list()}",
    )

    rotation = Permutation((4, 1, 2, 3))
    rec.check(legal_moves(rotation) == set(), "a rotation admits no move")
    rec.check(is_fixed_point(rotation) and fixed_point_code(rotation) == 3,
              "rotation [4,1,2,3] is the fixed point with code 3")
    rec.check(fixed_point_code(identity(5)) is None, "the identity carries no code")

    cg = build_cycle_graph(beta)
    rec.check(
        cg.black_successor == {6: 3, 5: 6, 2: 5, 4: 2, 8: 4, 1: 8, 7: 1, 9: 7, 3: 0},
        lambda: f"black successors of the worked example: {cg.black_successor}",
    )
    cycles = alternating_cycles(cg)
    rec.check(len(cycles) == 1, lambda: f"expected one alternating cycle, got {len(cycles)}")
    rec.check(len(cycles.cycles[0]) == 18, "the single cycle should traverse all 18 edges")
    pile = strategic_pile(beta)
    rec.check(pile.as_set() == frozenset(range(1, 8)), "the worked example has a full pile")
    rec.check(not is_sortable(beta), "a full pile means not sortable")

    for before, edge, columns, after in (
        (_PIVOT_SMALL_BEFORE, _PIVOT_SMALL_EDGE, _PIVOT_SMALL_COLUMNS, _PIVOT_SMALL_AFTER),
        (_PIVOT_LARGE_BEFORE, _PIVOT_LARGE_EDGE, _PIVOT_LARGE_COLUMNS, _PIVOT_LARGE_AFTER),
    ):
        g = Graph(*before)
        ml = masterlist(g, edge)
        rec.check(
            (ml.column_x, ml.column_y) == columns,
            lambda e=edge, m=ml: f"masterlist at {e}: {sorted(m.column_x)} / {sorted(m.column_y)}",
        )
        out = apply_gcds(g, edge)
        rec.check(
            out.edge_list() == sorted(tuple(sorted(e)) for e in after),
            lambda e=edge, o=out: f"pivot at {e} gave edges {o.edge_list()}",
        )
        rec.check(out.vertices == g.vertices, "a pivot never changes the vertex set")

    large = Graph(*_PIVOT_LARGE_BEFORE)
    out = apply_gcds(large, _PIVOT_LARGE_EDGE)
    rec.check(
        out.isolated_vertices() == _PIVOT_LARGE_ISOLATED,
        lambda: f"isolated vertices after the large pivot: {sorted(out.isolated_vertices())}",
    )

    g = Graph(*_REPLAY_GRAPH)
    for move, (verts, edges) in zip(_REPLAY_MOVES, _REPLAY_STATES):
        g = apply_gcds2(g, move)
        rec.check(
            g.vertices == frozenset(verts)
            and g.edge_list() == sorted(tuple(sorted(e)) for e in edges),
            lambda mv=move, gg=g: f"replay move {mv} gave {gg.vertex_list()} / {gg.edge_list()}",
        )
    rec.check(
        gcds_terminal_winner(Position(g, _REPLAY_FAVORABLE & g.vertices)) == ONE,
        "the surviving vertex of the replay lies in the favorable set",
    )

    replay_root = GcdsState(Position(Graph(*_REPLAY_GRAPH), _REPLAY_FAVORABLE), ONE)
    rec.check(solve_gcds(replay_root).winner == ONE,
              "perfect play confirms the replayed match as a first-player win")
    chain2 = GcdsState(Position(gen_chain(2), gen_favorable(2)), ONE)
    rec.check(solve_gcds(chain2).winner == TWO,
              "the two-triangle chain with favorable {2,4} is a second-player win")

    rec.check(gen_chain(1) == Graph((1, 2, 3), [(1, 2), (1, 3), (2, 3)]),
              "the one-triangle chain")
    chain3 = gen_chain(3)
    rec.check(
        chain3.n_vertices() == 7 and chain3.n_edges() == 9
        and chain3.edge_list() == [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                                   (4, 5), (5, 6), (5, 7), (6, 7)],
        "the three-triangle chain",
    )
    rec.check(gen_chain(2).n_vertices() == 5 and gen_chain(2).n_edges() == 6,
              "the two-triangle chain")
    rec.check(gen_favorable(2) == frozenset({2, 4}), "favorable set at m=2")
    rec.check(gen_favorable(1) == frozenset({2}), "favorable set at m=1")
    rec.check(gen_favorable(5) == frozenset({2, 4, 8}), "favorable set at m=5")
    rec.check(list(gen_alpha(8)) == [5, 7, 6, 3, 2, 4, 8, 1], "alpha at n=8")
    rec.check(list(gen_alpha(12)) == [5, 7, 6, 9, 8, 11, 10, 3, 2, 4, 12, 1],
              "alpha at n=12")
    rec.check((expected_np(1), expected_np(2), expected_np(5)) == ("N", "P", "N"),
              "closed-form chain classification samples")

    cache = SolveCache()
    for m in range(1, 6):
        rep = np_status(Position(gen_chain(m), gen_favorable(m)), cache=cache)
        rec.check(
            rep.status == expected_np(m),
            lambda mm=m, r=rep: f"chain m={mm} classified {r.status}",
        )

    for n in (8, 12):
        alpha, b = tight_instance(n)
        pile = strategic_pile(alpha)
        rec.check(len(pile) == n - 1, f"alpha at n={n} should have a full pile")
        rec.check(len(b) == (len(pile) - 3) // 4 + 1,
                  f"favorable-set size arithmetic at n={n}")
    alpha8, b8 = tight_instance(8)
    rec.check(solve_cds(CdsState(alpha8, b8, ONE)).winner == ONE,
              "the tight n=8 instance is a first-player win")

    rec.check(
        bound_prediction(7, 1).verdict == TWO and "two-endgame" in bound_prediction(7, 1).rules,
        "pile 7 with one favorable code is a guaranteed second-player win",
    )
    rec.check(bound_prediction(7, 2).verdict == UNDETERMINED,
              "pile 7 with two favorable codes falls in the open gap")
    rec.check(bound_prediction(8, 6).verdict == ONE,
              "pile 8 with six favorable codes is a guaranteed first-player win")


# ---------------------------------------------------------------------------
# Commutation: sorting a permutation and pivoting its overlap graph commute.
# ---------------------------------------------------------------------------

def _commutation_worker(chunk):
    failures = []
    for word, p, q in chunk:
        if not check_commutation(Permutation(word), p, q):
            failures.append(f"commutation fails at perm={list(word)} move=({p},{q})")
    return len(chunk), failures


def _suite_commutation(rec, *, seed, max_n, max_m, samples, threads):
    lim = 6 if max_n is None else max_n
    squares = 0
    for n in range(2, lim + 1):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            for p, q in sorted(legal_moves(perm)):
                squares += 1
                rec.check(
                    check_commutation(perm, p, q),
                    lambda w=word, pp=p, qq=q: f"commutation fails at perm={list(w)} move=({pp},{qq})",
                )
    rec.note(f"exhaustive: {squares} permutation/move squares with n <= {lim}")

    count = 10_000 if samples is None else samples
    rng = random.Random(seed)
    payload = []
    for _ in range(count):
        n = rng.choice((8, 9, 10))
        word = list(range(1, n + 1))
        rng.shuffle(word)
        moves = sorted(legal_moves(Permutation(word)))
        if not moves:
            continue
        payload.append((tuple(word), *moves[rng.randrange(len(moves))]))
    for checked, failures in _fan_out(_commutation_worker, payload, threads):
        rec.bulk(checked, failures)
    rec.note(f"sampled: {len(payload)} random squares at n in 8..10, seed {seed}")


# ---------------------------------------------------------------------------
# Pile behavior: sortability, removability, achievable fixed points, and the
# per-move removal bound.
# ---------------------------------------------------------------------------

def _suite_pile_lemma(rec, *, seed, max_n, max_m, samples, threads):
    lim = 6 if max_n is None else max_n
    for n in range(1, lim + 1):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            pile = strategic_pile(perm)
            rec.check(
                is_sortable(perm) == sortable_bruteforce(perm, max_n=lim),
                lambda w=word: f"pile-empty and brute-force sortability disagree at {list(w)}",
            )
            achieved = achievable_fixed_points(perm, max_n=lim)
            wanted = frozenset({None}) if len(pile) == 0 else pile.as_set()
            rec.check(
                achieved == wanted,
                lambda w=word, a=achieved, b=wanted:
                f"achievable fixed points of {list(w)}: {sorted(map(str, a))}, pile says {sorted(map(str, b))}",
            )
            if len(pile) >= 2:
                for c in sorted(pile.as_set()):
                    removable = any(
                        q != c
                        and interlocks(perm, c, q)
                        and c not in strategic_pile(apply_cds(perm, c, q))
                        for q in range(1, n)
                    )
                    rec.check(
                        removable,
                        lambda w=word, cc=c: f"pile code {cc} of {list(w)} is not removable by any single move",
                    )
    rec.note(f"sortability, achievability, and removability exhaustive at n <= {lim}")

    lim4 = lim + 1
    worst = 0
    added_events = 0
    for n in range(1, lim4 + 1):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            before = strategic_pile(perm).as_set()
            for p, q in sorted(legal_moves(perm)):
                after = strategic_pile(apply_cds(perm, p, q)).as_set()
                removed = len(before - after)
                worst = max(worst, removed)
                if after - before:
                    added_events += 1
                rec.check(
                    removed <= 2,
                    lambda w=word, pp=p, qq=q, r=removed:
                    f"move ({pp},{qq}) on {list(w)} removed {r} pile codes",
                )
    rec.note(f"per-move removal bound exhaustive at n <= {lim4}; worst removal {worst}")
    rec.note(f"moves that added pile codes: {added_events}")


# ---------------------------------------------------------------------------
# Chain collapse: checks the claim that pivot-and-prune on a triangle chain
# at any edge yields the next smaller chain.  The claim is false at the
# interior glue-glue edges (2k+1, 2k+3), where the pivot leaves the chain
# with a K5 bead instead, so the suite reports exactly those edges as failures.
# ---------------------------------------------------------------------------

def _suite_chain_collapse(rec, *, seed, max_n, max_m, samples, threads):
    top = 6 if max_m is None else max_m
    for m in range(2, top + 1):
        chain = gen_chain(m)
        smaller = gen_chain(m - 1)
        for edge in chain.edge_list():
            rec.check(
                are_isomorphic(apply_gcds2(chain, edge), smaller) is not None,
                lambda mm=m, e=edge:
                f"pivot-and-prune of the {mm}-triangle chain at edge {e} is not the {mm - 1}-triangle chain",
            )
    if rec.failures:
        rec.note(
            "every failing edge joins two odd glue vertices with complete "
            "triangles on both sides; there the pivot completes a clique on "
            "the masterlist instead of contracting the segment, because "
            "cross-column pairs toggle (exactly as the worked pivot fixtures "
            "require them to)"
        )


# ---------------------------------------------------------------------------
# Chain classification: solver agreement with the closed-form parity rule.
# ---------------------------------------------------------------------------

def _suite_np_classification(rec, *, seed, max_n, max_m, samples, threads):
    top = 6 if max_m is None else max_m
    cache = SolveCache()
    outcomes = []
    for m in range(1, top + 1):
        rep = np_status(Position(gen_chain(m), gen_favorable(m)), cache=cache)
        outcomes.append(rep.status)
        rec.check(
            rep.status == expected_np(m),
            lambda mm=m, r=rep: f"chain m={mm}: solver says {r.status}, parity rule says {expected_np(mm)}",
        )
        rec.check(
            not rep.anomaly,
            lambda mm=m, r=rep:
            f"chain m={mm}: movers disagree abnormally ({r.winner_one_first}/{r.winner_two_first})",
        )
    rec.note(f"chains m=1..{top} classified {','.join(str(s) for s in outcomes)}")


# ---------------------------------------------------------------------------
# Bounds: the closed-form winner rules never contradict exhaustive solving.
# ---------------------------------------------------------------------------

def _bounds_worker(chunk):
    cache = SolveCache()
    checked = 0
    failures = []
    for word in chunk:
        perm = Permutation(word)
        pile = strategic_pile(perm)
        if len(pile) == 0:
            continue
        codes = sorted(pile.as_set())
        for r in range(len(codes) + 1):
            for combo in combinations(codes, r):
                pred = bound_prediction(len(pile), r)
                if pred.verdict == UNDETERMINED:
                    continue
                winner = solve_cds(CdsState(perm, frozenset(combo), ONE), cache=cache).winner
                checked += 1
                if winner != pred.verdict:
                    failures.append(
                        f"perm={list(word)} favorable={list(combo)}: rule "
                        f"{'+'.join(pred.rules)} says {pred.verdict}, solver says {winner}"
                    )
    return checked, failures


def _suite_bounds(rec, *, seed, max_n, max_m, samples, threads):
    for pile_size in range(1, 65):
        for a_size in range(pile_size + 1):
            pred = bound_prediction(pile_size, a_size)
            rec.check(
                pred.verdict in (ONE, TWO, UNDETERMINED),
                f"no verdict for pile {pile_size}, favorable {a_size}",
            )
    rec.note("rule families audited as mutually exclusive for pile sizes up to 64")

    lim = 6 if max_n is None else max_n
    words = []
    for n in range(2, lim + 1):
        words.extend(all_words(range(1, n + 1)))
    results = _fan_out(_bounds_worker, words, threads)
    total = 0
    for checked, failures in results:
        rec.bulk(checked, failures)
        total += checked
    rec.note(f"solver comparisons on determined predictions at n <= {lim}: {total}")


# ---------------------------------------------------------------------------
# Tight instances: full piles sitting exactly on the undetermined gap, won
# by the first player, and spoiled by removing any favorable code.
# ---------------------------------------------------------------------------

def _suite_tight(rec, *, seed, max_n, max_m, samples, threads):
    cache = SolveCache()
    gcache = SolveCache()
    for n in (8, 12):
        alpha, favorable = tight_instance(n)
        pile = strategic_pile(alpha)
        rec.check(len(pile) == n - 1, f"alpha at n={n}: pile size {len(pile)}, expected {n - 1}")
        rec.check((n - 1) % 4 == 3, f"alpha at n={n}: pile size mod 4 should be 3")
        rec.check(
            len(favorable) == (len(pile) - 3) // 4 + 1,
            f"alpha at n={n}: favorable size {len(favorable)} off the tight mark",
        )
        rec.check(
            bound_prediction(len(pile), len(favorable)).verdict == UNDETERMINED,
            f"alpha at n={n}: the tight favorable size should sit in the undetermined gap",
        )
        winner = solve_cds(CdsState(alpha, favorable, ONE), cache=cache, max_n=n).winner
        rec.check(winner == ONE, f"alpha at n={n}: expected a first-player win, got {winner}")

        graph = overlap_graph(alpha)
        m = (n - 2) // 2
        rec.check(
            are_isomorphic(graph, gen_chain(m)) is not None,
            f"alpha at n={n}: overlap graph is not the {m}-triangle chain",
        )
        rec.check(
            positions_isomorphic(
                Position(graph, favorable), Position(gen_chain(m), gen_favorable(m))
            )
            is not None,
            f"alpha at n={n}: the favorable set does not sit like the chain's",
        )
        gwinner = solve_gcds(GcdsState(Position(graph, favorable), ONE), cache=gcache).winner
        rec.check(gwinner == ONE, f"alpha at n={n}: graph game gives {gwinner}, expected ONE")

        for code in sorted(favorable):
            slack = solve_cds(CdsState(alpha, favorable - {code}, ONE), cache=cache, max_n=n).winner
            rec.check(
                slack == TWO,
                f"alpha at n={n}: dropping favorable code {code} should flip the winner to TWO",
            )

    lim = 6 if max_n is None else max_n
    full_pairs = 0
    partial_pairs = 0
    partial_disagreements = 0
    for n in range(2, lim + 1):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            pile = strategic_pile(perm)
            if len(pile) == 0:
                continue
            full = len(pile) == n - 1
            graph = overlap_graph(perm)
            codes = sorted(pile.as_set())
            for r in range(len(codes) + 1):
                for combo in combinations(codes, r):
                    favorable = frozenset(combo)
                    for mover in (ONE, TWO):
                        w_perm = solve_cds(CdsState(perm, favorable, mover), cache=cache).winner
                        w_graph = solve_gcds(
                            GcdsState(Position(graph, favorable), mover), cache=gcache
                        ).winner
                        if full:
                            full_pairs += 1
                            rec.check(
                                w_perm == w_graph,
                                f"full-pile correspondence fails at perm={list(word)} "
                                f"favorable={list(combo)} mover={mover}: {w_perm} vs {w_graph}",
                            )
                        else:
                            partial_pairs += 1
                            if w_perm != w_graph:
                                partial_disagreements += 1
    rec.note(f"full-pile game correspondence at n <= {lim}: {full_pairs} solved pairs")
    rec.note(
        f"partial piles (no correspondence promised): {partial_disagreements} of "
        f"{partial_pairs} pairs disagree"
    )


# ---------------------------------------------------------------------------
# Formats: JSON graph round-trips, document determinism, and the cache file.
# ---------------------------------------------------------------------------

def _suite_formats(rec, *, seed, max_n, max_m, samples, threads):
    import os
    import tempfile

    rng = random.Random(seed)
    graphs = [gen_chain(m) for m in range(1, 7)]
    graphs.append(overlap_graph(gen_alpha(8)))
    graphs.append(overlap_graph(gen_alpha(12)))
    graphs.append(Graph(*_PIVOT_SMALL_BEFORE))
    graphs.append(Graph(*_PIVOT_LARGE_BEFORE))
    letters = "abcdefghijklmn"
    for _ in range(40):
        k = rng.randrange(1, 9)
        use_names = rng.random() < 0.5
        if use_names:
            verts = rng.sample(letters, k)
        else:
            verts = rng.sample(range(1, 30), k)
        edges = [
            pair for pair in combinations(sorted(verts, key=str), 2) if rng.random() < 0.4
        ]
        graphs.append(Graph(verts, edges))
    for g in graphs:
        doc = graph_to_doc(g)
        wire = json.dumps(doc)
        rec.check(
            graph_from_doc(json.loads(wire)) == g,
            lambda gg=g: f"graph JSON round-trip altered {gg!r}",
        )
        rec.check(
            dump_document(doc) == dump_document(graph_to_doc(g)),
            "graph document rendering must be deterministic",
        )
    rec.note(f"graph JSON round-trips: {len(graphs)} graphs, seed {seed}")

    rec.check(
        graph_from_doc({"vertices": ["1", "2"], "edges": [["1", "2"]]})
        == Graph((1, 2), [(1, 2)]),
        "decimal-string labels must parse back to integer vertices",
    )
    for bad in (
        {"edges": []},
        {"vertices": ["1", "1"], "edges": []},
        {"vertices": ["1", "2"], "edges": [["1"]]},
        {"vertices": ["1"], "edges": [["1", "9"]]},
        {"vertices": "12", "edges": []},
    ):
        try:
            graph_from_doc(bad)
        except ValueError:
            rec.check(True, "")
        else:
            rec.check(False, f"malformed graph document accepted: {bad}")

    cache = SolveCache()
    solve_gcds(GcdsState(Position(gen_chain(2), gen_favorable(2)), ONE), cache=cache)
    solve_cds(CdsState(Permutation((2, 4, 1, 3)), frozenset({1}), ONE), cache=cache)
    rec.check(len(cache) > 0, "warm cache should hold entries")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.tsv")
        cache_save(cache, path)
        loaded = cache_load(path)
        rec.check(
            sorted(loaded.items()) == sorted(cache.items()),
            "cache save/load round trip",
        )
        with open(path, "rb") as fh:
            first = fh.read()
        cache_save(loaded, path)
        with open(path, "rb") as fh:
            second = fh.read()
        rec.check(first == second, "cache files must be byte-identical across saves")

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("GCDSCACHE 2\n")
        try:
            cache_load(path)
        except CacheFormatError as exc:
            rec.check("version" in str(exc), "version mismatch must name the version")
        else:
            rec.check(False, "future cache version accepted silently")

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("GCDSCACHE 1\nnot a record\n")
        try:
            cache_load(path)
        except CacheFormatError as exc:
            rec.check("line" in str(exc) and "2" in str(exc),
                      "corruption must name the offending line")
        else:
            rec.check(False, "corrupted cache accepted silently")

    other = SolveCache()
    other.put("P|2 4 1 3|1|1", TWO)
    try:
        other.merge(cache)
    except CacheFormatError:
        rec.check(True, "")
    else:
        rec.check(False, "conflicting cache merge accepted silently")


_RUNNERS = {
    "paper-examples": _suite_paper_examples,
    "commutation": _suite_commutation,
    "pile-lemma": _suite_pile_lemma,
    "chain-collapse": _suite_chain_collapse,
    "np-classification": _suite_np_classification,
    "bounds": _suite_bounds,
    "tight": _suite_tight,
    "formats": _suite_formats,
}

SUITE_NAMES = tuple(_RUNNERS)


def run_suite(
    name: str,
    *,
    seed: int = 0,
    max_n: int | None = None,
    max_m: int | None = None,
    samples: int | None = None,
    threads: int = 1,
) -> SuiteResult:
    """Run one named suite and report its outcome.

    ``max_n`` bounds permutation sizes, ``max_m`` bounds chain lengths,
    ``samples`` sizes the randomized blocks, and ``seed`` fixes them.
    Unknown names raise ``ValueError``.
    """
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    rec = _Recorder()
    start = time.perf_counter()
    _RUNNERS[name](rec, seed=seed, max_n=max_n, max_m=max_m, samples=samples, threads=threads)
    return SuiteResult(name, rec.cases, rec.failures, rec.notes, time.perf_counter() - start)


def run_all(**knobs) -> list[SuiteResult]:
    """Run every suite, in declaration order."""
    return [run_suite(name, **knobs) for name in SUITE_NAMES]
