"""Machine-checkable verification suites.

Each suite replays a body of claims against the implementation: frozen
worked examples, exhaustive small-case sweeps, and seeded random sampling
for sizes where exhaustion is out of reach.  A suite returns a
:class:`SuiteResult` whose ``failures`` list carries one minimal
reproducing description per failed case; an empty list means the suite
passed.  Suites are deterministic for a fixed seed, including under
``threads > 1``.  Only the commutation suite's sampled squares fan out, and
only to a process pool of at least _POOL_MIN_ITEMS (49,000) squares per
worker, about ``--samples 100000`` on two workers, the smallest size at
which two workers beat one on wall in every measured run; work is chunked
and merged in input order.  Every smaller batch, and every other suite,
runs in process, where it takes less time than starting a worker.
"""

from __future__ import annotations

import json
import os
import random
import time
from functools import cache
from itertools import combinations, permutations as all_words
from math import comb

from .cyclegraph import (
    _pile_codes,
    alternating_cycles,
    build_cycle_graph,
    is_sortable,
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
    CdsGame,
    CdsState,
    GcdsGame,
    GcdsState,
    SolveCache,
    cache_load,
    cache_save,
    gcds_terminal_winner,
    np_status,
    solve_cds,
    solve_gcds,
    winning_sets,
)
from .graphs import (
    Graph,
    Position,
    _bits,
    apply_gcds,
    apply_gcds2,
    are_isomorphic,
    masterlist,
    positions_isomorphic,
)
from .jsonio import dump_document, graph_from_doc, graph_to_doc
from .overlap import _square, overlap_graph
from .permutations import (
    HEAD_RIGHT,
    TAIL_LEFT,
    Permutation,
    SizeBoundError,
    _move_list,
    _overlap_rows,
    _swap,
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


class SuiteResult:
    """Outcome of one verification suite, recorded on as the suite runs.

    ``cases`` counts the checks made and ``failures`` describes those that
    failed; a suite is ok when it made a check and none failed.  ``elapsed``
    is the suite's wall time in seconds, and ``phases`` the wall seconds of
    each named phase the suite times (empty when it times none).
    """

    __slots__ = ("name", "cases", "failures", "notes", "elapsed", "phases")

    name: str
    cases: int
    failures: list[str]
    notes: list[str]
    elapsed: float
    phases: dict[str, float]

    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures = []
        self.notes = []
        self.elapsed = 0.0
        self.phases = {}

    @property
    def ok(self) -> bool:
        return self.cases > 0 and not self.failures

    def check(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(describe() if callable(describe) else describe)

    def bulk(self, checked: int, failures: list[str]) -> None:
        self.cases += checked
        self.failures.extend(failures)

    def note(self, text: str) -> None:
        self.notes.append(text)


# The fewest items per worker for which _fan_out starts a process pool.
# `verify commutation --threads 2` against `--threads 1` on 2 vCPUs (Python
# 3.11.7, fresh processes, 6 alternating pairs per size) won on wall in 4 of
# 6 pairs at --samples 50000 (about 25,000 squares per worker), in 5 of 6 at
# 75000 and in 6 of 6 at 100000 (wall -2 to -9 %, CPU +15 to +26 %) and at
# 200000 (wall -3 to -17 %).  100000 samples give about 49,990 squares per
# worker, as the words with no move are skipped, so the gate sits just below.
_POOL_MIN_ITEMS = 49_000


def _fan_out(worker, items: list, threads: int) -> list:
    """Apply ``worker`` to contiguous chunks of ``items``, merged in order.

    A process pool starts only when ``items`` holds at least _POOL_MIN_ITEMS
    items per worker: a worker's start, import and round-trip cost more than
    a smaller chunk saves.  The pool has at most ``threads`` workers, one per
    CPU and per item.  Otherwise ``[worker(items)]`` runs in process and no
    process pool is imported.  Either way the merged result order depends
    only on the input order, never on scheduling.
    """
    threads = min(threads, os.cpu_count() or 1, len(items))
    if threads <= 1 or len(items) < threads * _POOL_MIN_ITEMS:
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

def _commutation_worker(words):
    """Check each (entries, moves), sweeping the word's rows once; the count and the failures."""
    checked = 0
    failures = []
    for word, moves in words:
        rows = _overlap_rows(word)
        for p, q in moves:
            checked += 1
            if not _square(rows, p, q, _swap(word, p, q)):
                failures.append(f"commutation fails at perm={list(word)} move=({p},{q})")
    return checked, failures


def _suite_commutation(rec, *, seed, max_n, max_m, samples, threads):
    lim = 6 if max_n is None else max_n
    start = time.perf_counter()
    squares, failures = _commutation_worker(
        (word, _move_list(word))
        for n in range(2, lim + 1)
        for word in all_words(range(1, n + 1))
    )
    rec.bulk(squares, failures)
    rec.phases["exhaustive"] = time.perf_counter() - start
    rec.note(f"exhaustive: {squares} permutation/move squares with n <= {lim}")

    count = 10_000 if samples is None else samples
    rng = random.Random(seed)
    payload = []
    start = time.perf_counter()
    for _ in range(count):
        n = rng.choice((8, 9, 10))
        word = list(range(1, n + 1))
        rng.shuffle(word)
        moves = _move_list(word)
        if not moves:
            continue
        payload.append((tuple(word), (moves[rng.randrange(len(moves))],)))
    for checked, failures in _fan_out(_commutation_worker, payload, threads):
        rec.bulk(checked, failures)
    rec.phases["sampled"] = time.perf_counter() - start
    rec.note(f"sampled: {len(payload)} random squares at n in 8..10, seed {seed}")


# ---------------------------------------------------------------------------
# Pile behavior: sortability, removability, achievable fixed points, and the
# per-move removal bound.
# ---------------------------------------------------------------------------

def _rank(word: tuple[int, ...]) -> int:
    """The lexicographic rank of a word over 1..n among all such words:
    digit i of its Lehmer code counts the smaller values after entry i."""
    rank, left = 0, len(word)
    unused = (1 << (left + 1)) - 2  # bits 1..n
    for v in word:
        bit = 1 << v
        rank = rank * left + (unused & (bit - 1)).bit_count()
        unused ^= bit
        left -= 1
    return rank


@cache
def _pile_table(n: int) -> bytes:
    """The pile of every word of length n <= 9 as a mask (bit c-1 for code
    c), at the word's lexicographic rank: ``all_words`` yields rank order.
    Each length's table is built once per process."""
    assert n <= 9, "a byte holds the codes 1..8"
    return bytes(sum(1 << (c - 1) for c in _pile_codes(word))
                 for word in all_words(range(1, n + 1)))


def _codes(mask: int) -> list[int]:
    """The codes of a mask (bit c-1 for code c), ascending."""
    return [i + 1 for i in _bits(mask)]


def _suite_pile_lemma(rec, *, seed, max_n, max_m, samples, threads):
    # Per length n <= lim + 1, a table of every word's pile.  A move's
    # after-pile is the table entry of the block-swapped word; it serves the
    # per-move bound and, at n <= lim, removability (the swap is symmetric in
    # p and q, so "some legal move at c drops c" reads off the same piles)
    # and achievability one move deep: with bit n-1 standing for the
    # identity, a word's pile (or that bit, when the pile is empty) is the OR
    # of its children's, or its own fixed point's where it has no move.
    # Every move shortens the rest of the game, so by induction the pile is
    # exactly the set of fixed-point codes that play can reach.
    lim = 6 if max_n is None else max_n
    start = time.perf_counter()
    worst = 0
    added_events = 0
    for n in range(1, lim + 2):
        table = _pile_table(n)
        identity_bit = 1 << (n - 1)
        deep = n <= lim
        for rank, word in enumerate(all_words(range(1, n + 1))):
            before = table[rank]
            dropped = reached = 0
            moves = _move_list(word)
            failures = []
            for p, q in moves:
                after = table[_rank(_swap(word, p, q))]
                if deep:
                    reached |= after or identity_bit
                    dropped |= ((1 << (p - 1)) | (1 << (q - 1))) & ~after
                removed = (before & ~after).bit_count()
                worst = max(worst, removed)
                if after & ~before:
                    added_events += 1
                if removed > 2:
                    failures.append(f"move ({p},{q}) on {list(word)} removed {removed} pile codes")
            rec.bulk(len(moves), failures)
            if not deep:
                continue
            if not moves:
                reached = 1 << (word[0] - 2) if word[0] > 1 else identity_bit
            rec.check(
                bool(reached & identity_bit) == (not before),
                lambda w=word: f"pile-empty and brute-force sortability disagree at {list(w)}",
            )
            rec.check(
                reached == (before or identity_bit),
                lambda w=word, a=reached, b=before or identity_bit:
                f"achievable fixed points of {list(w)}: {_fixed_points(a, n)}, "
                f"pile says {_fixed_points(b, n)}",
            )
            if before.bit_count() >= 2:
                for c in _codes(before):
                    rec.check(
                        dropped >> (c - 1) & 1,
                        lambda w=word, cc=c: f"pile code {cc} of {list(w)} is not removable by any single move",
                    )
    rec.phases["per_move"] = time.perf_counter() - start
    rec.note(f"sortability, achievability, and removability exhaustive at n <= {lim}")
    rec.note(f"per-move removal bound exhaustive at n <= {lim + 1}; worst removal {worst}")
    rec.note(f"moves that added pile codes: {added_events}")


def _fixed_points(mask: int, n: int) -> list[str]:
    """The fixed-point codes of a mask as sorted text, bit n-1 as None."""
    return sorted(str(c if c < n else None) for c in _codes(mask))


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

def _subsets(k: int) -> list[int]:
    """Per mask P of k bits, the 2**k-bit value whose bit S is set when S is
    a subset of P, built by doubling over P's top bit."""
    out = [1]
    for i in range(k):
        out += [v | v << (1 << i) for v in out]
    return out


def _winner(won: int, s: int) -> str:
    return ONE if won >> s & 1 else TWO


def _suite_bounds(rec, *, seed, max_n, max_m, samples, threads):
    start = time.perf_counter()
    for pile_size in range(1, 65):
        for a_size in range(pile_size + 1):
            pred = bound_prediction(pile_size, a_size)
            rec.check(
                pred.verdict in (ONE, TWO, UNDETERMINED),
                f"no verdict for pile {pile_size}, favorable {a_size}",
            )
    rec.note("rule families audited as mutually exclusive for pile sizes up to 64")
    rec.phases["audit"] = time.perf_counter() - start

    # Each word's winning sets come from one search; for each favorable size
    # with a determined verdict (per pile size k), the subsets of the pile of
    # that size that disagree with it are one mask, and only those get a
    # description.
    start = time.perf_counter()
    lim = 6 if max_n is None else max_n
    determined = {k: [(r, pred) for r in range(k + 1)
                      if (pred := bound_prediction(k, r)).verdict != UNDETERMINED]
                  for k in range(1, lim)}
    total = 0
    for n in range(2, lim + 1):
        within = _subsets(n - 1)
        sizes = [sum(1 << a for a in range(1 << (n - 1)) if a.bit_count() == r) for r in range(n)]
        for word, pile in zip(all_words(range(1, n + 1)), _pile_table(n)):
            k = pile.bit_count()
            if not k or not determined[k]:
                continue
            won = winning_sets(CdsGame, Permutation(word), ONE)
            for r, pred in determined[k]:
                checked = comb(k, r)
                total += checked
                wrong = within[pile] & sizes[r] & (~won if pred.verdict == ONE else won)
                rec.bulk(checked, [
                    f"perm={list(word)} favorable={_codes(s)}: rule "
                    f"{'+'.join(pred.rules)} says {pred.verdict}, "
                    f"solver says {_winner(won, s)}"
                    for s in _bits(wrong)
                ])
    rec.phases["solver"] = time.perf_counter() - start
    rec.note(f"solver comparisons on determined predictions at n <= {lim}: {total}")


# ---------------------------------------------------------------------------
# Tight instances: full piles sitting exactly on the undetermined gap, won
# by the first player, and spoiled by removing any favorable code.
# ---------------------------------------------------------------------------

def _suite_tight(rec, *, seed, max_n, max_m, samples, threads):
    start = time.perf_counter()
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
    rec.phases["fixtures"] = time.perf_counter() - start

    # Per word and mover, one search per game values every favorable set;
    # a subset of the pile where the games differ is a bit of the XOR.
    start = time.perf_counter()
    lim = 6 if max_n is None else max_n
    full_pairs = 0
    partial_pairs = 0
    partial_disagreements = 0
    for n in range(2, lim + 1):
        within = _subsets(n - 1)
        for word, pile in zip(all_words(range(1, n + 1)), _pile_table(n)):
            if not pile:
                continue
            perm = Permutation(word)
            graph = overlap_graph(perm)
            won = {mover: (winning_sets(CdsGame, perm, mover),
                           winning_sets(GcdsGame, graph, mover))
                   for mover in (ONE, TWO)}
            differ = [(w_perm ^ w_graph) & within[pile] for w_perm, w_graph in won.values()]
            k = pile.bit_count()
            pairs = 2 << k
            if k < n - 1:
                partial_pairs += pairs
                partial_disagreements += sum(map(int.bit_count, differ))
                continue
            full_pairs += pairs
            rec.bulk(pairs, [
                f"full-pile correspondence fails at perm={list(word)} "
                f"favorable={_codes(s)} mover={mover}: "
                f"{_winner(w_perm, s)} vs {_winner(w_graph, s)}"
                for s in _bits(differ[0] | differ[1])
                for mover, (w_perm, w_graph) in won.items()
                if (w_perm ^ w_graph) >> s & 1
            ])
    rec.phases["exhaustive"] = time.perf_counter() - start
    rec.note(f"full-pile game correspondence at n <= {lim}: {full_pairs} solved pairs")
    rec.note(
        f"partial piles (no correspondence promised): {partial_disagreements} of "
        f"{partial_pairs} pairs disagree"
    )


# ---------------------------------------------------------------------------
# Formats: JSON graph round-trips, document determinism, and the cache file.
# ---------------------------------------------------------------------------

def _suite_formats(rec, *, seed, max_n, max_m, samples, threads):
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

# The largest max_n a suite accepts; the exhaustive sweeps grow as n!.  With
# no samples, on a noisy 2-vCPU host, max_n 8 took 4 to 8 s (commutation and
# tight), 2 to 5 s (bounds) and 19 to 33 s (pile-lemma) over three runs,
# about 10 to 15 times max_n 7.
SUITE_MAX_N = 8


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
    Unknown names and negative sizes raise ``ValueError``, and a ``max_n``
    above :data:`SUITE_MAX_N` raises ``SizeBoundError``, before any work.
    """
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    for knob, value in (("max_n", max_n), ("max_m", max_m), ("samples", samples)):
        if value is not None and value < 0:
            raise ValueError(f"{knob} must be >= 0, got {value}")
    if max_n is not None and max_n > SUITE_MAX_N:
        raise SizeBoundError(f"suites limited to max_n <= {SUITE_MAX_N}, got {max_n}")
    result = SuiteResult(name)
    start = time.perf_counter()
    _RUNNERS[name](result, seed=seed, max_n=max_n, max_m=max_m, samples=samples, threads=threads)
    if not result.cases:
        result.note("no case ran at these sizes, so nothing was checked")
    result.elapsed = time.perf_counter() - start
    return result


def run_all(**knobs) -> list[SuiteResult]:
    """Run every suite, in declaration order."""
    return [run_suite(name, **knobs) for name in SUITE_NAMES]
