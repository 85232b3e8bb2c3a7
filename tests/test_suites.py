"""Tests for the verification-suite plumbing."""

import concurrent.futures
import os
import time
from itertools import permutations as all_words

import pytest
from hypothesis import given, settings, strategies as st

from cdsgame import suites
from cdsgame.cyclegraph import strategic_pile
from cdsgame.families import bound_prediction
from cdsgame.games import CdsGame, GcdsGame
from cdsgame.overlap import overlap_graph
from cdsgame.permutations import Permutation
from cdsgame.permutations import SizeBoundError
from cdsgame.suites import SUITE_MAX_N, SUITE_NAMES, _fan_out, run_all, run_suite

from test_cli import _fresh_import_probe


def test_suite_names_are_stable():
    assert SUITE_NAMES == (
        "paper-examples",
        "commutation",
        "pile-lemma",
        "chain-collapse",
        "np-classification",
        "bounds",
        "tight",
        "formats",
    )


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_worked_examples_suite_passes():
    result = run_suite("paper-examples")
    assert result.ok
    assert result.cases > 40
    assert result.elapsed >= 0


def test_formats_suite_passes():
    assert run_suite("formats").ok


def test_commutation_suite_is_deterministic():
    a = run_suite("commutation", max_n=4, samples=60, seed=3)
    b = run_suite("commutation", max_n=4, samples=60, seed=3)
    assert a.ok and b.ok
    assert a.cases == b.cases
    assert a.notes == b.notes


def test_commutation_times_its_two_phases(monkeypatch):
    # The sampled phase takes in the fan-out; a suite that times no phase
    # reports none.
    fan_out = suites._fan_out

    def slow_fan_out(*args):
        time.sleep(0.05)
        return fan_out(*args)

    monkeypatch.setattr(suites, "_fan_out", slow_fan_out)
    result = run_suite("commutation", max_n=4, samples=60, seed=3)
    assert list(result.phases) == ["exhaustive", "sampled"]
    assert result.phases["exhaustive"] >= 0 and result.phases["sampled"] >= 0.05
    assert sum(result.phases.values()) <= result.elapsed
    assert run_suite("formats").phases == {}


class _InProcessPool:
    """Records max_workers and maps in this process; starts nothing."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return map(fn, chunks)


@pytest.mark.parametrize("cpus, items, workers", [(2, 50, 2), (8, 3, 3), (None, 50, None)])
def test_fan_out_caps_workers_at_cpus_and_items(monkeypatch, cpus, items, workers):
    # At one item per worker, every batch is above the pool's gate.
    monkeypatch.setattr(suites, "_POOL_MIN_ITEMS", 1)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    chunks = _fan_out(list, list(range(items)), threads=10_000)
    assert _InProcessPool.sizes == ([] if workers is None else [workers])
    assert len(chunks) == (workers or 1)
    assert [x for chunk in chunks for x in chunk] == list(range(items))


@pytest.mark.parametrize("cpus, short", [(2, 0), (8, 0), (2, 1), (8, 1)])
def test_fan_out_starts_a_pool_only_at_its_gate_per_worker(monkeypatch, cpus, short):
    # Every worker gets the gate's items, or the batch is one item short.
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    items = list(range(cpus * suites._POOL_MIN_ITEMS - short))
    chunks = _fan_out(len, items, threads=10_000)
    if short:
        assert _InProcessPool.sizes == [] and chunks == [len(items)]
    else:
        assert _InProcessPool.sizes == [cpus] and chunks == cpus * [suites._POOL_MIN_ITEMS]


def test_threaded_runs_match_serial_runs(monkeypatch):
    # With the gate at one square per worker, real worker processes check them.
    monkeypatch.setattr(suites, "_POOL_MIN_ITEMS", 1)
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = run_suite("commutation", max_n=3, samples=40, seed=9, threads=1)
    threaded = run_suite("commutation", max_n=3, samples=40, seed=9, threads=3)
    workers = min(3, os.cpu_count() or 1)
    assert started == ([] if workers == 1 else [workers])
    assert (serial.cases, serial.failures, serial.notes) == (
        threaded.cases, threaded.failures, threaded.notes)


def test_a_sampled_batch_below_the_gate_loads_no_process_pool():
    probe = ("from cdsgame.suites import run_suite\n"
             "result = run_suite('commutation', max_n=5, samples=2000, threads=2)\n"
             "print(result.ok, 'concurrent.futures.process' in sys.modules)")
    assert _fresh_import_probe(probe) == "True False"


def test_pile_suite_small():
    result = run_suite("pile-lemma", max_n=4)
    assert result.ok
    assert any("worst removal" in note for note in result.notes)


@pytest.fixture(scope="module")
def pile_tables():
    return {n: suites._pile_table(n) for n in range(1, 8)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_pile_table_entries_are_the_piles_at_each_words_rank(pile_tables, word):
    word = tuple(word)
    table = pile_tables[len(word)]
    assert set(suites._codes(table[suites._rank(word)])) == strategic_pile(Permutation(word)).as_set()


def test_ranks_count_the_words_in_lexicographic_order():
    for n in range(1, 6):
        words = list(all_words(range(1, n + 1)))
        assert [suites._rank(w) for w in words] == list(range(len(words)))


def test_bounds_suite_small():
    result = run_suite("bounds", max_n=4)
    assert result.ok


# Each exhaustive suite fails on a wrong pile or a wrong verdict, and names
# the word (and favorable set) where it is wrong.

@pytest.mark.parametrize("word, code", [((2, 4, 1, 3), 2), ((3, 1, 4, 2), 3), ((3, 4, 1, 2), 2)])
def test_pile_lemma_reports_a_flipped_pile_code(monkeypatch, word, code):
    pile_table = suites._pile_table

    def flipped(n):
        table = bytearray(pile_table(n))
        if n == len(word):
            table[suites._rank(word)] ^= 1 << (code - 1)
        return table

    monkeypatch.setattr(suites, "_pile_table", flipped)
    result = run_suite("pile-lemma", max_n=4)
    assert any(f"of {list(word)}:" in failure for failure in result.failures), result.failures


def _flip_one_verdict(monkeypatch, game, state, favorable):
    winning_sets = suites.winning_sets
    bit = 1 << sum(1 << (c - 1) for c in favorable)

    def flipped(g, st, mover):
        won = winning_sets(g, st, mover)
        return won ^ bit if g is game and st == state else won

    monkeypatch.setattr(suites, "winning_sets", flipped)


def test_bounds_reports_a_flipped_verdict(monkeypatch):
    # Pile {1, 2, 3} with two favorable codes is a determined win for ONE.
    _flip_one_verdict(monkeypatch, CdsGame, Permutation([2, 4, 1, 3]), {1, 3})
    result = run_suite("bounds", max_n=4)
    assert [f for f in result.failures if "perm=[2, 4, 1, 3] favorable=[1, 3]:" in f] == [
        "perm=[2, 4, 1, 3] favorable=[1, 3]: rule "
        f"{'+'.join(bound_prediction(3, 2).rules)} says ONE, solver says TWO"
    ]
    assert len(result.failures) == 1


@pytest.mark.parametrize("game", [CdsGame, GcdsGame])
def test_tight_reports_a_flipped_verdict(monkeypatch, game):
    perm = Permutation([2, 4, 1, 3])  # its pile {1, 2, 3} is full
    state = perm if game is CdsGame else overlap_graph(perm)
    _flip_one_verdict(monkeypatch, game, state, {1, 3})
    result = run_suite("tight", max_n=4)
    # Other words of length 4 have the same overlap graph, so the graph
    # game's flip shows at them too.
    prefix = "full-pile correspondence fails at perm=[2, 4, 1, 3] favorable=[1, 3] mover="
    named = [f for f in result.failures if f.startswith(prefix)]
    assert len(named) == 2 and all("favorable=[1, 3] mover=" in f for f in result.failures)


def test_run_all_pins_every_suites_document():
    # The verify-sweep sizes: each suite's cases, failure count and notes.
    got = {r.name: (r.cases, len(r.failures), r.notes)
           for r in run_all(seed=0, max_n=5, samples=2000)}
    assert got == {
        "paper-examples": (50, 0, []),
        "commutation": (2334, 0, [
            "exhaustive: 335 permutation/move squares with n <= 5",
            "sampled: 1999 random squares at n in 8..10, seed 0",
        ]),
        "pile-lemma": (3594, 0, [
            "sortability, achievability, and removability exhaustive at n <= 5",
            "per-move removal bound exhaustive at n <= 6; worst removal 2",
            "moves that added pile codes: 0",
        ]),
        "chain-collapse": (60, 10, [
            "every failing edge joins two odd glue vertices with complete "
            "triangles on both sides; there the pivot completes a clique on "
            "the masterlist instead of contracting the segment, because "
            "cross-column pairs toggle (exactly as the worked pivot fixtures "
            "require them to)",
        ]),
        "np-classification": (12, 0, ["chains m=1..6 classified N,P,N,P,N,P"]),
        "bounds": (2341, 0, [
            "rule families audited as mutually exclusive for pile sizes up to 64",
            "solver comparisons on determined predictions at n <= 5: 197",
        ]),
        "tight": (73, 0, [
            "full-pile game correspondence at n <= 5: 52 solved pairs",
            "partial piles (no correspondence promised): 202 of 432 pairs disagree",
        ]),
        "formats": (112, 0, ["graph JSON round-trips: 50 graphs, seed 0"]),
    }


def test_np_suite_small():
    result = run_suite("np-classification", max_m=2)
    assert result.ok
    assert "N,P" in result.notes[0]


def test_tight_suite_small():
    result = run_suite("tight", max_n=5)
    assert result.ok
    assert any("full-pile" in note for note in result.notes)


def test_chain_collapse_smallest_chain_passes():
    assert run_suite("chain-collapse", max_m=2).ok


def test_chain_collapse_reports_the_known_interior_failures():
    result = run_suite("chain-collapse", max_m=3)
    assert not result.ok
    assert len(result.failures) == 1
    assert "(3, 5)" in result.failures[0]
    assert result.notes  # the diagnosis is spelled out


def test_run_all_covers_every_suite():
    names = [r.name for r in run_all(max_n=3, max_m=2, samples=5)]
    assert names == list(SUITE_NAMES)


def test_max_n_above_the_bound_is_refused_before_any_work(monkeypatch):
    seen = []

    def stub(rec, **knobs):
        rec.check(True, "")
        seen.append(knobs["max_n"])

    for name in SUITE_NAMES:
        monkeypatch.setitem(suites._RUNNERS, name, stub)
    for name in SUITE_NAMES:
        with pytest.raises(SizeBoundError):
            run_suite(name, max_n=SUITE_MAX_N + 1)
        assert run_suite(name, max_n=SUITE_MAX_N).ok
    assert seen == [SUITE_MAX_N] * len(SUITE_NAMES)


def test_negative_sizes_are_refused_before_any_work(monkeypatch):
    seen = []

    def stub(rec, **knobs):
        rec.check(True, "")
        seen.append(knobs)

    for name in SUITE_NAMES:
        monkeypatch.setitem(suites._RUNNERS, name, stub)
    for name in SUITE_NAMES:
        for knob in ("max_n", "max_m", "samples"):
            with pytest.raises(ValueError, match=f"{knob} must be >= 0, got -1"):
                run_suite(name, **{knob: -1})
        assert run_suite(name, max_n=0, max_m=0, samples=0).ok  # zero stays legal
    assert len(seen) == len(SUITE_NAMES)


@pytest.mark.slow
def test_commutation_is_exhaustive_at_n_seven():
    result = run_suite("commutation", max_n=7, samples=0)
    assert result.ok
    assert "exhaustive: 32615 permutation/move squares with n <= 7" in result.notes


@pytest.mark.slow
def test_pile_lemma_is_exhaustive_at_n_seven():
    result = run_suite("pile-lemma", max_n=7, samples=0)
    assert result.ok
    assert result.cases == 372352
