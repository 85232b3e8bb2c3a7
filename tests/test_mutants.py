"""Mutants of the kernels the suites rely on: each must turn a named check red.

A mutant is a kernel recompiled from its own source with one edit and
patched in wherever a module or a class holds the kernel.  Each edit
must match the source exactly once, so a mutant that no longer applies
fails rather than passing unmutated.  The memos and the pile tables are cleared before and
after each mutant, so no value a mutant computed reaches another test.

The solvers build their children without the validating constructors, from
``_swap`` and ``graphs._pivot``, and keep one object per child's ident, so the
block-swap, overlap-row and pivot kernels and that interning are guarded here,
with the pile walk the pile tables are built from and the universe equality
that lets a rebuilt root meet its memo entries.  A game that says a state with
no moves is not over raises GameRuleError, which counts as red.
"""

import __future__
import inspect
import textwrap
from itertools import permutations as all_words

import pytest

import test_games
from cdsgame import cyclegraph, games, graphs, overlap, permutations, suites
from cdsgame.games import GameRuleError
from cdsgame.permutations import Permutation, interlocks
from cdsgame.suites import run_suite

# Mutants of the search walk and the games' terminal rules, each with the
# checks that must all turn red.
MUTANTS = {
    "OR and AND swapped": (games._Walk, [
        ("value | child if one else value & child", "value & child if one else value | child"),
    ], ("pinned solve reports", "tight", "bounds", "winning sets against per-set solves")),
    "TWO settling at full": (games._Walk, [
        ("else (self.full, 0)", "else (self.full, self.full)"),
    ], ("pinned solve reports", "tight", "winning sets against per-set solves")),
    "a leaf that ignores need": (games.winning_sets, [
        ("value &= patterns[i]", "pass"),
    ], ("bounds", "winning sets against per-set solves")),
    "cds needs returning 0": (games.CdsGame.needs, [
        ("return 1 << (code - 1) if code else 0", "return 0"),
    ], ("tight", "bounds", "winning sets against per-set solves")),
    "gcds needs returning 0": (games.GcdsGame.needs, [
        ("return graph.alive", "return 0"),
    ], ("tight", "winning sets against per-set solves")),
    "children interned by a lossy key": (games.successor, [
        ("game.ident(made)", "len(game.ident(made))"),
    ], ("pinned solve reports", "tight", "bounds")),
}

# Mutants of the kernels under the games, each with the checks that must all
# turn red.  Rows without their XOR are not symmetric, so everything that
# lists moves off them fails before it can report; the row oracle names the
# fault.  Universes equal only to themselves still give every right answer,
# as identity is the stricter equality, so no suite sees them; only a root
# rebuilt on the same labels, which no longer meets its memo entries, does.
KERNEL_MUTANTS = {
    "a swap that trades the wrong blocks": (permutations._swap, [
        ("return e[:c1] + e[c3:c4] + e[c2:c3] + e[c1:c2] + e[c4:]",
         "return e[:c1] + e[c2:c3] + e[c1:c2] + e[c3:c4] + e[c4:]"),
    ], ("pinned solve reports", "commutation", "pile-lemma")),
    "overlap rows without their XOR": (permutations._overlap_rows, [
        ("rows[v - 2] ^= opened", "rows[v - 2] = opened"),
        ("rows[v - 1] ^= opened", "rows[v - 1] = opened"),
    ], ("overlap rows against interlocks",)),
    "the pivot skipping one class": (graphs._pivot, [
        ("(cy & ~cx, cx), (cx & cy, cx ^ cy))", "(cy & ~cx, cx))"),
    ], ("pinned solve reports", "commutation", "tight", "winning sets against per-set solves")),
    "a pile walk stopping one step early": (cyclegraph._pile_codes, [
        ("return tuple(codes)", "return tuple(codes[:-1])"),
    ], ("pile-lemma", "tight", "winning sets against per-set solves")),
    "universes equal only to themselves": (graphs._Universe.__eq__, [
        ("isinstance(other, _Universe) and self._typed == other._typed", "self is other"),
    ], ("a rebuilt root meets the same memo entries",)),
}


def _mutant(kernel, edits):
    source = textwrap.dedent(inspect.getsource(kernel))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(kernel)))
    code = compile(source, inspect.getsourcefile(kernel), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[kernel.__name__]


def _pinned_reports_hold() -> bool:
    test_games.test_solve_reports_are_pinned()
    return True


def _rebuilt_root_meets_its_entries() -> bool:
    test_games.test_a_root_rebuilt_on_the_same_labels_meets_the_same_memo_entries()
    return True


def _winning_sets_match_per_set_solves() -> bool:
    return all(test_games._assert_winning_sets_match_per_set_solves(n) for n in range(2, 5))


def _rows_match_interlocks() -> bool:
    # Read through the module, where a mutant is patched in.
    for n in range(1, 6):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            assert permutations._overlap_rows(word) == [
                sum(1 << (q - 1) for q in range(1, n) if q != p and interlocks(perm, p, q))
                for p in range(1, n)
            ]
    return True


CHECKS = {
    "pinned solve reports": _pinned_reports_hold,
    "tight": lambda: run_suite("tight", max_n=5).ok,
    "bounds": lambda: run_suite("bounds", max_n=5).ok,
    "commutation": lambda: run_suite("commutation", max_n=5, samples=200).ok,
    "pile-lemma": lambda: run_suite("pile-lemma", max_n=5).ok,
    "winning sets against per-set solves": _winning_sets_match_per_set_solves,
    "overlap rows against interlocks": _rows_match_interlocks,
    "a rebuilt root meets the same memo entries": _rebuilt_root_meets_its_entries,
}


def _is_red(check) -> bool:
    try:
        return not check()
    except (AssertionError, GameRuleError):
        return True


def _clear():
    games.clear_memos()
    suites._pile_table.cache_clear()


@pytest.fixture
def fresh_memos():
    _clear()
    yield
    _clear()


def _patch(monkeypatch, kernel, edits) -> None:
    # A method is held by its class, as a staticmethod around the kernel;
    # test_games holds what its oracles compare.
    mutant = _mutant(kernel, edits)
    owners = (permutations, graphs, cyclegraph, overlap, games, suites, test_games,
              games.CdsGame, games.GcdsGame, graphs._Universe)
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is kernel or getattr(value, "__func__", None) is kernel:
                monkeypatch.setattr(owner, attr, mutant)


def _assert_named_checks_red(monkeypatch, name, kernel, edits, named) -> None:
    _patch(monkeypatch, kernel, edits)
    for check in named:
        _clear()
        assert _is_red(CHECKS[check]), (name, check)


@pytest.mark.parametrize("name", MUTANTS)
def test_every_mutant_turns_a_check_red(monkeypatch, fresh_memos, name):
    assert len(MUTANTS[name][2]) >= 2, "no one suite alone guards the walk"
    _assert_named_checks_red(monkeypatch, name, *MUTANTS[name])


@pytest.mark.parametrize("name", KERNEL_MUTANTS)
def test_every_kernel_mutant_turns_its_named_checks_red(monkeypatch, fresh_memos, name):
    _assert_named_checks_red(monkeypatch, name, *KERNEL_MUTANTS[name])


@pytest.mark.parametrize("check", CHECKS)
def test_every_check_is_green_without_a_mutant(fresh_memos, check):
    assert not _is_red(CHECKS[check]), check
