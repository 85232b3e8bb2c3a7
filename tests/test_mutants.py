"""Mutants of the kernels the suites rely on: each must turn a named check red.

A mutant is a kernel recompiled from its own source with one edit and
patched in wherever a module holds the kernel.  Each edit must match the
source exactly once, so a mutant that no longer applies fails rather than
passing unmutated.  The memos are cleared before and after each mutant, so
no value a mutant computed reaches another test.
"""

import __future__
import inspect
import textwrap

import pytest

import test_games
from cdsgame import games, suites
from cdsgame.suites import run_suite

MUTANTS = {
    "OR and AND swapped": (games._Walk, [
        ("value | child if one else value & child", "value & child if one else value | child"),
    ]),
    "TWO settling at full": (games._Walk, [
        ("else (self.full, 0)", "else (self.full, self.full)"),
    ]),
    "a leaf that ignores need": (games.winning_sets, [
        ("value &= patterns[i]", "pass"),
    ]),
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


CHECKS = {
    "pinned solve reports": _pinned_reports_hold,
    "tight": lambda: run_suite("tight", max_n=5).ok,
    "bounds": lambda: run_suite("bounds", max_n=5).ok,
}


def _is_red(check) -> bool:
    try:
        return not check()
    except AssertionError:
        return True


@pytest.fixture
def fresh_memos():
    games.clear_memos()
    yield
    games.clear_memos()


@pytest.mark.parametrize("name", MUTANTS)
def test_every_mutant_turns_a_check_red(monkeypatch, fresh_memos, name):
    kernel, edits = MUTANTS[name]
    mutant = _mutant(kernel, edits)
    for module in (games, suites):
        for attr, value in list(vars(module).items()):
            if value is kernel:
                monkeypatch.setattr(module, attr, mutant)
    assert any(_is_red(check) for check in CHECKS.values()), name
