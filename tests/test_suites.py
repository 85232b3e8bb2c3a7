"""Tests for the verification-suite plumbing."""

import pytest

from cdsgame.suites import SUITE_NAMES, run_all, run_suite


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


def test_threaded_runs_match_serial_runs():
    serial = run_suite("commutation", max_n=3, samples=40, seed=9, threads=1)
    threaded = run_suite("commutation", max_n=3, samples=40, seed=9, threads=3)
    assert (serial.cases, serial.failures) == (threaded.cases, threaded.failures)


def test_pile_suite_small():
    result = run_suite("pile-lemma", max_n=4)
    assert result.ok
    assert any("worst removal" in note for note in result.notes)


def test_bounds_suite_small():
    result = run_suite("bounds", max_n=4)
    assert result.ok


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
