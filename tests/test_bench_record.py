"""Tests for bench/record.py, the parent/change benchmark recorder."""

import argparse
import importlib.util
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

SPECS = {"cpu_s": {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25}}


def test_parse_runs():
    assert record.parse_runs("gcds-chain:81-84") == ("gcds-chain", [81, 82, 83, 84])
    assert record.parse_runs("cds-tight:1,5-6") == ("cds-tight", [1, 5, 6])
    for bad in ("cds-tight", ":1-2"):
        with pytest.raises(argparse.ArgumentTypeError):
            record.parse_runs(bad)


def test_pairs_alternate_and_are_summarised(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed):
        calls.append((tree, seed))
        cpu = seed + (0.5 if tree == "P" else 0.0)  # the change is faster on every seed
        slow = 2.0 if tree == "P" else 1.0  # and ran on a host half as fast
        return {"result": {"failed": 0, "metrics": {"cpu_s": {"value": cpu, "unit": "s"}}},
                "label": {"git_commit": tree, "seed": seed,
                          "speed_probe_ms": [slow * seed, slow * (seed + 1)],
                          "steal_s": None if seed == 1 else slow * seed / 10}}

    monkeypatch.setattr(record, "run_once", fake_run)
    doc = record.record_workload("cds-tight", [1, 2, 3, 4], {"parent": "P", "change": "C"},
                                 SPECS)
    assert calls == [("P", 1), ("C", 1), ("C", 2), ("P", 2),
                     ("P", 3), ("C", 3), ("C", 4), ("P", 4)]
    assert doc["parent_first"] == [True, False, True, False]
    cpu = doc["metrics"]["cpu_s"]
    assert cpu["parent"]["values"] == [1.5, 2.5, 3.5, 4.5]
    assert cpu["change"]["values"] == [1, 2, 3, 4]
    assert cpu["change"]["median"] == 2.5
    assert (cpu["change"]["q1"], cpu["change"]["q3"]) == (1.25, 3.75)
    assert cpu["change"]["spread"] == pytest.approx(2.5 / 2.5)
    assert (cpu["change_better_pairs"], cpu["pairs"]) == (4, 4)
    assert doc["failed"] == {"parent": [0] * 4, "change": [0] * 4}
    assert [r["label"]["git_commit"] for r in doc["runs"][:2]] == ["P", "C"]
    # Medians over every probe reading, and over the runs that read steal.
    assert doc["host"] == {"parent": {"speed_probe_ms": 6.0, "steal_s": 0.6},
                           "change": {"speed_probe_ms": 3.0, "steal_s": 0.3}}


def test_unknown_workloads_are_refused_before_any_run(monkeypatch, capsys, tmp_path):
    calls = []

    def fake_run(tree, workload, seed):
        # What `perfbench/run.py --workload all` prints: prefixed metrics.
        calls.append((tree, workload, seed))
        return {"result": {"failed": 0, "metrics": {"cds-tight.cpu_s": {"value": 1.0}}},
                "label": {key: None for key in record.LABEL_KEYS}}

    monkeypatch.setattr(record, "run_once", fake_run)
    for runs in ("all:1", "cds-tigth:1-2"):
        monkeypatch.setattr(sys, "argv", [
            "record.py", "--tag", "t", "--parent", record.ROOT, "--change", record.ROOT,
            "--runs", "cds-tight:1", "--runs", runs, "--out", str(tmp_path / "out.json")])
        with pytest.raises(SystemExit) as exit_:
            record.main()
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert repr(runs.split(":")[0]) in err
        assert "cds-tight, gcds-chain, verify-sweep, cli-session" in err
    assert calls == []
    assert not (tmp_path / "out.json").exists()
