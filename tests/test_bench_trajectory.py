"""Tests for bench/trajectory.py, read on the committed BENCH records."""

import glob
import importlib.util
import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", os.path.join(_ROOT, "bench", "trajectory.py"))
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

RECORDS = glob.glob(os.path.join(_ROOT, "BENCH_*.json"))


def _load(path):
    with open(os.path.join(_ROOT, path), encoding="utf-8") as fh:
        return json.load(fh)


def test_records_sort_by_pr_number():
    names = [os.path.basename(p) for p in sorted(RECORDS, key=trajectory.record_order)]
    numbers = [int(name[len("BENCH_pr"):-len(".json")]) for name in names]
    assert numbers == sorted(numbers) and "BENCH_pr6.json" in names and "BENCH_pr14.json" in names


def test_every_record_workload_and_metric_gets_a_row_per_record(capsys):
    assert trajectory.main(RECORDS) == 0
    out = capsys.readouterr().out.splitlines()
    docs = [_load(p) for p in sorted(RECORDS, key=trajectory.record_order)]
    for doc in docs:
        for workload, entry in doc["workloads"].items():
            for metric, figures in entry["metrics"].items():
                title = next(i for i, line in enumerate(out)
                             if line.startswith(f"{workload} {metric} ("))
                row = next(line for line in out[title + 2:] if line.split()[0] == doc["tag"])
                tag, parent, change, won, probe_p, probe_c = row.split()
                assert float(parent) == float(f"{figures['parent']['median']:.4g}")
                assert float(change) == float(f"{figures['change']['median']:.4g}")
                assert won == f"{figures['change_better_pairs']}/{figures['pairs']}"
                host = entry.get("host")
                if host is None:
                    assert (probe_p, probe_c) == ("-", "-")
                else:
                    assert float(probe_p) == float(f"{host['parent']['speed_probe_ms']:.4g}")


def test_rows_keep_record_order_and_read_the_probes():
    docs = [_load(name) for name in ("BENCH_pr6.json", "BENCH_pr13.json")]
    found = trajectory.rows(docs)[("verify-sweep", "cpu_s")]
    assert [row["tag"] for row in found] == ["pr6", "pr13"]
    assert found[0]["probe"] == {"parent": None, "change": None}
    cpu = docs[1]["workloads"]["verify-sweep"]["metrics"]["cpu_s"]
    assert (found[1]["parent"], found[1]["change"]) == (cpu["parent"]["median"],
                                                        cpu["change"]["median"])
    assert (found[1]["won"], found[1]["pairs"]) == (10, 10)
    assert found[1]["probe"]["parent"] == docs[1]["workloads"]["verify-sweep"]["host"]["parent"][
        "speed_probe_ms"]


def test_no_records_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
    assert trajectory.main([]) == 2
    assert "no BENCH" in capsys.readouterr().err
