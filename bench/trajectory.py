"""Print the performance trajectory across the BENCH_*.json records.

    python3 bench/trajectory.py                    # every BENCH_*.json here
    python3 bench/trajectory.py BENCH_pr13.json BENCH_pr14.json

For each workload and end-to-end metric, one line per record, in PR order:
the parent's and the change's medians, how many pairs the change won, and
each side's median speed probe (``-`` in records made before probes were
kept).  Medians compare only within one record: the host's speed differs
between records, which the probe columns show.  Only the standard library
is used.
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record_order(path: str) -> tuple:
    """Records sort by the number in their tag (pr6 before pr10)."""
    name = os.path.basename(path)
    digits = re.findall(r"\d+", name)
    return (int(digits[-1]) if digits else -1, name)


def rows(records: list[dict]) -> dict[tuple[str, str], list[dict]]:
    """(workload, metric) -> one row per record that has it, in record order."""
    out: dict[tuple[str, str], list[dict]] = {}
    for doc in records:
        for workload, entry in doc["workloads"].items():
            host = entry.get("host", {})
            for metric, figures in entry["metrics"].items():
                out.setdefault((workload, metric), []).append({
                    "tag": doc["tag"],
                    "unit": figures["unit"],
                    "better": figures["better"],
                    "parent": figures["parent"]["median"],
                    "change": figures["change"]["median"],
                    "won": figures["change_better_pairs"],
                    "pairs": figures["pairs"],
                    "probe": {side: host.get(side, {}).get("speed_probe_ms")
                              for side in ("parent", "change")},
                })
    return out


def _number(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(table: dict[tuple[str, str], list[dict]]) -> list[str]:
    lines = []
    for (workload, metric), found in sorted(table.items()):
        first = found[0]
        lines.append(f"{workload} {metric} ({first['unit']}, {first['better']} is better)")
        lines.append(f"  {'record':8} {'parent':>9} {'change':>9} {'won':>6}"
                     f" {'probe P ms':>10} {'probe C ms':>10}")
        for row in found:
            lines.append(
                f"  {row['tag']:8} {_number(row['parent']):>9} {_number(row['change']):>9}"
                f" {row['won']:>2}/{row['pairs']:<3} {_number(row['probe']['parent']):>10}"
                f" {_number(row['probe']['change']):>10}")
    return lines


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json records", file=sys.stderr)
        return 2
    records = []
    for path in sorted(paths, key=record_order):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    print("\n".join(render(rows(records))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
