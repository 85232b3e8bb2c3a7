"""Record a parent/change pair of benchmark runs as BENCH_<tag>.json.

    python3 bench/record.py --tag pr6 --parent ../parent --change . \\
        --runs gcds-chain:81-90 --runs cds-tight:71-74

Each ``--runs workload:seeds`` runs ``perfbench/run.py --workload W --seed S``
once in each source tree for every seed, one run at a time.  The tree that
runs first alternates from seed to seed (the parent first on the first seed),
so a slow spell of the machine does not always fall on the same side.  Every
run lasts ``run_seconds`` from BENCHMARK.json, perfbench's default.  Both
trees should be git checkouts, so that every run's label names its commit.

The output keeps, per workload, end-to-end metric and side, every value in
seed order with its median, quartiles and spread (``perfbench/stats.py``),
and how many seeds the change won; each side's median speed probe and steal
time, so that a slower host can be told from slower code; and every run's
label: commit, seed, memo state, steal time, speed probe, nproc and Python.
Workloads are checked against BENCHMARK.json before anything runs.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stats  # noqa: E402  (perfbench/stats.py)

SIDES = ("parent", "change")
LABEL_KEYS = ("git_commit", "seed", "memo_at_start", "steal_s", "speed_probe_ms",
              "nproc", "python", "loadavg_start", "loadavg_end")


def parse_runs(text: str) -> tuple[str, list[int]]:
    """``workload:first-last`` or ``workload:s1,s2,...`` -> (workload, seeds)."""
    workload, sep, spec = text.partition(":")
    if not sep or not workload:
        raise argparse.ArgumentTypeError(f"expected workload:seeds, got {text!r}")
    seeds: list[int] = []
    for part in spec.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return workload, seeds


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``: its result line and its run label."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: exit {proc.returncode}\n"
                           f"{proc.stderr.strip()[-1000:]}")
    label = next(json.loads(line[4:]) for line in lines if line.startswith("run "))
    return {"result": json.loads(lines[-1]),
            "label": {key: label.get(key) for key in LABEL_KEYS}}


def summary(values: list[float]) -> dict:
    out = {"values": values, "median": stats.median(values)}
    if len(values) >= 2:
        q1, _, q3 = stats.quartiles(values)
        out.update(q1=q1, q3=q3, spread=stats.spread(values) if out["median"] else None)
    return out


def host_speed(runs: list[dict]) -> dict:
    """The median speed probe (over every reading) and steal of runs' labels;
    None where no run has the reading."""
    probes = [ms for r in runs for ms in r["label"]["speed_probe_ms"] or ()]
    steals = [r["label"]["steal_s"] for r in runs if r["label"]["steal_s"] is not None]
    return {"speed_probe_ms": stats.median(probes) if probes else None,
            "steal_s": stats.median(steals) if steals else None}


def record_workload(workload: str, seeds: list[int], trees: dict, specs: dict) -> dict:
    runs = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(trees[side], workload, seed)
            run.update(side=side, seed=seed, first=position == 0)
            runs.append(run)
            values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
            print(f"{workload} seed {seed} {side}: failed {run['result']['failed']} "
                  + json.dumps(values), file=sys.stderr, flush=True)
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    metrics = {}
    for name, spec in specs.items():
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
        series = {side: [r["result"]["metrics"][name]["value"] for r in by_side[side]]
                  for side in SIDES}
        for side in SIDES:
            entry[side] = summary(series[side])
        sign = 1 if spec["better"] == "lower" else -1
        entry["change_better_pairs"] = sum(
            sign * (p - c) > 0 for p, c in zip(series["parent"], series["change"]))
        entry["pairs"] = len(seeds)
        metrics[name] = entry
    return {
        "seeds": seeds,
        "parent_first": [k % 2 == 0 for k in range(len(seeds))],
        "failed": {side: [r["result"]["failed"] for r in by_side[side]] for side in SIDES},
        "host": {side: host_speed(by_side[side]) for side in SIDES},
        "metrics": metrics,
        "runs": [{key: r[key] for key in ("side", "seed", "first", "label")} for r in runs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--runs", type=parse_runs, action="append", required=True,
                        metavar="WORKLOAD:SEEDS", help="e.g. gcds-chain:81-90; repeatable")
    parser.add_argument("--out", default=None, help="default: BENCH_<tag>.json here")
    args = parser.parse_args()

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    for workload, _ in args.runs:
        if workload not in names:
            parser.error(f"unknown workload {workload!r} in --runs; "
                         f"choose from {', '.join(names)}")
    specs = {m["name"]: m for m in bench["end_to_end"]}
    doc = {
        "tag": args.tag,
        "benchmark": bench["command"],
        "seconds": bench["run_seconds"],
        "sides": list(SIDES),
        "workloads": {workload: record_workload(workload, seeds, trees, specs)
                      for workload, seeds in args.runs},
    }
    out = args.out or f"BENCH_{args.tag}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
