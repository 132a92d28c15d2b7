#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark results (parent, change).

Each input file holds the standard output of benchmark runs, any number
of them concatenated; the `perfbench-record/v1` line each run prints
before its result line carries the workload, seed, trace flag, host
fingerprint and metrics. Runs of the two sides are paired by workload,
trace flag and seed.

    for s in 1 2 3 4 5 6 7 8 9 10; do   # at least ten pairs; alternate
      <parent checkout>  cargo run ... -- --workload mp8-full-2M8w --seed $s ... >> parent.log
      <change checkout>  cargo run ... -- --workload mp8-full-2M8w --seed $s ... >> change.log
    done                                # (swap the two lines on odd seeds)
    python3 perfbench/compare.py parent.log change.log [BENCHMARK.json]

For every workload x metric it prints each side's median and quartiles,
the share of pairs the change won, and a verdict:

  improved    the change won at least 9/10 of the pairs (ties count for
              neither side), over at least 10 pairs, and the medians
              differ by more than the parent's own quartile spread;
  no-worse    the change's median is worse than the parent's by no more
              than the metric's bound from BENCHMARK.json;
  worse       the change's median is worse by more than the bound, and
              the parent's spread is within the bound;
  unresolved  the parent's spread is wider than the bound, so the
              medians cannot be told apart (unless every change run beats
              every parent run, which counts as no-worse).

Per-layer metrics have no bound; for them only improved / unresolved
is decided. Exit status: 1 if any end-to-end verdict is `worse`.
"""

import json
import statistics
import sys
from pathlib import Path

SCHEMA = "perfbench-record/v1"


def load(path):
    """The benchmark records in a file, in order."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{") or SCHEMA not in line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if rec.get("schema") == SCHEMA:
            records.append(rec)
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    """The verdict for one workload x metric; see the module docs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    won = wins / len(pairs) if pairs else 0.0
    gain = sign * (cm - pm)
    if len(pairs) >= 10 and won >= 0.9 and gain > (p3 - p1):
        return "improved", won
    if bound is None:
        return "unresolved", won
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse_by = -gain / abs(pm) if pm else 0.0
    if spread > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("no-worse" if all_better else "unresolved"), won
    if worse_by <= bound:
        return "no-worse", won
    return "worse", won


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    bench_path = Path(argv[3]) if len(argv) > 3 else Path("BENCHMARK.json")
    spec = json.loads(bench_path.read_text())
    meta = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[1]), load(argv[2])
    if not parent or not change:
        print("no perfbench records found in one of the inputs", file=sys.stderr)
        return 2
    regressed = False
    keys = sorted({(r["workload"], r["trace"]) for r in parent} & {(r["workload"], r["trace"]) for r in change})
    for workload, trace in keys:
        side_p = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        side_c = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        by_seed = {}
        for r in side_c:
            by_seed.setdefault(r["seed"], []).append(r)
        pairs_of = []
        for r in side_p:
            if by_seed.get(r["seed"]):
                pairs_of.append((r, by_seed[r["seed"]].pop(0)))
        # The revision differs between the sides by design; the host must not.
        hosts = {json.dumps({k: v for k, v in (r.get("fingerprint") or {}).items() if k != "revision"},
                            sort_keys=True) for r in side_p + side_c}
        print(f"== {workload} (trace {trace}): {len(side_p)} parent runs, {len(side_c)} change runs, "
              f"{len(pairs_of)} pairs")
        if len(hosts) > 1:
            print(f"   WARNING: the runs come from {len(hosts)} different hosts or toolchains: {sorted(hosts)}")
        failed = sum(r["failed"] for r in side_p + side_c)
        if failed or not all(r["correct"] for r in side_p + side_c):
            print(f"   WARNING: {failed} failed operation(s) among these runs")
        print("   %-30s %-36s %-36s %6s  %s" % ("metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict"))
        for name in side_p[0]["metrics"]:
            if name not in meta:
                continue
            better, bound = meta[name]
            pv = [r["metrics"][name]["value"] for r in side_p if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in side_c if name in r["metrics"]]
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for a, b in pairs_of if name in a["metrics"] and name in b["metrics"]]
            if not pv or not cv:
                continue
            v, won = verdict(pv, cv, pairs, better, bound)
            regressed |= v == "worse"
            fmt = lambda q: "%.5g/%.5g/%.5g" % q
            print("   %-30s %-36s %-36s %5.0f%%  %s" % (name, fmt(quartiles(pv)), fmt(quartiles(cv)), 100 * won, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
