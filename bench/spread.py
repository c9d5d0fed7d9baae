"""Summarise result files written by bench/run.py.

    python3 bench/spread.py [RESULT.json ...]

With no arguments reads every result in bench/out/.  For untraced runs it
prints, per workload and end-to-end metric, the median of the runs and the
spread (q3 - q1) / median, with q1 and q3 from statistics.quantiles(n=4),
next to the bound in BENCHMARK.json; a spread of a third of the bound or
more is marked.  For traced runs it checks that the deterministic counters
are identical within each run and across runs of the same seed, and prints
the median self-time share of each layer.  Exits 1 if a run's outputs were
not correct or a counter differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    paths = [Path(p) for p in argv] or sorted(
        p for p in (ROOT / "bench" / "out").glob("*.json"))
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    groups = defaultdict(list)
    for p in paths:
        res = json.loads(p.read_text())
        groups[(res["workload"], res["trace"])].append(res)
    bad = False
    for (workload, trace), runs in sorted(groups.items()):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        bad |= wrong > 0
        print(f"{workload} trace={trace}: {len(runs)} runs, seeds "
              f"{sorted({r['seed'] for r in runs})}, {failed}/{attempted} "
              f"solves failed, {wrong} runs not correct")
        if trace:
            bad |= not _counters(runs)
            _shares(runs)
            continue
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                mark = "" if spread < bound / 3 else "  <-- above bound/3"
                print(f"  {name:14s} median {med:.6g} "
                      f"{runs[0]['metrics'][name]['unit']:3s} spread "
                      f"{spread:7.2%}  bound {bound:.0%}{mark}")
            else:
                print(f"  {name:14s} {med:.6g}")
    return 1 if bad else 0


def _counters(runs):
    by_seed = defaultdict(list)
    same = True
    for r in runs:
        by_seed[r["seed"]].append(r["deterministic_counters"][0])
        if r["counters_differ"]:
            same = False
            print(f"  seed {r['seed']}: counters DIFFER between the solves "
                  f"of one run: {', '.join(r['counters_differ'])}")
    for seed, counters in sorted(by_seed.items()):
        if any(c != counters[0] for c in counters):
            same = False
            print(f"  seed {seed}: deterministic counters DIFFER: {counters}")
        else:
            print(f"  seed {seed}: counters identical over {len(counters)} "
                  f"runs: {counters[0]}")
    return same


def _shares(runs):
    layers = sorted({k for r in runs for k in r["layer_self_share"]})
    med = {k: statistics.median(r["layer_self_share"].get(k, 0.0)
                                for r in runs) for k in layers}
    print("  self-time share: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(med.items(),
                                          key=lambda kv: -kv[1])))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
