#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload named, runs the command from BENCHMARK.json once per
seed and prints, per metric, the median of the runs and the distance
between the first and third quartile as a share of the median, next to
the metric's bound (end-to-end metrics only; per-layer ones have none).

    python3 perfbench/spread.py --workload forced_log --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --trace 1

With --json FILE it also merges the medians into FILE, keyed by
workload and metric, as a baseline to compare later runs against.
Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--json", default=None, help="merge medians into this file")
    ap.add_argument("--values", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]
    seconds = args.seconds or bench["run_seconds"]

    ok = True
    medians = {}
    for w in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(last)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: incorrect ({res['failed']} failed)", file=sys.stderr)
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({len(seeds_of(args.seeds))} seeds, {seconds} s)")
        for name, vs in values.items():
            med = statistics.median(vs)
            medians.setdefault(w, {})[name] = med
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:<32} median {med:>14.4f}  spread {spread:7.2%}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
            if args.values:
                print("      " + " ".join(f"{v:.4g}" for v in vs))
    if args.json:
        try:
            with open(args.json) as f:
                merged = json.load(f)
        except FileNotFoundError:
            merged = {}
        for w, ms in medians.items():
            merged.setdefault(w, {}).update(ms)
        with open(args.json, "w") as f:
            json.dump(merged, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
