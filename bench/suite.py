"""Run every workload over several seeds and summarize each metric.

    python3 bench/suite.py                      # one run per workload
    python3 bench/suite.py --runs 10 --out bench/baseline.json

Every workload listed in BENCHMARK.json runs for its `run_seconds`. Each
run is a separate `bench/run.py` process with its own seed (seeds
first-seed, first-seed+1, ...), rounds interleave the workloads, and the
table gives every metric's median, quartiles and spread (quartile
distance over median, as `statistics.quantiles(values, n=4)` gives the
quartiles) next to the bound from BENCHMARK.json, plus error_frac, the
share of ops whose report disagreed with the reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    units = {m["name"]: m["unit"] for m in listed}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for seed in seeds:
        for w in workloads:
            results[w].append(run_once(w, seed, seconds, args.trace))
            print(f"ran {w} seed {seed}", file=sys.stderr, flush=True)

    summary = {"seeds": seeds, "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        attempted = sum(r["attempted"] for r in results[w])
        failed = sum(r["failed"] for r in results[w])
        entry = {"attempted": attempted, "failed": failed, "error_frac": failed / attempted,
                 "metrics": {}}
        print(f"\n{w}: runs={len(results[w])} error_frac={failed / attempted:.6g} "
              f"({failed}/{attempted} ops)")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>6} unit")
        for name in units:
            s = summarize([r["metrics"][name]["value"] for r in results[w]])
            s["unit"] = units[name]
            entry["metrics"][name] = s
            bound = bounds[name]
            print(f"  {name:32} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {'' if bound is None else bound:>6} {units[name]}")
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
