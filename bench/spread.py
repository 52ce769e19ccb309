#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --out bench/baseline.json

Run from the repository root.  For every workload in BENCHMARK.json it runs
the benchmark command once per seed (one process at a time) and reports,
per end-to-end metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median.
A spread at or above a third of the metric's bound is flagged, and one
above the bound fails.  It also makes one traced run per workload, on the
first seed, for the per-layer numbers.  --out writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *bench["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = seed_range(args.seeds)

    report = {"machine": f"{platform.machine()}, {platform.python_version()}", "seeds": seeds, "workloads": {}}
    failed = False
    for name in names:
        runs = [run_once(bench, name, seed, 0) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        failed |= entry["failed"] > 0 or not all(r["correct"] for r in runs)
        print(f"== {name}: {entry['attempted']} runs, {entry['failed']} failed")
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs], bound)
            entry["end_to_end"][metric] = s
            flag = "ok" if s["steady"] else ("WIDE" if s["spread"] <= bound else "FAIL")
            failed |= s["spread"] > bound
            print(
                f"  {metric:16s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                f"spread {s['spread']:.4f} (bound {bound}) {flag}"
            )
        traced = run_once(bench, name, seeds[0], 1)
        failed |= not traced["correct"]
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
