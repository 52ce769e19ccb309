#!/usr/bin/env python3
"""Record every workload's result metrics for every fleet seed.

    python3 bench/record_results.py

Run from the repository root.  For each workload and each of the
run_bench.FLEET_SEEDS fleet seeds it makes one checked CLI run at one worker
(results do not depend on the worker count) and writes the result metrics
to bench/recorded_results.json.  run_bench.py fails every run whose results
differ from these, so record again only with a change that is meant to
change results, and say in its description why they changed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run_bench


def main() -> int:
    root = os.getcwd()
    recorded: dict[str, dict[str, dict[str, float]]] = {}
    for name in run_bench.WORKLOADS:
        recorded[name] = {}
        for seed in range(run_bench.FLEET_SEEDS):
            work = os.path.join(root, ".bench_work", f"record-{name}-s{seed}-{os.getpid()}")
            os.makedirs(work)
            try:
                runner = run_bench.Runner(root, work, name, seed, recorded=None)
                if not runner.run(1).ok:
                    return 1
            finally:
                shutil.rmtree(work, ignore_errors=True)
            recorded[name][str(seed)] = runner.results
    try:
        os.rmdir(os.path.join(root, ".bench_work"))
    except OSError:
        pass  # a benchmark process still uses it
    with open(run_bench.RECORDED_RESULTS, "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
