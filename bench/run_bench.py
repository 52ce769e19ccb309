#!/usr/bin/env python3
"""The smartcharge benchmark: seeded fleets run end to end through the CLI.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload all --seed 1 --seconds 25

Run it from the repository root; it imports the package from ./src and
writes only under ./.bench_work, which it removes when it ends.

Each workload generates its fleet CSV from the fleet seed, --seed modulo
FLEET_SEEDS (bench/fleet.py), then repeats one CLI run in a fresh
interpreter until --seconds have passed (at least three runs).  Every run's
report bundle is checked against the fleet's ground truth (bench/check.py);
its bundle digest must equal the first run's, and its result metrics the
ones recorded for the fleet seed in bench/recorded_results.json.  A run
whose CLI exits non-zero or whose check fails counts as failed.

--trace 0 reports the end-to-end metrics, medians over the runs.  Each
run sits between two reference runs (a fresh interpreter importing numpy),
and its times are scaled by their mean to a machine on which the reference
takes REFERENCE_S; the unscaled medians are printed too.
--trace 1 makes pairs of one untraced run at one worker and one with every
layer boundary traced (bench/spans.py) until --seconds have passed (at
least three pairs), and for a
multi-worker workload one more run at its worker count with only the
parent traced, for the time the parent waits on the pool; it reports the
per-layer metrics of the last fully traced run and of the parent-only run,
and the tracing overhead from the pairs.

The last line printed is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import fleet  # noqa: E402
import spans  # noqa: E402

MIN_RUNS = 3
RUN_TIMEOUT_S = 150
# The machine's speed drifts by up to 30% within minutes, far more than any
# bound, and start-up work tracks the drift closely.  So every run is timed
# against a reference run beside it -- a fresh interpreter importing numpy,
# independent of the package -- and the timing metrics are scaled to a
# machine on which the reference takes REFERENCE_S.
REFERENCE_ARGV = ("-c", "import numpy")
REFERENCE_S = 0.15
# Fleets, and the recorded results they are checked against, exist for this
# many seeds; --seed is taken modulo it.
FLEET_SEEDS = 64
RECORDED_RESULTS = os.path.join(BENCH_DIR, "recorded_results.json")


@dataclass(frozen=True)
class Workload:
    mode: str
    n_cps: int
    sessions_per_cp: int
    workers: int
    cli: tuple[str, ...]


# Sizes keep one CLI run near 2 s on a 2-core machine, so a 36 s window
# holds more than ten runs: single runs there vary by about 7%, so the
# median needs that many.  BENCHMARK.json says why each workload exists.
WORKLOADS = {
    "offline-h30-w2": Workload("offline", 128, 100, 2, ("--history", "30")),
    "online-all": Workload("online", 6, 130, 1, ("--history", "60", "--warmup", "100")),
    "predict": Workload("predict", 400, 100, 1, ()),
}

END_TO_END_UNITS = {
    "sessions_per_s": "sessions/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Result metrics, read from the checked bundle.  Each is deterministic for a
# seed, but varies from seed to seed by more than any timing bound (see
# bench/README.md), so they are not end-to-end metrics: every run's values
# must equal the recorded ones for its fleet seed, and they are reported with
# the per-layer metrics and printed beside the end-to-end table.
RESULT_UNITS = {
    "peak_reduction_pct": "%",
    "deficit_pct": "%",
    "mae_h": "h",
}

PER_LAYER_UNITS = {
    "dataset.parse_s": "s",
    "dataset.rows_read": "count",
    "dataset.rows_rejected": "count",
    "dataset.parse_us_per_row": "us",
    "dataset.parse_rss_mb": "MB",
    "dataset.clean_s": "s",
    "dataset.sessions_dropped": "count",
    "charging.simulate_calls": "count",
    "charging.simulate_s": "s",
    "charging.profile_calls": "count",
    "charging.profile_s": "s",
    "charging.eval_calls": "count",
    "charging.eval_s": "s",
    "charging.eval_us": "us",
    "optimizer.learn_calls": "count",
    "optimizer.learn_s": "s",
    "optimizer.learn_self_s": "s",
    "optimizer.learn_ms_p50": "ms",
    "optimizer.learn_ms_p99": "ms",
    "optimizer.window_mean": "sessions",
    "optimizer.evals_per_learn": "count",
    "optimizer.feasible_frac": "ratio",
    "aggregation.accumulate_calls": "count",
    "aggregation.pieces": "count",
    "aggregation.accumulate_s": "s",
    "aggregation.ns_per_piece": "ns",
    "aggregation.piece_hours_mean": "h",
    "predictor.cv_calls": "count",
    "predictor.cv_s": "s",
    "predictor.fit_calls": "count",
    "predictor.fit_s": "s",
    "predictor.features_s": "s",
    "predictor.skipped": "count",
    "harness.run_s": "s",
    "harness.emit_s": "s",
    "harness.report_bytes": "bytes",
    "harness.self_s": "s",
    "harness.serial_frac": "ratio",
    "harness.pool_wait_s": "s",
    "trace.overhead_pct": "%",
    "trace.charge_s": "s",
    **RESULT_UNITS,
}


@dataclass
class RunRecord:
    ok: bool
    run_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    report_bytes: int = 0
    spans_path: str = ""
    reference_s: float = 0.0


class Runner:
    """Runs the CLI on one fleet, checks every bundle and counts failures."""

    def __init__(self, root: str, work: str, name: str, seed: int, recorded: dict | None):
        """recorded: the results every run must reproduce, or None to
        accept whatever results pass the check (when recording them)."""
        self.root = root
        self.work = work
        self.w = WORKLOADS[name]
        self.seed = seed % FLEET_SEEDS
        self.recorded = recorded
        self.fleet = fleet.generate(self.w.n_cps, self.w.sessions_per_cp, self.seed)
        self.input = os.path.join(work, "fleet.csv")
        with open(self.input, "w") as fh:
            fh.write(self.fleet.csv_text)
        self.expect = check.Expectation(self.fleet, self.w.mode)
        self.digest: str | None = None
        self.results: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            TMPDIR=work,
        )

    def run(self, workers: int, trace: str = "off") -> RunRecord:
        n = self.attempted
        self.attempted += 1
        out = os.path.join(self.work, f"out-{n}")
        result_path = os.path.join(self.work, f"run-{n}.json")
        spans_path = os.path.join(self.work, f"spans-{n}.npz")
        argv = [
            sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), result_path, trace, spans_path,
            "--", "--input", self.input, "--mode", self.w.mode, "--seed", str(self.seed),
            "--workers", str(workers), "--out-dir", out, *self.w.cli,
        ]
        t_spawn = time.monotonic()
        # own session, so a run that hangs is stopped with its pool workers
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return self._fail(n, f"no exit within {RUN_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(n, f"exit code {proc.returncode}: {err.strip()[-500:]}")
        with open(result_path) as fh:
            r = json.load(fh)
        package = os.path.join(self.root, "src", "smartcharge")
        if os.path.realpath(r["package"]) != os.path.realpath(package):
            return self._fail(n, f"imported {r['package']}, not {package}")
        digest = check.bundle_digest(out)
        try:
            if self.digest is None:
                self.results = self.expect.check(out)
                if self.recorded is not None:
                    check.same_results(self.results, self.recorded)
                self.digest = digest
            elif digest != self.digest:
                raise check.CheckError("report bundle differs from the first run's")
        except check.CheckError as exc:
            return self._fail(n, str(exc))
        record = RunRecord(
            ok=True,
            run_s=r["run_end"] - r["run_start"],
            setup_s=r["run_start"] - t_spawn,
            rss_mb=max(r["maxrss_kb"], r["children_maxrss_kb"]) / 1024.0,
            report_bytes=sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)),
            spans_path=spans_path if trace != "off" else "",
        )
        shutil.rmtree(out)
        print(
            f"run {n}: trace {trace}, {workers} worker(s), run {record.run_s:.4f} s, "
            f"setup {record.setup_s:.4f} s, peak rss {record.rss_mb:.1f} MB"
        )
        return record

    def _fail(self, n: int, why: str) -> RunRecord:
        self.failed += 1
        print(f"run {n} failed: {why}", file=sys.stderr)
        return RunRecord(ok=False)

    def reference(self) -> float:
        """Wall time of the reference run, spawn to exit."""
        t0 = time.monotonic()
        subprocess.run(
            [sys.executable, *REFERENCE_ARGV], cwd=self.root, env=self.env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S,
        )
        return time.monotonic() - t0

    def repeat(self, workers: int, seconds: float, traces=("off",)) -> list[tuple[RunRecord, ...]]:
        """Rounds of one run per trace mode until `seconds` have passed, at
        least MIN_RUNS rounds, each run between two reference runs whose
        mean is its reference_s.  Returns the rounds whose runs all passed."""
        t0 = time.monotonic()
        rounds = []
        before = self.reference()
        while len(rounds) < MIN_RUNS or time.monotonic() - t0 < seconds:
            records = []
            for trace in traces:
                record = self.run(workers, trace)
                after = self.reference()
                record.reference_s = (before + after) / 2
                records.append(record)
                before = after
            rounds.append(tuple(records))
        return [r for r in rounds if all(record.ok for record in r)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    records = [record for (record,) in runner.repeat(runner.w.workers, seconds)]
    sessions = runner.fleet.retained_sessions
    print(
        f"unscaled medians: {_median([sessions / r.run_s for r in records]):.6g} sessions/s, "
        f"setup {_median([r.setup_s for r in records]):.4f} s, "
        f"reference {_median([r.reference_s for r in records]):.4f} s"
    )
    return {
        "sessions_per_s": _median([sessions * r.reference_s / (r.run_s * REFERENCE_S) for r in records]),
        "peak_rss_mb": _median([r.rss_mb for r in records]),
        "setup_s": _median([r.setup_s * REFERENCE_S / r.reference_s for r in records]),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    # Adjacent runs share most of the machine's drift, so the overhead is the
    # median ratio within pairs of reference-scaled times, not a traced run
    # against untraced ones made seconds earlier.
    pairs = runner.repeat(1, seconds, ("off", "full"))
    pooled = runner.run(runner.w.workers, "pool") if runner.w.workers > 1 else None
    if not (pairs and (pooled is None or pooled.ok)):
        return {name: 0.0 for name in PER_LAYER_UNITS}

    traced = pairs[-1][1]
    trace = spans.load(traced.spans_path)
    metrics = {**dict.fromkeys(RESULT_UNITS, 0.0), **runner.results, **spans.layer_metrics(trace)}
    run_s = metrics["harness.run_s"]
    ratios = [(t.run_s / t.reference_s) / (u.run_s / u.reference_s) for u, t in pairs]
    metrics["trace.overhead_pct"] = 100.0 * (_median(ratios) - 1.0)
    metrics["harness.report_bytes"] = traced.report_bytes
    metrics["harness.pool_wait_s"] = 0.0
    if pooled is not None:
        pool = spans.load(pooled.spans_path)
        waits = pool["name"] == pool["names"].index("harness.pool_wait")
        metrics["harness.pool_wait_s"] = float((pool["end"] - pool["start"])[waits].sum())

    selfs = spans.module_self_times(trace)
    residual = run_s - sum(selfs.values())
    print("self time by module: " + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(selfs.items())))
    print(f"self times account for harness.run_s {run_s:.4f} s to {residual:+.2e} s")
    print(
        f"module self times plus harness.self fall short of it by the tracer's charge, "
        f"{100.0 * selfs['trace'] / run_s:.2f}% of the run (tracing overhead {metrics['trace.overhead_pct']:.2f}%)"
    )
    if abs(residual) > 1e-6:
        runner.failed += 1
        print("traced self times do not account for the run", file=sys.stderr)
    return metrics


def recorded_results(name: str, seed: int) -> dict:
    with open(RECORDED_RESULTS) as fh:
        return json.load(fh)[name][str(seed % FLEET_SEEDS)]


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(root, ".bench_work", f"{name}-s{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(root, work, name, seed, recorded_results(name, seed))
        if trace:
            metrics, units = per_layer(runner, seconds), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(runner, seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another benchmark process still uses it
    _print_table(name, runner, metrics, units)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def _print_table(name: str, runner: Runner, metrics: dict, units: dict) -> None:
    print(f"== {name}: {runner.attempted} runs, {runner.failed} failed")
    rows = [(k, metrics[k], units[k]) for k in units]
    if units is END_TO_END_UNITS:
        rows += [(k, v, RESULT_UNITS[k] + " (result, unbounded)") for k, v in runner.results.items()]
    for metric, value, unit in rows:
        print(f"  {metric:30s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "smartcharge", "cli.py")):
        print("run_bench: no src/smartcharge here; run from the repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
