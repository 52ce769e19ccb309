"""Span tracer for the benchmark's traced run, and the per-layer metrics
derived from its spans.

The tracer replaces the package's public functions where their callers look
them up (for example `smartcharge.harness.learn_policy`, which the harness
calls, and `smartcharge.optimizer.evaluate_policy_arrays`, which the search
calls) with wrappers that record a span per call: name, start, end and the
span that was open when the call began.  Nothing inside the package is
modified on disk.  Spans stay in memory and are written out once, when the
run ends; counts are recorded at the same boundaries.

A span's self time is its duration minus the part of it that its child spans
cover, so the self times of a run's spans add up to the run's own span.
The wrapper's own work around a call (the counting hooks, the bookkeeping
before the span opens and after it closes) runs inside the caller's span, so
it is measured per span as the span's gap and, together with a calibrated
per-call cost that no clock read covers, taken out of the caller's self time
and reported on its own as the tracer's charge.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import types
from array import array
from time import perf_counter

import numpy as np

NO_PARENT = -1


def rss_mb() -> float:
    """Current resident set of this process, in MB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class Tracer:
    """Records spans of wrapped calls made by the process that created it.

    Calls made in other processes (pool workers forked from this one) run
    unrecorded, which makes a run at several workers a parent-only trace.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # wrapper time outside each span but inside the caller's
        self.gap = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [NO_PARENT]
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.gap.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _patch(self, owner, attr: str, wrapper, fn) -> None:
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def wrap(self, owner, attr: str, span: str, after=None, before=None) -> None:
        """Replace owner.attr by a wrapper recording one `span` per call.

        before() runs just outside the span and its value goes to
        after(args, kwargs, result, state), which also runs outside it.  The
        time from entering the wrapper to leaving it, less the span, is the
        span's gap: the tracer's cost inside the caller's span.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(span)

        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            entered = perf_counter()
            state = before() if before is not None else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result, state)
            self.gap[idx] = perf_counter() - entered - (self.end[idx] - self.start[idx])
            return result

        self._patch(owner, attr, traced, fn)

    def wrap_iterator(self, owner, attr: str, span: str) -> None:
        """Replace a generator function by one recording a `span` around
        each step, i.e. the caller's time blocked waiting for the next item."""
        fn = getattr(owner, attr)
        nid = self._name_id(span)

        def stepped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it, _DONE)
                finally:
                    self._close(idx)
                if item is _DONE:
                    return
                yield item

        self._patch(owner, attr, stepped, fn)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def calibrate(self) -> None:
        """Record as counter trace.call_s the cost per wrapped call that its
        gap does not cover (entering and leaving the wrapper, the process
        check): a loop of wrapped empty calls, less their spans and gaps,
        against the same loop of bare calls; the median of several rounds."""
        calls, repeats = 20_000, 7
        probe = Tracer("calibration")
        mod = types.SimpleNamespace(noop=lambda: None)
        bare = mod.noop
        probe.wrap(mod, "noop", "noop")
        wrapped = mod.noop
        costs = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                bare()
            bare_s = perf_counter() - t0
            first = len(probe.name)
            t0 = perf_counter()
            for _ in range(calls):
                wrapped()
            wrapped_s = perf_counter() - t0
            inside = sum(probe.end[first:]) - sum(probe.start[first:]) + sum(probe.gap[first:])
            costs.append((wrapped_s - inside - bare_s) / calls)
        self.counters["trace.call_s"] = max(statistics.median(costs), 0.0)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            gap=np.frombuffer(self.gap, dtype=np.float64),
            run_id=np.array(self.run_id),
            counters=np.array(json.dumps(self.counters)),
        )


_DONE = object()


def install(tracer: Tracer, pool_wait: bool = False) -> None:
    """Wrap every layer boundary of the package for one traced CLI run."""
    from smartcharge import aggregation, cli, harness, optimizer, predictor

    tracer.wrap(cli, "run", "harness.run")

    def parse_done(args, kwargs, result, rss_before):
        sessions, errors = result
        tracer.count("dataset.rows_read", len(sessions) + len(errors))
        tracer.count("dataset.rows_rejected", len(errors))
        tracer.count("dataset.parse_rss_mb", rss_mb() - rss_before)

    tracer.wrap(harness, "parse_sessions_path", "dataset.parse", parse_done, rss_mb)
    tracer.wrap(
        harness,
        "clean_sessions",
        "dataset.clean",
        lambda a, k, result, s: tracer.count("dataset.sessions_dropped", result[1].removed_total()),
    )

    def learned(args, kwargs, result, state):
        tracer.count("optimizer.window_sessions", len(args[0]))
        tracer.count("optimizer.feasible", int(result.feasible))

    tracer.wrap(harness, "learn_policy", "optimizer.learn", learned)
    tracer.wrap(optimizer, "evaluate_policy_arrays", "charging.eval")
    tracer.wrap(harness, "simulate_session", "charging.simulate")
    for attr in ("raw_profile", "oracle_profile", "adaptive_profile"):
        tracer.wrap(harness, attr, "charging.profile")

    def accumulated(args, kwargs, result, state):
        pieces = args[0].pieces
        tracer.count("aggregation.pieces", len(pieces))
        tracer.count("aggregation.piece_seconds", sum(p[1] - p[0] for p in pieces))

    tracer.wrap(aggregation, "accumulate", "aggregation.accumulate", accumulated)

    def validated(args, kwargs, result, state):
        if result is None and kwargs.get("include_energy", True):
            tracer.count("predictor.skipped")

    tracer.wrap(harness, "cross_validate", "predictor.cv", validated)
    tracer.wrap(predictor, "fit_ols", "predictor.fit")
    tracer.wrap(predictor, "extract_features", "predictor.features")
    for attr in ("emit_offline_reports", "emit_online_reports", "emit_predict_reports"):
        tracer.wrap(harness, attr, "harness.emit")
    if pool_wait:
        tracer.wrap_iterator(harness, "_map_batches", "harness.pool_wait")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    covered = np.zeros(len(start))
    order = sorted(
        (i for i in range(len(start)) if parent[i] != NO_PARENT),
        key=lambda i: (parent[i], start[i]),
    )
    cur_parent, lo, hi = NO_PARENT, 0.0, 0.0
    for i in order:
        p = parent[i]
        s, e = max(start[i], start[p]), min(end[i], end[p])
        if p != cur_parent:
            if cur_parent != NO_PARENT:
                covered[cur_parent] += hi - lo
            cur_parent, lo, hi = p, s, max(s, e)
        elif s > hi:
            covered[p] += hi - lo
            lo, hi = s, max(s, e)
        else:
            hi = max(hi, e)
    if cur_parent != NO_PARENT:
        covered[cur_parent] += hi - lo
    return (end - start) - covered


def tracer_charges(parent: np.ndarray, gap: np.ndarray, call_s: float) -> np.ndarray:
    """The tracer's cost inside each span: the gaps of its child spans plus
    call_s per child."""
    has = parent != NO_PARENT
    return np.bincount(parent[has], weights=gap[has] + call_s, minlength=len(parent))


def traced_self_times(trace: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each span's self time less the tracer's charge to it, and the charge."""
    parent = trace["parent"]
    charge = tracer_charges(parent, trace["gap"], trace["counters"].get("trace.call_s", 0.0))
    return self_times(parent, trace["start"], trace["end"]) - charge, charge


def load(path: str) -> dict:
    with np.load(path) as z:
        return {
            "names": [str(n) for n in z["names"]],
            "name": z["name"],
            "parent": z["parent"],
            "start": z["start"],
            "end": z["end"],
            "gap": z["gap"],
            "counters": json.loads(str(z["counters"])),
        }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (units in run_bench.PER_LAYER_UNITS)."""
    names, name = trace["names"], trace["name"]
    dur = trace["end"] - trace["start"]
    own, charge = traced_self_times(trace)
    c = trace["counters"]

    def select(span):
        return name == names.index(span) if span in names else np.zeros(len(name), bool)

    def calls(span):
        return int(select(span).sum())

    def total(span, times=dur):
        return float(times[select(span)].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    learn_ms = dur[select("optimizer.learn")] * 1e3
    run_s = total("harness.run")
    rows = c.get("dataset.rows_read", 0)
    pieces = c.get("aggregation.pieces", 0)
    serial = total("dataset.parse") + total("dataset.clean") + total("harness.emit")
    return {
        "dataset.parse_s": total("dataset.parse"),
        "dataset.rows_read": rows,
        "dataset.rows_rejected": c.get("dataset.rows_rejected", 0),
        "dataset.parse_us_per_row": ratio(total("dataset.parse"), rows) * 1e6,
        "dataset.parse_rss_mb": c.get("dataset.parse_rss_mb", 0.0),
        "dataset.clean_s": total("dataset.clean"),
        "dataset.sessions_dropped": c.get("dataset.sessions_dropped", 0),
        "charging.simulate_calls": calls("charging.simulate"),
        "charging.simulate_s": total("charging.simulate"),
        "charging.profile_calls": calls("charging.profile"),
        "charging.profile_s": total("charging.profile"),
        "charging.eval_calls": calls("charging.eval"),
        "charging.eval_s": total("charging.eval"),
        "charging.eval_us": ratio(total("charging.eval"), calls("charging.eval")) * 1e6,
        "optimizer.learn_calls": calls("optimizer.learn"),
        "optimizer.learn_s": total("optimizer.learn"),
        "optimizer.learn_self_s": total("optimizer.learn", own),
        "optimizer.learn_ms_p50": float(np.percentile(learn_ms, 50)) if len(learn_ms) else 0.0,
        "optimizer.learn_ms_p99": float(np.percentile(learn_ms, 99)) if len(learn_ms) else 0.0,
        "optimizer.window_mean": ratio(c.get("optimizer.window_sessions", 0), calls("optimizer.learn")),
        "optimizer.evals_per_learn": ratio(calls("charging.eval"), calls("optimizer.learn")),
        "optimizer.feasible_frac": ratio(c.get("optimizer.feasible", 0), calls("optimizer.learn")),
        "aggregation.accumulate_calls": calls("aggregation.accumulate"),
        "aggregation.pieces": pieces,
        "aggregation.accumulate_s": total("aggregation.accumulate"),
        "aggregation.ns_per_piece": ratio(total("aggregation.accumulate"), pieces) * 1e9,
        "aggregation.piece_hours_mean": ratio(c.get("aggregation.piece_seconds", 0.0), pieces) / 3600.0,
        "predictor.cv_calls": calls("predictor.cv"),
        "predictor.cv_s": total("predictor.cv"),
        "predictor.fit_calls": calls("predictor.fit"),
        "predictor.fit_s": total("predictor.fit"),
        "predictor.features_s": total("predictor.features"),
        "predictor.skipped": c.get("predictor.skipped", 0),
        "harness.run_s": run_s,
        "harness.emit_s": total("harness.emit"),
        "harness.self_s": total("harness.run", own),
        "harness.serial_frac": ratio(serial, run_s),
        "trace.charge_s": float(charge.sum()),
    }


def module_self_times(trace: dict) -> dict[str, float]:
    """Self time per module (the prefix of each span name), with
    harness.run's own self time reported as harness.self and the tracer's
    charges as trace."""
    own, charge = traced_self_times(trace)
    out: dict[str, float] = {"trace": float(charge.sum())}
    for i, span in enumerate(trace["names"]):
        key = "harness.self" if span == "harness.run" else span.split(".")[0]
        out[key] = out.get(key, 0.0) + float(own[trace["name"] == i].sum())
    return out
