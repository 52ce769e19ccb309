"""Tests of the benchmark itself: generator, output checker and tracer.

    PYTHONPATH=src python -m pytest bench/tests
"""

import io
import json
import os
import re
import shutil
import sys
import time
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import fleet  # noqa: E402
import run_bench  # noqa: E402
import spans  # noqa: E402
from smartcharge import cli  # noqa: E402
from smartcharge.dataset import clean_sessions, parse_sessions  # noqa: E402


# ---------------------------------------------------------------------------
# metric lists


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run_bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run_bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run_bench.PER_LAYER_UNITS
    added_by_runner = {"trace.overhead_pct", "harness.report_bytes", "harness.pool_wait_s", *run_bench.RESULT_UNITS}
    empty = {k: np.zeros(0, dtype=int) for k in ("name", "parent")}
    empty.update({k: np.zeros(0) for k in ("start", "end", "gap")})
    layer = spans.layer_metrics({"names": [], "counters": {}, **empty})
    assert set(layer) | added_by_runner == set(run_bench.PER_LAYER_UNITS)


def test_recorded_results_cover_every_workload_and_fleet_seed():
    with open(run_bench.RECORDED_RESULTS) as fh:
        recorded = json.load(fh)
    assert list(recorded) == list(run_bench.WORKLOADS)
    for name, by_seed in recorded.items():
        assert list(by_seed) == [str(s) for s in range(run_bench.FLEET_SEEDS)]
        keys = {"mae_h"} if run_bench.WORKLOADS[name].mode == "predict" else {"peak_reduction_pct", "deficit_pct"}
        assert all(set(results) == keys for results in by_seed.values())
    assert run_bench.recorded_results("predict", run_bench.FLEET_SEEDS + 3) == recorded["predict"]["3"]


# ---------------------------------------------------------------------------
# generator


def test_generator_is_byte_deterministic_per_seed():
    a = fleet.generate(30, 20, seed=7).csv_text
    assert a == fleet.generate(30, 20, seed=7).csv_text
    assert a != fleet.generate(30, 20, seed=8).csv_text


def test_generator_known_counts_match_what_the_parser_and_cleaner_see():
    f = fleet.generate(150, 40, seed=3)
    # every anomaly kind is present at this size
    assert f.removed_over_max_hours and f.removed_overlapping and f.zero_energy_sessions
    assert f.removed_small_cp_points and len(f.rejected_lines) >= fleet.N_MALFORMED_KINDS

    sessions, errors = parse_sessions(io.StringIO(f.csv_text))
    assert [e.line_number for e in errors] == f.rejected_lines
    assert len({e.reason.split()[0] for e in errors}) == 7
    assert len(sessions) == f.total_records
    assert len(f.csv_text.splitlines()) - 1 == f.total_records + len(f.rejected_lines)

    charge_points, report = clean_sessions(sessions)
    assert report.removed_over_max_hours == f.removed_over_max_hours
    assert report.removed_overlapping == f.removed_overlapping
    assert report.removed_small_cp_points == f.removed_small_cp_points
    assert report.removed_small_cp_sessions == f.removed_small_cp_sessions
    assert report.retained_sessions == f.retained_sessions == 150 * 40
    assert [cp.cp_id for cp in charge_points] == list(f.sessions)
    for cp in charge_points:
        truth = f.sessions[cp.cp_id]
        assert [(s.event_id, s.start, s.end, s.energy_kwh, s.plugin_hours) for s in cp.sessions] == [
            (s.event_id, s.start, s.end, s.energy_kwh, s.plugin_hours) for s in truth
        ]
        assert cp.p_max_kw == fleet.p_max_kw(truth)
    assert sum(s.energy_kwh == 0 for cp in charge_points for s in cp.sessions) == f.zero_energy_sessions


def test_stratified_rows_cover_every_stratum_once():
    u = fleet.stratified(np.random.default_rng(0), 5, 40)
    assert u.shape == (5, 40)
    for row in u:
        assert sorted(np.floor(row * 40).astype(int)) == list(range(40))


# ---------------------------------------------------------------------------
# checker


def test_daily_kwh_matches_a_per_second_reference():
    rng = np.random.default_rng(1)
    t0 = rng.uniform(0, 5 * fleet.DAY, 300)
    t1 = t0 + np.concatenate([rng.uniform(0, 2, 100), rng.uniform(0, 3 * fleet.DAY, 200)])
    kw = rng.uniform(0, 10, 300)
    want = np.zeros(fleet.DAY)
    for a, b, p in zip(t0, t1, kw):
        s = np.arange(np.floor(a), np.ceil(b))
        overlap = np.minimum(s + 1, b) - np.maximum(s, a)
        np.add.at(want, s.astype(int) % fleet.DAY, p * overlap / 3600.0)
    got = check.daily_kwh(t0, t1, kw)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """One checked CLI bundle per mode on a small fleet."""
    tmp = tmp_path_factory.mktemp("bundles")
    f = fleet.generate(12, 110, seed=5)
    path = tmp / "fleet.csv"
    path.write_text(f.csv_text)
    out = {}
    for mode in ("offline", "online", "predict"):
        out_dir = tmp / mode
        args = ["--input", str(path), "--mode", mode, "--out-dir", str(out_dir), "--n-tries", "20"]
        assert cli.main(args) == 0
        out[mode] = str(out_dir)
    return f, out


def _copy(src: str, tmp_path) -> str:
    dst = str(tmp_path / "bundle")
    shutil.copytree(src, dst)
    return dst


def _edit(path: str, fn) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


def test_checker_accepts_the_real_bundles(bundles):
    f, out = bundles
    assert set(check.Expectation(f, "offline").check(out["offline"])) == {"peak_reduction_pct", "deficit_pct"}
    assert set(check.Expectation(f, "online").check(out["online"])) == {"peak_reduction_pct", "deficit_pct"}
    assert set(check.Expectation(f, "predict").check(out["predict"])) == {"mae_h"}


def _change_digit(lines, column):
    """Change the leading digit of the first non-zero value in a column."""
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if float(cells[column]) > 1.0:
            lead = cells[column][0]
            cells[column] = ("2" if lead == "1" else "1") + cells[column][1:]
            lines[i] = ",".join(cells)
            return lines
    raise AssertionError("no non-zero value to corrupt")


def _plus_one(m):
    return m.group(1) + str(int(m.group(2)) + 1)


@pytest.mark.parametrize(
    "mode,name,corrupt",
    [
        ("offline", "profiles.csv", lambda lines: _change_digit(lines, 1)),
        ("offline", "profiles.csv", lambda lines: _change_digit(lines, 2)),
        ("offline", "profiles.csv", lambda lines: _change_digit(lines, 3)),
        ("offline", "profiles_all_sessions.csv", lambda lines: _change_digit(lines, 2)),
        ("offline", "policies.csv", lambda lines: lines[:-1]),
        ("offline", "cleaning_report.txt", lambda lines: [re.sub(r"(: )(\d+)", _plus_one, l, 1) for l in lines]),
        ("offline", "parse_errors.csv", lambda lines: lines[:-1]),
        ("online", "outcomes.csv", lambda lines: lines[:-1]),
        ("online", "outcomes.csv", lambda lines: [l.replace(",adaptive,", ",raw,", 1) for l in lines]),
        ("predict", "prediction_per_cp.csv", lambda lines: lines[:-1]),
    ],
)
def test_checker_rejects_a_corrupted_bundle(bundles, tmp_path, mode, name, corrupt):
    f, out = bundles
    bundle = _copy(out[mode], tmp_path)
    _edit(os.path.join(bundle, name), corrupt)
    assert check.bundle_digest(bundle) != check.bundle_digest(out[mode])
    with pytest.raises(check.CheckError):
        check.Expectation(f, mode).check(bundle)


def test_results_must_equal_the_recorded_ones():
    recorded = {"peak_reduction_pct": 12.5, "deficit_pct": 0.75}
    check.same_results({"peak_reduction_pct": 12.5 * (1 + 1e-9), "deficit_pct": 0.75}, recorded)
    for got in (
        {"peak_reduction_pct": 12.5 * (1 + 1e-4), "deficit_pct": 0.75},
        {"peak_reduction_pct": 12.5, "deficit_pct": 0.8},
        {"peak_reduction_pct": 12.5},
    ):
        with pytest.raises(check.CheckError):
            check.same_results(got, recorded)


def test_checker_rejects_a_missing_or_extra_file(bundles, tmp_path):
    f, out = bundles
    bundle = _copy(out["offline"], tmp_path)
    os.remove(os.path.join(bundle, "speed_histogram.csv"))
    with pytest.raises(check.CheckError):
        check.Expectation(f, "offline").check(bundle)
    shutil.copy(os.path.join(out["offline"], "speed_histogram.csv"), bundle)
    check.Expectation(f, "offline").check(bundle)
    with open(os.path.join(bundle, "stale.csv"), "w") as fh:
        fh.write("x\n")
    with pytest.raises(check.CheckError):
        check.Expectation(f, "offline").check(bundle)


# ---------------------------------------------------------------------------
# tracer


def test_self_times_on_a_hand_built_span_tree():
    #   0 root     [0, 10]
    #   1   a      [1, 4]    child of 0
    #   2     a1   [2, 3]    child of 1
    #   3   b      [5, 7]    child of 0
    #   4   c      [6, 8]    child of 0, overlaps b
    #   5   d      [9, 12]   child of 0, runs past the root's end
    parent = np.array([-1, 0, 1, 0, 0, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 9.0])
    end = np.array([10.0, 4.0, 3.0, 7.0, 8.0, 12.0])
    own = spans.self_times(parent, start, end)
    # root: 10 - |[1,4] u [5,8] u [9,10]| = 10 - 7
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 2.0, 2.0, 3.0])


def test_tracer_records_nested_spans_and_restores_functions():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    mod.inner = inner
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = spans.Tracer("t")
    tracer.wrap(mod, "outer", "m.outer")
    tracer.wrap(mod, "inner", "m.inner", after=lambda a, k, r, s: tracer.count("m.calls"))
    assert mod.outer(1) == 4 and mod.outer(2) == 6
    tracer.unwrap_all()
    assert mod.inner is inner

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["m.outer", "m.inner", "m.outer", "m.inner"]
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert tracer.counters == {"m.calls": 2}
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))


def test_wrap_iterator_times_each_wait():
    mod = types.SimpleNamespace(items=lambda n: iter(range(n)))
    tracer = spans.Tracer("t")
    tracer.wrap_iterator(mod, "items", "m.wait")
    assert list(mod.items(3)) == [0, 1, 2]
    # one span per item plus the final wait that ends the iteration
    assert len(tracer.name) == 4


def test_tracer_charges_on_a_hand_built_span_tree():
    #   0 root  children 1 and 3
    #   1   a   child 2
    #   2     b
    #   3   c
    parent = np.array([-1, 0, 1, 0])
    gap = np.array([5.0, 0.1, 0.2, 0.3])
    np.testing.assert_allclose(spans.tracer_charges(parent, gap, 0.01), [0.42, 0.21, 0.0, 0.0])

    trace = {
        "parent": parent,
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 7.0]),
        "gap": gap,
        "counters": {"trace.call_s": 0.01},
    }
    own, charge = spans.traced_self_times(trace)
    np.testing.assert_allclose(own, [5.0 - 0.42, 2.0 - 0.21, 1.0, 2.0])
    # corrected self times plus the charges still add up to the root span
    assert own.sum() + charge.sum() == pytest.approx(10.0)


def test_wrapper_work_is_a_gap_outside_the_span():
    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass

    mod = types.SimpleNamespace(f=lambda: busy(0.002))
    tracer = spans.Tracer("t")
    tracer.wrap(mod, "f", "m.f", after=lambda a, k, r, s: busy(0.005))
    mod.f()
    duration = tracer.end[0] - tracer.start[0]
    assert 0.002 <= duration < 0.005
    assert tracer.gap[0] >= 0.005

    tracer.calibrate()
    assert 0.0 <= tracer.counters["trace.call_s"] < 1e-4
