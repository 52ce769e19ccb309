"""Report emission: the streamed, run-length profile formatter and the
column-wise tables, each pinned to the row-by-row formatting it replaced,
and the atomic, umask-honouring file writes."""

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from smartcharge import aggregation, harness
from smartcharge.aggregation import SECONDS_PER_DAY, DailyProfile
from smartcharge.charging import HistoryArrays, simulate_session
from smartcharge.dataset import clean_sessions, parse_sessions_path
from smartcharge.harness import (
    emit_offline_reports,
    emit_online_reports,
    emit_predict_reports,
    run_offline,
    run_online,
    run_predict,
)
from smartcharge.predictor import cross_validate

from conftest import BASE_EPOCH, csv_row, synth_fleet_csv


# ---------------------------------------------------------------------------
# the row-by-row formatting the reports were written with, as the reference


def _csv_line(values):
    # full-precision, shortest round-trip floats (plain float repr, never a
    # numpy scalar repr)
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def profile_csv_reference(profiles, resolution):
    """second_of_day,raw_kw,oracle_kw,rl_kw rows; coarser resolutions emit
    the average power over each bucket."""
    lines = ["second_of_day,raw_kw,oracle_kw,rl_kw"]
    arrays = [profiles[s].power_kw() for s in harness.STRATEGIES]
    if resolution > 1:
        arrays = [
            a.reshape(aggregation.SECONDS_PER_DAY // resolution, resolution).mean(axis=1)
            for a in arrays
        ]
    # Whole-array tolist() would hold every row's floats at once; chunks
    # keep that peak small.
    chunk_rows = 4096
    for lo in range(0, len(arrays[0]), chunk_rows):
        chunk = zip(
            range(lo * resolution, (lo + chunk_rows) * resolution, resolution),
            *(a[lo : lo + chunk_rows].tolist() for a in arrays),
        )
        lines.extend(f"{t},{raw!r},{oracle!r},{rl!r}" for t, raw, oracle, rl in chunk)
    return "\n".join(lines) + "\n"


def outcomes_csv_reference(results):
    """A row per session of each charger in turn, from the batches' session
    logs joined end to end."""
    lines = [
        "cp_id,session_index,event_id,start,plugin_hours,energy_kwh,mode,"
        "t_boost_hours,t_slow_hours,e_boost_kwh,e_slow_kwh,e_total_kwh,"
        "e_loss_kwh,p_eff_kw,policy_t_boost_max_hours,policy_p_rate"
    ]
    assert list(results.log[0]) == ["adaptive", *lines[0].split(",")[7:]]
    logged = zip(*(np.concatenate(c).tolist() for c in zip(*(t.values() for t in results.log))))
    for cp in results.charge_points:
        s = cp.sessions
        sessions = zip(*(c.tolist() for c in (s.event_id, s.start, s.plugin_hours, s.energy_kwh)))
        for i, (session, (adaptive, *outcome)) in enumerate(zip(sessions, logged)):
            mode = "adaptive" if adaptive else "raw"
            lines.append(_csv_line([cp.cp_id, i, *session, mode, *outcome]))
    assert next(logged, None) is None
    return "\n".join(lines) + "\n"


def policies_csv_reference(results):
    names = ("cp_id", "t_boost_max_hours", "p_rate", "target_kwh", "delivered_kwh")
    rows = zip(*(results.columns[name].tolist() for name in names + ("n_train", "n_test")))
    lines = ["cp_id,t_boost_max_hours,p_rate,deficit_kwh,n_train,n_test"] + [
        _csv_line([cp_id, t_boost_max, p_rate, target - delivered, n_train, n_test])
        for cp_id, t_boost_max, p_rate, target, delivered, n_train, n_test in rows
    ]
    return "\n".join(lines) + "\n"


def speed_histogram_csv_reference(cfg, policies_csv):
    """Each charger's test split simulated on its own under its policy in
    policies_csv, and the relative speeds of its sessions with energy
    binned; a speed one ulp above 1.0 counts as 1.0."""
    sessions, _ = parse_sessions_path(cfg.input)
    charge_points, _ = clean_sessions(sessions, cfg.min_sessions, cfg.max_hours)
    policies = {}
    for line in policies_csv.splitlines()[1:]:
        cp_id, t_boost_max, p_rate, _, n_train, _ = line.split(",")
        policies[cp_id] = float(t_boost_max), float(p_rate), int(n_train)
    counts = np.zeros(aggregation.SPEED_BINS, dtype=np.int64)
    for cp in charge_points:
        t_boost_max, p_rate, n_train = policies[cp.cp_id]
        test = cp.sessions[n_train:]
        arrays = HistoryArrays(test.energy_kwh, test.plugin_hours, cp.p_max_kw)
        outcome = simulate_session(arrays, t_boost_max, p_rate)
        speeds = (outcome.p_eff_kw / cp.p_max_kw)[test.energy_kwh > 0]
        counts += np.histogram(np.minimum(speeds, 1.0), aggregation.SPEED_BINS, (0.0, 1.0))[0]
    lines = ["rel_speed_bin_start,fraction"] + [
        _csv_line([i / len(counts), float(n / counts.sum())]) for i, n in enumerate(counts)
    ]
    return "\n".join(lines) + "\n"


def prediction_csv_reference(cfg):
    """Each charger of a fresh parse and clean cross-validated on its own,
    with and without energy; blank cells where it is not evaluated."""
    sessions, _ = parse_sessions_path(cfg.input)
    charge_points, _ = clean_sessions(sessions, cfg.min_sessions, cfg.max_hours)
    lines = [
        "cp_id,n_rows,mae_with_energy,mape_with_energy,mse_with_energy,"
        "mae_without_energy,mape_without_energy,mse_without_energy"
    ]
    for cp in charge_points:
        cells = [cp.cp_id, len(cp.sessions) - 1]
        for include_energy in (True, False):
            (m,) = cross_validate([cp.sessions], include_energy=include_energy)
            cells += ["", "", ""] if m is None else [m.mae, m.mape, m.mse]
        lines.append(_csv_line(cells))
    return "\n".join(lines) + "\n"


def assert_same_lines(got, want):
    """got == want, reporting the first line that differs (pytest's own diff
    of two 86,400-line texts would take minutes)."""
    if got != want:
        lines = enumerate(zip_longest(got.split("\n"), want.split("\n")))
        i, (g, w) = next((i, pair) for i, pair in lines if pair[0] != pair[1])
        pytest.fail(f"line {i + 1}: {g!r} != {w!r}")


# ---------------------------------------------------------------------------
# profiles


SPECIAL = [
    0.0,
    -0.0,
    5e-324,  # the smallest subnormal
    -2.225073858507201e-308,  # the largest subnormal
    2.2250738585072014e-308,  # the smallest normal
    1e300,
    -1.0000000000000002e300,
    0.1,
]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, width=64))


@st.composite
def columns(draw):
    """A profile's slots: runs of equal values repeated over the day, or
    (all distinct) random values of one magnitude."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.standard_normal(SECONDS_PER_DAY) * draw(st.sampled_from([1e-310, 1.0, 1e300]))
    runs = draw(st.lists(st.tuples(values, st.integers(1, 6000)), min_size=1, max_size=40))
    value, length = zip(*runs)
    return np.resize(np.repeat(np.array(value), length), SECONDS_PER_DAY)


def alternating_zeros():
    return np.resize(np.array([0.0, -0.0]), SECONDS_PER_DAY)


def chunk_crossing_run():
    # one long run over the boundary of the first two chunks, among runs of
    # subnormals, values near 1e300 and both zeros
    slots = np.resize(np.repeat([5e-324, 1e300, -0.0, 0.0, -1e300], 70), SECONDS_PER_DAY)
    slots[4000:4200] = 0.25
    return slots


def chunk_edge_runs():
    # runs ending at the first chunk's last row (4,095), one of them a
    # single row, and a single-row run at the next chunk's first (4,096)
    slots = np.full(SECONDS_PER_DAY, 1.5)
    slots[4095] = 2.5
    slots[4096] = 3.5
    slots[4097:8192] = 4.5
    return slots


def signed_zeros():
    # -0.0 beside 0.0: runs that differ only in the sign bit
    slots = np.zeros(SECONDS_PER_DAY)
    slots[100:300] = -0.0
    slots[4095:4097] = -0.0
    slots[::997] = -0.0
    return slots


def exponents():
    # values whose repr has an exponent, in runs of 1 to 40 seconds
    values = np.array([1e16, 5e-324, 1e22, 1.5e-7, np.inf, 3.0])
    return np.resize(np.repeat(values, [1, 7, 40, 13, 2, 5]), SECONDS_PER_DAY)


# values near 1e300 overflow to inf in power_kw() and in the buckets' means,
# in both formatters alike
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
# a drawn bucket holding both infinities averages to nan, in both alike
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("resolution", [1, 60, 900, 86400])
# each example formats 86,400 rows twice, so shrinking a failure would take
# minutes: it is reported as found
@settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(raw=columns(), oracle=columns(), rl=columns())
@example(raw=alternating_zeros(), oracle=chunk_crossing_run(), rl=np.zeros(SECONDS_PER_DAY))
@example(
    raw=np.arange(SECONDS_PER_DAY) / 7.0,
    oracle=np.full(SECONDS_PER_DAY, -0.0),
    rl=chunk_crossing_run(),
)
# one run per chunk
@example(
    raw=np.full(SECONDS_PER_DAY, 0.5),
    oracle=np.full(SECONDS_PER_DAY, 1e-3),
    rl=np.full(SECONDS_PER_DAY, 7.25),
)
# runs of rows that only one column starts
@example(
    raw=np.full(SECONDS_PER_DAY, 2.0),
    oracle=np.repeat(np.arange(1440) / 3.0, 60),
    rl=np.zeros(SECONDS_PER_DAY),
)
@example(raw=chunk_edge_runs(), oracle=chunk_edge_runs()[::-1], rl=np.ones(SECONDS_PER_DAY))
@example(raw=np.ones(SECONDS_PER_DAY), oracle=signed_zeros(), rl=np.ones(SECONDS_PER_DAY))
@example(raw=exponents(), oracle=np.roll(exponents(), 3), rl=np.full(SECONDS_PER_DAY, np.inf))
def test_profile_csv_matches_row_by_row_reference(resolution, raw, oracle, rl):
    profiles = {s: DailyProfile(a) for s, a in zip(harness.STRATEGIES, (raw, oracle, rl))}
    chunks = list(harness._profile_csv(profiles, resolution))
    assert_same_lines("".join(chunks), profile_csv_reference(profiles, resolution))
    # a header, then one chunk per block of rows
    rows = SECONDS_PER_DAY // resolution
    assert len(chunks) == 1 + -(-rows // harness._PROFILE_CHUNK_ROWS)


@pytest.mark.parametrize("resolution", [1, 900])
def test_profile_csv_does_not_depend_on_chunk_size(monkeypatch, resolution):
    # runs that cross every chunk size's edges, and runs that end on them
    raw = chunk_crossing_run()
    oracle = np.repeat(np.arange(SECONDS_PER_DAY // 7 + 1) % 5 / 4.0, 7)[:SECONDS_PER_DAY]
    profiles = {
        s: DailyProfile(a) for s, a in zip(harness.STRATEGIES, (raw, oracle, chunk_edge_runs()))
    }
    want = profile_csv_reference(profiles, resolution)
    for rows in (1, 7, 4096, SECONDS_PER_DAY):
        monkeypatch.setattr(harness, "_PROFILE_CHUNK_ROWS", rows)
        assert_same_lines("".join(harness._profile_csv(profiles, resolution)), want)


@pytest.mark.parametrize("resolution", [1, 60, 900, 86400])
@pytest.mark.parametrize("first_second", [1, 9, 99, 999, 9999, 86399])
def test_profile_rows_seconds_across_digit_widths(first_second, resolution):
    # the chunk's seconds cross 9/10, 99/100, 999/1000 and 9999/10000 from
    # first_second on, up to 86,399
    seconds = range(first_second, SECONDS_PER_DAY, resolution)[:12_000]
    n = len(seconds)
    columns = [np.repeat([0.5, -0.0, 2.0], -(-n // 3))[:n], np.full(n, 1e16), np.arange(n) / 3]
    text = harness._profile_rows(first_second, resolution, columns)
    values = [c.tolist() for c in columns]
    assert text == "".join(f"{t},{a!r},{b!r},{c!r}\n" for t, a, b, c in zip(seconds, *values))


class RecordingPool:
    """An executor that runs each call in this process when it is
    submitted, and records the most calls submitted and not yet taken."""

    def __init__(self):
        self.in_flight = self.most = 0

    def submit(self, fn, *args):
        self.in_flight += 1
        self.most = max(self.most, self.in_flight)
        return _Finished(fn(*args), self)


class _Finished:
    """A call's result, which leaves its pool's count when taken."""

    def __init__(self, value, pool):
        self.value, self.pool = value, pool

    def result(self):
        self.pool.in_flight -= 1
        return self.value


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("resolution", [1, 60, 86400])
def test_profile_chunks_on_a_pool_keep_two_per_worker_in_flight(workers, resolution):
    rng = np.random.default_rng(5)
    profiles = {s: DailyProfile(rng.standard_normal(SECONDS_PER_DAY)) for s in harness.STRATEGIES}
    pool = RecordingPool()
    chunks = list(harness._profile_csv(profiles, resolution, pool, workers))
    assert chunks == list(harness._profile_csv(profiles, resolution))
    assert pool.most == min(2 * workers, len(chunks) - 1)


def test_profile_chunks_formatted_in_worker_processes():
    rng = np.random.default_rng(6)
    profiles = {s: DailyProfile(rng.standard_normal(SECONDS_PER_DAY)) for s in harness.STRATEGIES}
    with ProcessPoolExecutor(2) as pool:
        chunks = list(harness._profile_csv(profiles, 1, pool, 2))
    assert chunks == list(harness._profile_csv(profiles, 1))


# ---------------------------------------------------------------------------
# tables


def test_tables_match_row_by_row_reference(tmp_path):
    text = synth_fleet_csv(n_cps=5, sessions_per_cp=24, seed=13, zero_energy_prob=0.2)
    # a charger with too few rows for cross-validation: its prediction row is blank
    text += "\n".join(
        csv_row(9000 + i, "SHORT", BASE_EPOCH + i * 86400, "6.00", "4.0") for i in range(4)
    ) + "\n"
    path = tmp_path / "data.csv"
    path.write_text(text)

    def cfg(mode, **kw):
        return harness.ExperimentConfig(
            input=str(path), mode=mode, out_dir=str(tmp_path / mode),
            min_sessions=4, n_tries=15, history=8, **kw,
        )

    def read(paths, name):
        return Path(paths[name]).read_text()

    offline = run_offline(cfg("offline"))
    paths = emit_offline_reports(offline, str(tmp_path / "offline"))
    assert read(paths, "policies.csv") == policies_csv_reference(offline)

    online = run_online(cfg("online", warmup=6))
    assert any(log["adaptive"].any() for log in online.log)
    paths = emit_online_reports(online, str(tmp_path / "online"))
    assert read(paths, "outcomes.csv") == outcomes_csv_reference(online)

    predict = run_predict(cfg("predict"))
    assert predict.skipped == 1
    paths = emit_predict_reports(predict, str(tmp_path / "predict"))
    assert read(paths, "prediction_per_cp.csv") == prediction_csv_reference(cfg("predict"))


def test_speed_histogram_matches_per_charger_reference(tmp_path):
    # 40 chargers span two batches; some full-power sessions come out one
    # ulp above p_max
    path = tmp_path / "data.csv"
    path.write_text(synth_fleet_csv(n_cps=40, sessions_per_cp=20, seed=0, zero_energy_prob=0.2))
    cfg = harness.ExperimentConfig(
        input=str(path), out_dir=str(tmp_path / "out"), min_sessions=5, n_tries=20, history=10
    )
    paths = emit_offline_reports(run_offline(cfg), cfg.out_dir)
    want = speed_histogram_csv_reference(cfg, Path(paths["policies.csv"]).read_text())
    assert Path(paths["speed_histogram.csv"]).read_text() == want


# ---------------------------------------------------------------------------
# writing


def test_failed_write_keeps_previous_report(tmp_path):
    path = str(tmp_path / "profiles.csv")
    harness._atomic_write(path, ["old\n"])

    def chunks():
        yield "new,"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        harness._atomic_write(path, chunks())
    assert Path(path).read_text() == "old\n"
    assert os.listdir(tmp_path) == ["profiles.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_reports_honour_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        harness._atomic_write(str(tmp_path / "new.txt"), ["x\n"])
        (tmp_path / "touched.txt").touch()
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "new.txt").st_mode & 0o777 == mode
    assert os.stat(tmp_path / "touched.txt").st_mode & 0o777 == mode
