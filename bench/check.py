"""Check a CLI report bundle against the generator's ground truth.

Every expected value is computed here from the generated sessions; the
program's own reports are only ever the thing being checked.  A failed
check raises CheckError, and the benchmark counts that run as failed.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

import numpy as np

from fleet import DAY, MAX_HOURS, MIN_SESSIONS, Fleet, p_max_kw, offline_test_split

# the files each mode writes; parse_errors.csv joins them when a row is rejected
EXPECTED_FILES = {
    "offline": {
        "cleaning_report.txt",
        "profiles.csv",
        "profiles_all_sessions.csv",
        "policies.csv",
        "speed_histogram.csv",
        "metrics.txt",
    },
    "online": {
        "cleaning_report.txt",
        "profiles.csv",
        "outcomes.csv",
        "metrics.txt",
    },
    "predict": {
        "cleaning_report.txt",
        "prediction_per_cp.csv",
        "prediction_report.txt",
    },
}
# energy totals: the acceptance suite's conservation tolerance
ENERGY_RTOL = 1e-6
# one profile slot against the independent accumulation, relative to the
# profile's peak; summation order alone moves a slot by about 1e-12 of it
SLOT_RTOL = 1e-9
# a number a report derives from other reported numbers
DERIVED_RTOL = 1e-9
# a result metric against the value recorded for the same fleet: loose
# enough for a change of summation order, far tighter than any change of the
# policies found
RESULT_RTOL = 1e-6


class CheckError(Exception):
    """The bundle disagrees with the inputs."""


def same_results(got: dict[str, float], recorded: dict[str, float]) -> None:
    """Raise CheckError unless the result metrics equal the recorded ones."""
    if set(got) != set(recorded) or not all(_approx(got[k], recorded[k], RESULT_RTOL) for k in got):
        raise CheckError(f"results {got} differ from the recorded {recorded}")


def bundle_digest(out_dir: str) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def daily_kwh(t0: np.ndarray, t1: np.ndarray, kw: np.ndarray) -> np.ndarray:
    """Energy per second of day of constant-power pieces [t0, t1) at kw kW,
    prorating fractional seconds and wrapping modulo the day.

    A vectorized restatement of the profile rules: head and tail fractions
    by bincount, whole-second runs by a difference array over two days
    (folded back onto one), whole days as a constant.
    """
    keep = (t1 > t0) & (kw != 0.0)
    t0, t1, rate = t0[keep], t1[keep], kw[keep] / 3600.0
    s0 = np.floor(t0).astype(np.int64)
    s1 = np.floor(t1).astype(np.int64)
    same = s0 == s1
    slots = np.zeros(DAY)
    slots += np.bincount(s0[same] % DAY, weights=rate[same] * (t1 - t0)[same], minlength=DAY)
    s0, s1, t0, t1, rate = s0[~same], s1[~same], t0[~same], t1[~same], rate[~same]
    slots += np.bincount(s0 % DAY, weights=rate * ((s0 + 1) - t0), minlength=DAY)
    slots += np.bincount(s1 % DAY, weights=rate * (t1 - s1), minlength=DAY)
    full_days, rem = np.divmod(s1 - (s0 + 1), DAY)
    slots += float(np.sum(rate * full_days))
    a = (s0 + 1) % DAY
    diff = np.bincount(a, weights=rate, minlength=2 * DAY + 1)
    diff -= np.bincount(a + rem, weights=rate, minlength=2 * DAY + 1)
    run = np.cumsum(diff)
    return slots + run[:DAY] + run[DAY : 2 * DAY]


def baseline_power(fleet: Fleet, select) -> tuple[np.ndarray, np.ndarray, float]:
    """Expected raw and oracle power (kW per second of day) and the target
    energy over select(sessions) of every charger."""
    t0, raw_t1, raw_kw, oracle_t1, oracle_kw = [], [], [], [], []
    target = 0.0
    for sessions in fleet.sessions.values():
        pmax = p_max_kw(sessions)
        for s in select(sessions):
            target += s.energy_kwh
            if s.energy_kwh <= 0:
                continue
            start = float(s.start)
            t0.append(start)
            raw_t1.append(start + min(s.energy_kwh / pmax * 3600.0, s.plugin_hours * 3600.0))
            raw_kw.append(pmax)
            oracle_t1.append(start + s.plugin_hours * 3600.0)
            oracle_kw.append(s.energy_kwh / s.plugin_hours)
    t0 = np.array(t0)
    raw = daily_kwh(t0, np.array(raw_t1), np.array(raw_kw)) * 3600.0
    oracle = daily_kwh(t0, np.array(oracle_t1), np.array(oracle_kw)) * 3600.0
    return raw, oracle, target


class Expectation:
    """What one mode's bundle must contain for one fleet; built once per
    fleet, because the baseline profiles cost as much as a small run."""

    def __init__(self, fleet: Fleet, mode: str, warmup: int = 100, train_fraction: float = 0.8):
        self.fleet = fleet
        self.mode = mode
        self.warmup = warmup
        self.train_fraction = train_fraction
        self.profiles = {}
        if mode == "offline":
            self.profiles["profiles.csv"] = baseline_power(
                fleet, lambda s: offline_test_split(s, train_fraction)
            )
            self.profiles["profiles_all_sessions.csv"] = baseline_power(fleet, lambda s: s)
        elif mode == "online":
            self.profiles["profiles.csv"] = baseline_power(fleet, lambda s: s)

    def check(self, out_dir: str) -> dict[str, float]:
        """Raise CheckError unless the bundle in out_dir matches the inputs;
        return the result metrics read from it."""
        names = set(os.listdir(out_dir))
        expected = EXPECTED_FILES[self.mode] | ({"parse_errors.csv"} if self.fleet.rejected_lines else set())
        if names != expected:
            raise CheckError(f"files {sorted(names)}; expected {sorted(expected)}")
        self._check_cleaning(out_dir)
        power = {name: self._check_profile(out_dir, name) for name in self.profiles}
        return getattr(self, f"_check_{self.mode}")(out_dir, power)

    # -- shared reports ----------------------------------------------------

    def _check_cleaning(self, out_dir: str) -> None:
        f = self.fleet
        text = _read(out_dir, "cleaning_report.txt")
        expected = {
            r"sessions in\s+: (\d+)": f.total_records,
            rf"plugin > {MAX_HOURS:g} h\s+: (\d+) ": f.removed_over_max_hours,
            r"overlapping within charger : (\d+) ": f.removed_overlapping,
            rf"< {MIN_SESSIONS} sessions left : (\d+) sessions": f.removed_small_cp_sessions,
            r"sessions on (\d+) chargers": f.removed_small_cp_points,
            r"retained sessions\s+: (\d+)": f.retained_sessions,
            r"retained charge points\s+: (\d+)": len(f.sessions),
        }
        for pattern, want in expected.items():
            got = _int_field(text, pattern, "cleaning_report.txt")
            if got != want:
                raise CheckError(f"cleaning_report.txt {pattern!r}: {got}, expected {want}")
        lines = []
        if f.rejected_lines:
            lines = [int(r[0]) for r in _csv_rows(out_dir, "parse_errors.csv", "line_number,reason")]
        if lines != f.rejected_lines:
            raise CheckError(
                f"parse_errors.csv rejects {len(lines)} lines; expected {len(f.rejected_lines)} "
                f"(first difference near {_first_diff(lines, f.rejected_lines)})"
            )

    def _check_profile(self, out_dir: str, name: str) -> np.ndarray:
        """Raw and oracle columns slot by slot against the independent
        accumulation; returns the (86400, 3) power columns."""
        data = _numeric_table(out_dir, name, "second_of_day,raw_kw,oracle_kw,rl_kw", 4)
        if data.shape[0] != DAY or not np.array_equal(data[:, 0], np.arange(DAY)):
            raise CheckError(f"{name}: expected {DAY} rows, one per second of day")
        raw, oracle, target = self.profiles[name]
        for col, (label, want) in enumerate((("raw", raw), ("oracle", oracle)), start=1):
            tol = SLOT_RTOL * float(np.max(np.abs(want)))
            worst = int(np.argmax(np.abs(data[:, col] - want)))
            got, expected = float(data[worst, col]), float(want[worst])
            if abs(got - expected) > tol:
                raise CheckError(f"{name}: {label} power at second {worst} is {got!r}, expected {expected!r}")
            total = float(data[:, col].sum()) / 3600.0
            if not _approx(total, target, ENERGY_RTOL):
                raise CheckError(f"{name}: {label} total {total!r} kWh, target {target!r}")
        return data[:, 1:]

    def _peak_reduction(self, out_dir: str, power: np.ndarray) -> float:
        """The rl peak reduction metrics.txt reports, after checking it
        against the reported profile."""
        m = re.search(r"peak reduction vs raw: rl (\S+)% \| oracle (\S+)%", _read(out_dir, "metrics.txt"))
        if not m:
            raise CheckError("metrics.txt: no peak reduction line")
        reported = float(m.group(1))
        raw_peak, rl_peak = float(power[:, 0].max()), float(power[:, 2].max())
        derived = 100.0 * (raw_peak - rl_peak) / raw_peak
        if not _approx(reported, derived, DERIVED_RTOL):
            raise CheckError(f"metrics.txt: rl peak reduction {reported!r}, profile gives {derived!r}")
        return reported

    def _check_rl_total(self, name: str, power: np.ndarray, target: float, deficit: float):
        total = float(power[:, 2].sum()) / 3600.0
        if not _approx(total, target - deficit, ENERGY_RTOL):
            raise CheckError(
                f"{name}: rl total {total!r} kWh, expected target - deficits = {target - deficit!r}"
            )

    # -- per mode ----------------------------------------------------------

    def _check_offline(self, out_dir: str, power: dict) -> dict[str, float]:
        rows = _csv_rows(out_dir, "policies.csv", "cp_id,t_boost_max_hours,p_rate,deficit_kwh,n_train,n_test")
        if [r[0] for r in rows] != list(self.fleet.sessions):
            raise CheckError(f"policies.csv has {len(rows)} chargers; expected {len(self.fleet.sessions)}")
        deficit = 0.0
        for r, sessions in zip(rows, self.fleet.sessions.values()):
            n_test = len(offline_test_split(sessions, self.train_fraction))
            if (int(r[4]), int(r[5])) != (len(sessions) - n_test, n_test):
                raise CheckError(f"policies.csv {r[0]}: split {r[4]}/{r[5]}, expected {len(sessions) - n_test}/{n_test}")
            t_boost, p_rate, d = float(r[1]), float(r[2]), float(r[3])
            if not (t_boost >= 0 and 0 <= p_rate <= 1 and d >= -1e-9):
                raise CheckError(f"policies.csv {r[0]}: invalid policy or deficit {r[1:4]}")
            deficit += d
        target = self.profiles["profiles.csv"][2]
        self._check_rl_total("profiles.csv", power["profiles.csv"], target, deficit)

        text = _read(out_dir, "metrics.txt")
        m = re.search(r"^rl  \S+  \d+  \S+  (\S+)  (\S+)  ", text, re.M)
        if not m:
            raise CheckError("metrics.txt: no rl strategy line")
        rl_deficit, deficit_pct = float(m.group(1)), float(m.group(2))
        if not _approx(rl_deficit, deficit, ENERGY_RTOL):
            raise CheckError(f"metrics.txt: rl deficit {rl_deficit!r}, policies.csv sums to {deficit!r}")
        if not _approx(deficit_pct, 100.0 * deficit / target, ENERGY_RTOL):
            raise CheckError(f"metrics.txt: rl deficit {deficit_pct!r}%, expected {100.0 * deficit / target!r}")
        return {
            "peak_reduction_pct": self._peak_reduction(out_dir, power["profiles.csv"]),
            "deficit_pct": deficit_pct,
        }

    def _check_online(self, out_dir: str, power: dict) -> dict[str, float]:
        rows = _csv_rows(out_dir, "outcomes.csv", None)
        expected = [(cp, i, s) for cp, ss in self.fleet.sessions.items() for i, s in enumerate(ss)]
        if len(rows) != len(expected):
            raise CheckError(f"outcomes.csv has {len(rows)} rows; expected one per session, {len(expected)}")
        target = loss = 0.0
        seen_energy = False
        for r, (cp, i, s) in zip(rows, expected):
            if i == 0:
                seen_energy = False
            want_mode = "adaptive" if i >= self.warmup and seen_energy else "raw"
            seen_energy = seen_energy or s.energy_kwh > 0
            got = (r[0], int(r[1]), int(r[2]), int(r[3]), float(r[4]), float(r[5]), r[6])
            want = (cp, i, s.event_id, s.start, s.plugin_hours, s.energy_kwh, want_mode)
            if got != want:
                raise CheckError(f"outcomes.csv row {got} expected {want}")
            e_total, e_loss = float(r[11]), float(r[12])
            if not (-1e-9 <= e_loss <= s.energy_kwh + 1e-9 and _approx(e_total + e_loss, s.energy_kwh, DERIVED_RTOL)):
                raise CheckError(f"outcomes.csv {cp}#{i}: delivered {e_total!r} + loss {e_loss!r} != {s.energy_kwh!r}")
            target += s.energy_kwh
            loss += e_loss
        self._check_rl_total("profiles.csv", power["profiles.csv"], target, loss)
        return {
            "peak_reduction_pct": self._peak_reduction(out_dir, power["profiles.csv"]),
            "deficit_pct": 100.0 * loss / target,
        }

    def _check_predict(self, out_dir: str, power: dict) -> dict[str, float]:
        rows = _csv_rows(
            out_dir,
            "prediction_per_cp.csv",
            "cp_id,n_rows,mae_with_energy,mape_with_energy,mse_with_energy,"
            "mae_without_energy,mape_without_energy,mse_without_energy",
        )
        want = [(cp, len(ss) - 1) for cp, ss in self.fleet.sessions.items()]
        if [(r[0], int(r[1])) for r in rows] != want:
            raise CheckError(f"prediction_per_cp.csv has {len(rows)} rows; expected one per charger, {len(want)}")
        values = np.array([[float(v) for v in r[2:]] for r in rows])
        if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
            raise CheckError("prediction_per_cp.csv: non-finite or negative error")
        text = _read(out_dir, "prediction_report.txt")
        if _int_field(text, r"charge points evaluated : (\d+)", "prediction_report.txt") != len(want):
            raise CheckError("prediction_report.txt: evaluated count differs from the charger count")
        m = re.search(r"^with energy\s+(\S+)  ", text, re.M)
        if not m:
            raise CheckError("prediction_report.txt: no pooled with-energy line")
        mae = float(m.group(1))
        if not _approx(mae, float(values[:, 0].mean()), DERIVED_RTOL):
            raise CheckError(f"prediction_report.txt: pooled MAE {mae!r}, per-charger mean {values[:, 0].mean()!r}")
        return {"mae_h": mae}


def _approx(a: float, b: float, rtol: float, atol: float = 1e-9) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name)) as fh:
        return fh.read()


def _csv_rows(out_dir: str, name: str, header: str | None) -> list[list[str]]:
    lines = _read(out_dir, name).splitlines()
    if not lines or (header is not None and lines[0] != header):
        raise CheckError(f"{name}: unexpected header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _numeric_table(out_dir: str, name: str, header: str, n_cols: int) -> np.ndarray:
    with open(os.path.join(out_dir, name)) as fh:
        if fh.readline().rstrip("\n") != header:
            raise CheckError(f"{name}: unexpected header")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckError(f"{name}: {exc}") from None
    if data.shape[1] != n_cols:
        raise CheckError(f"{name}: expected {n_cols} columns")
    return data


def _int_field(text: str, pattern: str, name: str) -> int:
    m = re.search(pattern, text)
    if not m:
        raise CheckError(f"{name}: no match for {pattern!r}")
    return int(m.group(1))


def _first_diff(a: list, b: list):
    for x, y in zip(a, b):
        if x != y:
            return (x, y)
    return None
