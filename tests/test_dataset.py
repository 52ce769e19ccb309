"""Parsing, cleaning and max-power derivation."""

import io
from datetime import timedelta

import numpy as np
import pytest

from smartcharge.dataset import (
    clean_sessions,
    derive_p_max,
    parse_sessions,
)

from conftest import BASE_EPOCH, CSV_HEADER, EPOCH, make_session

SAMPLE = """EventID,CPID,StartDate,StartTime,EndDate,EndTime,Energy,Duration
3177742,AN21771,31/12/2017,23:59:23,01/01/2018,18:20:23,8.8,18.35
16679268,AN04715,31/12/2017,23:59:00,01/01/2018,00:03:00,10.2,0.066
16678965,AN04849,31/12/2017,23:59:00,01/01/2018,13:40:00,6.2,13.68
"""


def parse_text(text):
    return parse_sessions(io.StringIO(text))


class TestParse:
    def test_sample_rows(self):
        sessions, errors = parse_text(SAMPLE)
        assert not errors
        assert len(sessions) == 3
        s = sessions[0]
        assert s.event_id == 3177742
        assert s.cp_id == "AN21771"
        assert s.energy_kwh == 8.8
        assert s.plugin_hours == 18.35
        # crosses into the next calendar day
        assert (EPOCH + timedelta(seconds=s.end)).date().isoformat() == "2018-01-01"
        assert (EPOCH + timedelta(seconds=s.start)).date().isoformat() == "2017-12-31"

    def test_short_session(self):
        sessions, _ = parse_text(SAMPLE)
        s = sessions[1]
        assert s.plugin_hours == 0.066
        assert s.energy_kwh == 10.2
        assert s.end - s.start == 240

    def test_degenerate_interval_rejected(self):
        row = "1,CP1,01/06/2017,10:00:00,01/06/2017,10:00:00,5.0,0.0"
        sessions, errors = parse_text(CSV_HEADER + "\n" + row + "\n")
        assert not sessions
        assert len(errors) == 1
        assert "not after start" in errors[0].reason

    def test_missing_header_fatal(self):
        with pytest.raises(ValueError):
            parse_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_text("")

    def test_malformed_rows_collected(self):
        rows = [
            CSV_HEADER,
            "notanint,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0",
            "2,CP1,31/13/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0",
            "3,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,-5.0,2.0",
            "4,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,abc,2.0",
            "5,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0",
            "6,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,9.0",
            "7,CP1,01/06/2017,12:00:00,01/06/2017,10:00:00,5.0,2.0",
            "8,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0",
        ]
        sessions, errors = parse_text("\n".join(rows) + "\n")
        assert len(sessions) == 1 and sessions[0].event_id == 8
        assert len(errors) == 7
        reasons = "\n".join(e.reason for e in errors)
        assert "bad EventID" in reasons
        assert "bad date/time" in reasons
        assert "negative energy" in reasons
        assert "disagrees" in reasons

    def test_duration_within_tolerance_kept(self):
        # 2h01m against a 2.0 Duration column: 0.0167 h gap, inside 0.02
        row = "1,CP1,01/06/2017,10:00:00,01/06/2017,12:01:00,5.0,2.0"
        sessions, errors = parse_text(CSV_HEADER + "\n" + row + "\n")
        assert len(sessions) == 1 and not errors
        assert sessions[0].plugin_hours == 2.0  # Duration column wins


class TestClean:
    def test_over_48h_removed(self):
        sessions = [make_session(plugin_hours=50.0, event_id=1)] + [
            make_session(start=BASE_EPOCH + i * 90000, event_id=10 + i)
            for i in range(10)
        ]
        cps, report = clean_sessions(sessions, min_sessions=1)
        assert report.removed_over_max_hours == 1
        assert report.retained_sessions == 10
        assert all(s.plugin_hours <= 48 for cp in cps for s in cp.sessions)

    def test_overlap_keeps_earliest(self):
        a = make_session(start=BASE_EPOCH + 10 * 3600, plugin_hours=2.0, event_id=1)
        b = make_session(start=BASE_EPOCH + 11 * 3600, plugin_hours=2.0, event_id=2)
        cps, report = clean_sessions([b, a], min_sessions=1)
        assert report.removed_overlapping == 1
        kept = cps[0].sessions
        assert [s.event_id for s in kept] == [1]

    def test_overlap_against_brute_force_oracle(self):
        # oracle: iterate in (start, event_id) order keeping a session iff it
        # does not overlap the latest kept; assert identical survivors and,
        # independently, that no kept pair overlaps
        rng = np.random.default_rng(42)
        sessions = []
        t = BASE_EPOCH
        for i in range(200):
            t += int(rng.integers(-3600, 4 * 3600))
            sessions.append(
                make_session(
                    start=t,
                    plugin_hours=float(rng.uniform(0.5, 3.0)),
                    event_id=i,
                )
            )
        expected = []
        for s in sorted(sessions, key=lambda s: (s.start, s.event_id)):
            if not expected or s.start >= expected[-1].end:
                expected.append(s)
        cps, report = clean_sessions(sessions, min_sessions=1, max_hours=1e9)
        kept = cps[0].sessions
        assert [s.event_id for s in kept] == [s.event_id for s in expected]
        for x in kept:
            for y in kept:
                if x is not y:
                    assert x.end <= y.start or y.end <= x.start
        assert report.removed_overlapping == len(sessions) - len(kept)

    def test_touching_sessions_not_overlapping(self):
        a = make_session(start=BASE_EPOCH, plugin_hours=2.0, event_id=1)
        b = make_session(start=a.end, plugin_hours=2.0, event_id=2)
        _, report = clean_sessions([a, b], min_sessions=1)
        assert report.removed_overlapping == 0
        assert report.retained_sessions == 2

    def test_small_cp_dropped(self):
        small = [
            make_session(cp_id="SMALL", start=BASE_EPOCH + i * 90000, event_id=i)
            for i in range(9)
        ]
        big = [
            make_session(cp_id="BIG", start=BASE_EPOCH + i * 90000, event_id=100 + i)
            for i in range(10)
        ]
        cps, report = clean_sessions(small + big, min_sessions=10)
        assert [cp.cp_id for cp in cps] == ["BIG"]
        assert report.removed_small_cp_points == 1
        assert report.removed_small_cp_sessions == 9

    def test_report_counts_sum(self):
        rng = np.random.default_rng(7)
        sessions = []
        for c in range(8):
            t = BASE_EPOCH + int(rng.integers(0, 86400))
            for i in range(int(rng.integers(3, 25))):
                plugin = float(rng.uniform(0.5, 60.0))
                sessions.append(
                    make_session(
                        cp_id=f"C{c}",
                        start=t,
                        plugin_hours=plugin,
                        event_id=len(sessions),
                    )
                )
                t += int(rng.integers(-2 * 3600, 30 * 3600))
        _, report = clean_sessions(sessions)
        assert (
            report.retained_sessions + report.removed_total() == report.total_records
        )
        assert report.total_records == len(sessions)

    def test_sessions_within_p_max(self):
        rng = np.random.default_rng(3)
        sessions = [
            make_session(
                start=BASE_EPOCH + i * 100000,
                plugin_hours=float(rng.uniform(0.5, 20.0)),
                energy_kwh=float(rng.uniform(0.0, 80.0)),
                event_id=i,
            )
            for i in range(30)
        ]
        cps, _ = clean_sessions(sessions, min_sessions=1)
        for cp in cps:
            for s in cp.sessions:
                assert s.energy_kwh / s.plugin_hours <= cp.p_max_kw * (1 + 1e-9)


class TestPMax:
    def test_max_of_ratios(self):
        sessions = [
            make_session(plugin_hours=1.0, energy_kwh=7.0, event_id=1),
            make_session(
                start=BASE_EPOCH + 90000, plugin_hours=2.0, energy_kwh=3.0, event_id=2
            ),
        ]
        assert derive_p_max(sessions) == 7.0

    def test_zero_energy_cp_unusable(self):
        sessions = [make_session(plugin_hours=5.0, energy_kwh=0.0)]
        assert derive_p_max(sessions) == 0.0
        cps, _ = clean_sessions(sessions, min_sessions=1)
        assert not cps[0].usable

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            derive_p_max([])


class TestPMaxPercentile:
    def test_cap_below_max(self):
        sessions = [
            make_session(
                start=BASE_EPOCH + i * 90000,
                plugin_hours=1.0,
                energy_kwh=float(i + 1),
                event_id=i,
            )
            for i in range(10)
        ]
        assert derive_p_max(sessions) == 10.0
        capped = derive_p_max(sessions, percentile=50.0)
        assert capped == 5.5  # median of 1..10
        assert capped < derive_p_max(sessions, percentile=100.0)

    def test_percentile_100_equals_max(self):
        sessions = [
            make_session(
                start=BASE_EPOCH + i * 90000,
                plugin_hours=2.0,
                energy_kwh=float(i),
                event_id=i,
            )
            for i in range(5)
        ]
        assert derive_p_max(sessions, percentile=100.0) == derive_p_max(sessions)

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            derive_p_max([make_session()], percentile=0.0)

    def test_threaded_through_cleaning(self):
        sessions = [
            make_session(
                start=BASE_EPOCH + i * 90000,
                plugin_hours=1.0,
                energy_kwh=float(i + 1),
                event_id=i,
            )
            for i in range(10)
        ]
        cps, _ = clean_sessions(sessions, min_sessions=1, p_max_percentile=50.0)
        assert cps[0].p_max_kw == 5.5
