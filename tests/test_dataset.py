"""Parsing, cleaning and max-power derivation."""

import io
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartcharge.dataset import (
    CleaningReport,
    clean_sessions,
    derive_p_max,
    parse_sessions,
)

from conftest import BASE_EPOCH, CSV_HEADER, EPOCH, Row, make_session, rows, table

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
        s = rows(sessions)[0]
        assert s.event_id == 3177742
        assert s.cp_id == "AN21771"
        assert s.energy_kwh == 8.8
        assert s.plugin_hours == 18.35
        # crosses into the next calendar day
        assert (EPOCH + timedelta(seconds=s.end)).date().isoformat() == "2018-01-01"
        assert (EPOCH + timedelta(seconds=s.start)).date().isoformat() == "2017-12-31"

    def test_short_session(self):
        sessions, _ = parse_text(SAMPLE)
        s = rows(sessions)[1]
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
        assert sessions.event_id.tolist() == [8]
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
        assert sessions.plugin_hours.tolist() == [2.0]  # Duration column wins


class TestClean:
    def test_over_48h_removed(self):
        sessions = [make_session(plugin_hours=50.0, event_id=1)] + [
            make_session(start=BASE_EPOCH + i * 90000, event_id=10 + i)
            for i in range(10)
        ]
        cps, report = clean_sessions(table(sessions), min_sessions=1)
        assert report.removed_over_max_hours == 1
        assert report.retained_sessions == 10
        assert all(s.plugin_hours <= 48 for cp in cps for s in rows(cp.sessions))

    def test_overlap_keeps_earliest(self):
        a = make_session(start=BASE_EPOCH + 10 * 3600, plugin_hours=2.0, event_id=1)
        b = make_session(start=BASE_EPOCH + 11 * 3600, plugin_hours=2.0, event_id=2)
        cps, report = clean_sessions(table([b, a]), min_sessions=1)
        assert report.removed_overlapping == 1
        kept = rows(cps[0].sessions)
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
        cps, report = clean_sessions(table(sessions), min_sessions=1, max_hours=1e9)
        kept = rows(cps[0].sessions)
        assert [s.event_id for s in kept] == [s.event_id for s in expected]
        for x in kept:
            for y in kept:
                if x is not y:
                    assert x.end <= y.start or y.end <= x.start
        assert report.removed_overlapping == len(sessions) - len(kept)

    def test_ties_kept_in_input_order(self):
        # two groups of equal (start, event_id), interleaved: each keeps its
        # first session in input order, and the rest overlap it
        sessions = [
            make_session(start=BASE_EPOCH + k % 2 * 20 * 3600, energy_kwh=float(k))
            for k in range(100)
        ]
        cps, report = clean_sessions(table(sessions), min_sessions=1)
        assert rows(cps[0].sessions) == [sessions[0], sessions[1]]
        assert report.removed_overlapping == 98

    def test_touching_sessions_not_overlapping(self):
        a = make_session(start=BASE_EPOCH, plugin_hours=2.0, event_id=1)
        b = make_session(start=a.end, plugin_hours=2.0, event_id=2)
        _, report = clean_sessions(table([a, b]), min_sessions=1)
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
        cps, report = clean_sessions(table(small + big), min_sessions=10)
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
        _, report = clean_sessions(table(sessions))
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
        cps, _ = clean_sessions(table(sessions), min_sessions=1)
        for cp in cps:
            for s in rows(cp.sessions):
                assert s.energy_kwh / s.plugin_hours <= cp.p_max_kw * (1 + 1e-9)


class TestPMax:
    def test_max_of_ratios(self):
        sessions = [
            make_session(plugin_hours=1.0, energy_kwh=7.0, event_id=1),
            make_session(
                start=BASE_EPOCH + 90000, plugin_hours=2.0, energy_kwh=3.0, event_id=2
            ),
        ]
        assert derive_p_max(table(sessions)) == 7.0

    def test_zero_energy_cp_unusable(self):
        sessions = table([make_session(plugin_hours=5.0, energy_kwh=0.0)])
        assert derive_p_max(sessions) == 0.0
        cps, _ = clean_sessions(sessions, min_sessions=1)
        assert not cps[0].usable

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            derive_p_max(table([]))


class TestPMaxPercentile:
    def test_cap_below_max(self):
        sessions = table([
            make_session(
                start=BASE_EPOCH + i * 90000,
                plugin_hours=1.0,
                energy_kwh=float(i + 1),
                event_id=i,
            )
            for i in range(10)
        ])
        assert derive_p_max(sessions) == 10.0
        capped = derive_p_max(sessions, percentile=50.0)
        assert capped == 5.5  # median of 1..10
        assert capped < derive_p_max(sessions, percentile=100.0)

    def test_percentile_100_equals_max(self):
        sessions = table([
            make_session(
                start=BASE_EPOCH + i * 90000,
                plugin_hours=2.0,
                energy_kwh=float(i),
                event_id=i,
            )
            for i in range(5)
        ])
        assert derive_p_max(sessions, percentile=100.0) == derive_p_max(sessions)

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            derive_p_max(table([make_session()]), percentile=0.0)

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
        cps, _ = clean_sessions(table(sessions), min_sessions=1, p_max_percentile=50.0)
        assert cps[0].p_max_kw == 5.5


class TestParseColumns:
    def test_negative_zero_energy_stored_as_zero(self):
        row = "1,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,-0.0,2.0"
        sessions, errors = parse_text(CSV_HEADER + "\n" + row + "\n")
        assert not errors
        assert repr(sessions.energy_kwh.tolist()) == "[0.0]"

    def test_event_id_beyond_int64_rejected(self):
        times = "CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        rows = [CSV_HEADER] + [
            f"{event_id},{times}" for event_id in (2**63, 2**63 - 1, -(2**63), -(2**63) - 1)
        ]
        sessions, errors = parse_text("\n".join(rows) + "\n")
        assert sessions.event_id.tolist() == [2**63 - 1, -(2**63)]
        assert [(e.line_number, e.reason) for e in errors] == [
            (2, f"bad EventID '{2**63}'"),
            (5, f"bad EventID '{-(2**63) - 1}'"),
        ]

    def test_bad_cp_id_rejected(self):
        # an empty id, or one the unquoted report CSVs cannot hold as one field
        times = "01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        rows = [
            CSV_HEADER,
            f"1,,{times}",
            f"2,  ,{times}",
            f'3,"AN,1",{times}',
            f'4,"AN""1",{times}',
            f'5,"AN\r1",{times}',
            f"6,AN 1,{times}",
            f'7,"AN\n1",{times}',
        ]
        sessions, errors = parse_text("\n".join(rows) + "\n")
        assert sessions.cp_id.tolist() == ["AN 1"]
        assert [(e.line_number, e.reason) for e in errors] == [
            (2, "bad CPID ''"),
            (3, "bad CPID ''"),
            (4, "bad CPID 'AN,1'"),
            (5, "bad CPID 'AN\"1'"),
            (6, "bad CPID 'AN\\r1'"),
            (8, "bad CPID 'AN\\n1'"),
        ]

    def test_line_numbers_count_lines_not_records(self):
        # the first row's quoted CPID spans lines 2-3
        times = "01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        rows = [CSV_HEADER, f'1,"AN\n1",{times}', f"bad,AN2,{times}"]
        _, errors = parse_text("\n".join(rows) + "\n")
        assert [(e.line_number, e.reason) for e in errors] == [
            (2, "bad CPID 'AN\\n1'"),
            (4, "bad EventID 'bad'"),
        ]

    def test_each_cp_id_stored_once(self):
        sessions, _ = parse_text(SAMPLE + SAMPLE.split("\n", 1)[1])
        ids = sessions.cp_id.tolist()
        assert ids == ["AN21771", "AN04715", "AN04849"] * 2
        assert all(a is b for a, b in zip(ids[:3], ids[3:]))


# ---------------------------------------------------------------------------
# Reference: cleaning over per-session objects, as it was before sessions
# became columns (dict grouping, then a sorted overlap scan per charger).
# The column code must reproduce it exactly.


def reference_derive_p_max(cp_sessions, percentile=None):
    rates = []
    for s in cp_sessions:
        if s.plugin_hours <= 0:
            raise ValueError(f"session {s.event_id} has non-positive plugin_hours")
        rates.append(s.energy_kwh / s.plugin_hours)
    if not rates:
        raise ValueError("cannot derive p_max from an empty session list")
    if percentile is None:
        return max(rates)
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    return float(np.percentile(rates, percentile))


def reference_drop_overlaps(sessions):
    kept = []
    dropped = 0
    for s in sorted(sessions, key=lambda s: (s.start, s.event_id)):
        if kept and s.start < kept[-1].end:
            dropped += 1
            continue
        kept.append(s)
    return kept, dropped


def reference_clean_sessions(
    sessions, min_sessions=10, max_hours=48.0, p_max_percentile=None
):
    sessions = list(sessions)
    report = CleaningReport(
        total_records=len(sessions), max_hours=max_hours, min_sessions=min_sessions
    )

    by_cp = {}
    for s in sessions:
        if s.plugin_hours > max_hours:
            report.removed_over_max_hours += 1
            continue
        by_cp.setdefault(s.cp_id, []).append(s)

    charge_points = []
    for cp_id in sorted(by_cp):
        kept, dropped = reference_drop_overlaps(by_cp[cp_id])
        report.removed_overlapping += dropped
        if len(kept) < min_sessions:
            report.removed_small_cp_points += 1
            report.removed_small_cp_sessions += len(kept)
            continue
        charge_points.append(
            (cp_id, reference_derive_p_max(kept, p_max_percentile), kept)
        )
        report.retained_sessions += len(kept)

    report.retained_charge_points = len(charge_points)
    return charge_points, report


# a few ids that sort differently by case, length and code point; starts on a
# coarse grid and few event ids, so equal starts, duplicate ids and overlaps
# are common, and durations on the same grid make sessions that touch; some
# sessions run past the smaller max_hours
session_rows = st.lists(
    st.builds(
        Row,
        event_id=st.integers(0, 4),
        cp_id=st.sampled_from(["A", "a", "B", "AB", "A0", "é", "Z"]),
        start=st.integers(0, 40).map(lambda k: k * 1800),
        # a duration, added to start below
        end=st.one_of(st.integers(1, 30 * 3600), st.integers(1, 20).map(lambda k: k * 1800)),
        energy_kwh=st.one_of(st.just(0.0), st.floats(0.0, 80.0)),
        plugin_hours=st.one_of(st.floats(0.01, 60.0), st.sampled_from([10.0, 48.0])),
    ).map(lambda r: r._replace(end=r.start + r.end)),
    max_size=60,
)


class TestCleanAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        session_rows,
        st.integers(1, 4),
        st.sampled_from([10.0, 48.0]),
        st.one_of(st.none(), st.floats(1.0, 100.0)),
    )
    def test_same_chargers_sessions_and_counts(self, rows_in, min_sessions, max_hours, pct):
        cps, report = clean_sessions(table(rows_in), min_sessions, max_hours, pct)
        ref_cps, ref_report = reference_clean_sessions(rows_in, min_sessions, max_hours, pct)
        # compared by repr, item by item (a failing comparison of two long
        # strings costs pytest a character diff)
        got = [(cp.cp_id, repr(cp.p_max_kw), list(map(repr, rows(cp.sessions)))) for cp in cps]
        want = [(cp_id, repr(p), list(map(repr, kept))) for cp_id, p, kept in ref_cps]
        assert got == want
        assert repr(report) == repr(ref_report)
