"""Parsing, cleaning and max-power derivation."""

import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import weakref
from array import array
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartcharge import dataset
from smartcharge.dataset import (
    DURATION_TOLERANCE_HOURS,
    EXPECTED_HEADER,
    CleaningReport,
    Sessions,
    _clock,
    _clock_seconds,
    _epoch_day,
    clean_sessions,
    derive_p_max,
    parse_sessions,
    parse_sessions_path,
)

from conftest import (
    BASE_EPOCH, CSV_HEADER, EPOCH, Row, cp_ids, make_session, rows, synth_fleet_csv, table,
)

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
            "",  # a blank record is skipped, not rejected
            "9,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,nan,2.0",
            "10,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,-2.0",
            "8,CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0",
        ]
        sessions, errors = parse_text("\n".join(rows) + "\n")
        assert sessions.event_id.tolist() == [8]
        # each rejection keeps its physical line number past the blank line
        assert [e.line_number for e in errors] == [2, 3, 4, 5, 6, 7, 8, 10, 11]
        reasons = "\n".join(e.reason for e in errors)
        assert "bad EventID" in reasons
        assert "bad date/time" in reasons
        assert "negative energy" in reasons
        assert "disagrees" in reasons
        assert "non-finite Energy/Duration" in reasons
        assert "non-positive duration -2.0" in reasons

    def test_unreadable_csv_is_value_error(self):
        # row 2 opens a quote that is never closed: its field runs past the
        # csv module's field size limit
        rows = [CSV_HEADER, '1,"AN1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0']
        rows += [f"{i},AN1,01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0" for i in range(3000)]
        with pytest.raises(ValueError, match="^unreadable CSV in lines 2-"):
            parse_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("chunk", [1, 3, 128])
    @pytest.mark.parametrize("end", ["\n", ""])
    @pytest.mark.parametrize("opened", [5, 8])
    def test_quote_open_at_the_end_is_value_error(self, chunk, end, opened):
        # the quote opened in line `opened` takes in every later line; the
        # error names the lines of that record, from where it starts
        times = "01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        rows = [CSV_HEADER] + [f"{i},AN1,{times}" for i in range(7)]
        rows[opened - 1] = f'9,"AN1,{times}'
        with mock.patch.object(dataset, "_CHUNK_RECORDS", chunk):
            with pytest.raises(ValueError) as caught:
                parse_text("\n".join(rows) + end)
        assert str(caught.value) == f"unreadable CSV in lines {opened}-8: a quote is never closed"

    @pytest.mark.parametrize("chunk", [1, 3, 128])
    @pytest.mark.parametrize("end", ["\n", ""])
    def test_closed_quotes_at_the_end_still_parse(self, chunk, end):
        # a quoted field holding a line break is one field, and text after
        # a closing quote joins the field, also in the input's last record
        times = "01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        rows = [CSV_HEADER, f'1,"AN1"x,{times}', f'2,"AN\n2",{times}', f'3,"AN3"x,{times}']
        with mock.patch.object(dataset, "_CHUNK_RECORDS", chunk):
            sessions, errors = parse_text("\n".join(rows) + end)
        assert cp_ids(sessions) == ["AN1x", "AN3x"]
        assert [(e.line_number, e.reason) for e in errors] == [
            (3, "bad CPID 'AN\\n2' (record spans lines 3-4)")
        ]
        sessions, errors = parse_text("\n".join(rows[:3]) + end)
        assert cp_ids(sessions) == ["AN1x"] and len(errors) == 1

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
        assert cp_ids(sessions) == ["AN 1"]
        assert [(e.line_number, e.reason) for e in errors] == [
            (2, "bad CPID ''"),
            (3, "bad CPID ''"),
            (4, "bad CPID 'AN,1'"),
            (5, "bad CPID 'AN\"1'"),
            (6, "bad CPID 'AN\\r1'"),
            (8, "bad CPID 'AN\\n1' (record spans lines 8-9)"),
        ]

    def test_line_numbers_count_lines_not_records(self):
        # the first row's quoted CPID spans lines 2-3
        times = "01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        rows = [CSV_HEADER, f'1,"AN\n1",{times}', f"bad,AN2,{times}"]
        _, errors = parse_text("\n".join(rows) + "\n")
        assert [(e.line_number, e.reason) for e in errors] == [
            (2, "bad CPID 'AN\\n1' (record spans lines 2-3)"),
            (4, "bad EventID 'bad'"),
        ]

    @pytest.mark.parametrize("chunk", [7, 128])
    def test_a_record_that_swallows_lines_names_them(self, chunk):
        # a quote opened at the start of the CPID field of line 403 runs to
        # the quote opened at the start of line 900's: one record of 498
        # lines, numbered by its first line
        lines = synth_fleet_csv(6, 400, 1).split("\n")
        for number in (403, 900):
            evt, rest = lines[number - 1].split(",", 1)
            lines[number - 1] = f'{evt},"{rest}'
        with mock.patch.object(dataset, "_CHUNK_RECORDS", chunk):
            sessions, errors = parse_text("\n".join(lines))
        assert len(sessions) == 2400 - 498
        ((line, reason),) = [(e.line_number, e.reason) for e in errors]
        assert line == 403
        assert reason.startswith("bad CPID 'CP001,") and reason.endswith(" (record spans lines 403-900)")

    def test_each_cp_id_stored_once(self):
        sessions, _ = parse_text(SAMPLE + SAMPLE.split("\n", 1)[1])
        assert sorted(sessions.cp_ids) == ["AN04715", "AN04849", "AN21771"]
        assert cp_ids(sessions) == ["AN21771", "AN04715", "AN04849"] * 2

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet exports start the file with one; ids may be non-ASCII
        text = SAMPLE.replace("AN04715", "ANé0003") + "1,CP1,bad,row\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        (a, a_errors), (b, b_errors) = map(parse_sessions_path, (plain, marked))
        assert rows(a) == rows(b)
        assert rows(a)[1].cp_id == "ANé0003"
        assert a_errors == b_errors and len(a_errors) == 1

    def test_date_too_large_for_a_calendar_rejected(self):
        row = "1,CP1,01/06/99999999999999999999,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        sessions, errors = parse_text(CSV_HEADER + "\n" + row + "\n")
        assert not sessions
        assert [e.reason.split(" ")[:2] for e in errors] == [["bad", "date/time"]]


def parse_instant_reference(date_text, time_text):
    """DD/MM/YYYY + HH:MM:SS -> naive epoch seconds, by the datetime
    formula: the reference for the parse's day and clock reads."""
    day, month, year = date_text.split("/")
    hh, mm, ss = time_text.split(":")
    dt = datetime(int(year), int(month), int(day), int(hh), int(mm), int(ss))
    return int((dt - EPOCH).total_seconds())


def instant_or_rejected(parse, date_text, time_text):
    try:
        return parse(date_text, time_text)
    except (ValueError, OverflowError):
        return "rejected"


_number_text = st.one_of(
    st.integers(-3, 10_000).map(str),
    st.sampled_from(["", "x", "1.5", " 7", "+3", "007", "1_0", "99999999999999999999"]),
)
_date_texts = st.one_of(
    st.dates().map(lambda d: f"{d.day:02d}/{d.month:02d}/{d.year:04d}"),
    st.tuples(_number_text, _number_text, _number_text).map("/".join),
    st.text("0123456789/", max_size=12),
)
_time_texts = st.one_of(
    st.times().map(lambda t: t.strftime("%H:%M:%S")),
    st.tuples(_number_text, _number_text, _number_text).map(":".join),
    st.text("0123456789:", max_size=10),
)


@settings(max_examples=500, deadline=None)
@given(date_text=_date_texts, time_text=_time_texts)
@example(date_text="29/02/2017", time_text="10:00:00")
@example(date_text="29/02/2016", time_text="23:59:59")
@example(date_text="01/06/2017", time_text="24:00:00")
@example(date_text="01/06/2017", time_text="12:60:00")
@example(date_text="01/06/2017", time_text="12:00:60")
def test_parse_instant_matches_datetime_formula(date_text, time_text):
    def instant(d, t):
        return _epoch_day(d) * 86400 + _clock(t)

    got = instant_or_rejected(instant, date_text, time_text)
    assert got == instant_or_rejected(parse_instant_reference, date_text, time_text)


def test_clock_seconds_reads_every_second_of_the_day():
    texts = [f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}" for t in range(86400)]
    seconds, ok = _clock_seconds(texts)
    assert ok.all()
    assert seconds.tolist() == list(map(_clock, texts)) == list(range(86400))


@pytest.mark.parametrize("missed", ["1:2:3", " 10:00:00", "+1:00:00", "١٠:00:00", "9:59:59"])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_clock_seconds_reads_a_missed_text_with_clock(missed, where):
    # one text misses the two-digit pattern; _clock reads each alike
    texts = ["00:00:00", "23:59:59", "09:05:07", "12:00:00", "00:00:59", "01:00:00", "19:30:00"]
    texts[where] = missed
    seconds, ok = _clock_seconds(texts)
    assert ok.all()
    assert seconds.tolist() == list(map(_clock, texts))


# ---------------------------------------------------------------------------
# Reference: the parse as one loop over records, as it was before the parse
# went by chunks, kept word for word but for its rejections, which are
# (line number, reason) pairs, and its instants, which parse_instant_reference
# reads.  The chunked parse must reproduce it exactly.

_CSV_SPECIALS = frozenset(',"\r\n')


def reference_parse_sessions(stream):
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty input: expected header row") from None
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise ValueError(
            f"unexpected header {header!r}; expected {','.join(EXPECTED_HEADER)}"
        )

    # accepted rows, appended to compact columns; a row's charger is the
    # position of its id in cp_codes, so each id string is stored once
    event_ids, starts, ends = array("q"), array("q"), array("q")
    energies, plugins, cps = array("d"), array("d"), array("i")
    cp_codes: dict[str, int] = {}
    errors = []

    def reject(line_number: int, reason: str, row: list[str]) -> None:
        # a record that spans lines is named by them
        if reader.line_num > line_number:
            reason += f" (record spans lines {line_number}-{reader.line_num})"
        errors.append((line_number, reason))

    next_line = reader.line_num + 1
    for row in reader:
        # the record's first line: a quoted field may hold line breaks
        line_number, next_line = next_line, reader.line_num + 1
        if not row:
            continue
        if len(row) != 8:
            reject(line_number, f"expected 8 fields, got {len(row)}", row)
            continue
        evt, cp_id, sd, st, ed, et, energy_text, duration_text = (
            f.strip() for f in row
        )
        try:
            event_id = int(evt)
            if not -(2**63) <= event_id < 2**63:  # does not fit the int64 column
                raise ValueError
        except ValueError:
            reject(line_number, f"bad EventID {evt!r}", row)
            continue
        # the reports write ids unquoted, one CSV field each
        if not cp_id or not _CSV_SPECIALS.isdisjoint(cp_id):
            reject(line_number, f"bad CPID {cp_id!r}", row)
            continue
        try:
            start = parse_instant_reference(sd, st)
            end = parse_instant_reference(ed, et)
        except (ValueError, OverflowError):
            reject(line_number, f"bad date/time {sd!r} {st!r} / {ed!r} {et!r}", row)
            continue
        try:
            energy_kwh = float(energy_text)
            plugin_hours = float(duration_text)
        except ValueError:
            reject(line_number, f"bad Energy/Duration {energy_text!r}/{duration_text!r}", row)
            continue
        if not (math.isfinite(energy_kwh) and math.isfinite(plugin_hours)):
            reject(line_number, "non-finite Energy/Duration", row)
            continue
        if energy_kwh < 0:
            reject(line_number, f"negative energy {energy_kwh}", row)
            continue
        if end <= start:
            reject(line_number, "end instant not after start", row)
            continue
        if plugin_hours <= 0:
            reject(line_number, f"non-positive duration {plugin_hours}", row)
            continue
        if abs(plugin_hours - (end - start) / 3600.0) > DURATION_TOLERANCE_HOURS:
            reject(
                line_number,
                f"Duration {plugin_hours} disagrees with end-start "
                f"{(end - start) / 3600.0:.4f} h",
                row,
            )
            continue
        event_ids.append(event_id)
        cps.append(cp_codes.setdefault(cp_id, len(cp_codes)))
        starts.append(start)
        ends.append(end)
        # -0.0 passes the sign check; + 0.0 stores it as 0.0
        energies.append(energy_kwh + 0.0)
        plugins.append(plugin_hours)
    sessions = Sessions(
        event_id=np.frombuffer(event_ids, dtype=np.int64),
        cp_code=np.frombuffer(cps, dtype=np.intc),
        start=np.frombuffer(starts, dtype=np.int64),
        end=np.frombuffer(ends, dtype=np.int64),
        energy_kwh=np.frombuffer(energies, dtype=np.float64),
        plugin_hours=np.frombuffer(plugins, dtype=np.float64),
        cp_ids=tuple(cp_codes),
    )
    return sessions, errors


# Awkward texts for each field.  Each record starts from a consistent row
# (a start, a length, a Duration near it) and swaps some fields for these:
# padding (str.strip() strips \x1c, int() and float() do not), signs, digit
# separators and non-ASCII digits, which the bulk checks pass to the row
# validator; values at the edges of each rule; and CPIDs the CSV must quote,
# some holding line breaks, so records span lines.
_AWKWARD = {
    "evt": [" 5", "5 ", "+5", "5_0", "٥", "\x1c5", "5.0", "x", "", "-0",
            str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1)],
    "cp": [" AN1", "AN1 ", "\x1cAN1", "AN,1", 'AN"1', "AN\r1", "AN\n1", "AN\r\n1",
           "", "  ", "\xe9", "AN 1"],
    "date": [" 01/06/2017", "01/06/2017 ", "1/6/2017", "29/02/2017", "29/02/2016",
             "31/13/2017", "00/06/2017", "٠١/06/2017", "01-06-2017", "x", "",
             "01/06/99999999999999999999"],
    "time": ["1:2:3", "24:00:00", "23:59:60", "09:60:00", "09:59:60", "10:00;00", "10;00:00",
             "10:00:0A", "0::00:00", "9:59:59", "1O:00:00", " 10:00:00", "10:00:00 ",
             "+1:00:00", "-0:00:00", "١٠:00:00", "10:00", "10:00:00:00",
             "1000000:", "\x1c0:00:00", "ab:cd:ef", "", "x"],
    "energy": ["-0.0", "0", "-1", "nan", "inf", "-inf", "1e400", " 5", "+5", "5_0",
               "٥", "\x1c5", "x", ""],
    "duration": ["0", "-0.0", "-2", "nan", "inf", "1e400", " 2", "+2", "2_0", "x", ""],
}
_CLOCK_STARTS = [0, 59, 3599, 36000, 86399]
_SPANS = [0, 60, 3600, 7200, 86400, 3 * 86400 + 1]
_DELTAS = [0.0, -0.0199, 0.0199, -0.02, 0.02, -0.0201, 0.0201, 0.5]


def _instant_texts(t):
    when = EPOCH + timedelta(seconds=t)
    return when.strftime("%d/%m/%Y"), when.strftime("%H:%M:%S")


# the field kind of each column, keying _AWKWARD
_KINDS = ["evt", "cp", "date", "time", "date", "time", "energy", "duration"]


@st.composite
def _records(draw):
    kind = draw(st.sampled_from(["row"] * 12 + ["blank", "short", "long"]))
    if kind == "blank":
        return []
    # 2017-06-01 or -02, at a clock from _CLOCK_STARTS
    start = 1_496_275_200 + draw(st.sampled_from([0, 86400])) + draw(st.sampled_from(_CLOCK_STARTS))
    span = draw(st.sampled_from(_SPANS))
    delta = draw(st.one_of(st.just(0.0), st.sampled_from(_DELTAS)))
    row = [
        str(draw(st.integers(-3, 3))),
        draw(st.sampled_from(["AN1", "AN2", "\xe9"])),
        *_instant_texts(start),
        *_instant_texts(start + span),
        repr(draw(st.sampled_from([0.0, 1.5, 7.25]))),
        repr(span / 3600 + delta),
    ]
    # mostly one awkward field, so each rule meets rows that pass the rest
    for k in draw(st.lists(st.integers(0, 7), max_size=2)):
        row[k] = draw(st.sampled_from(_AWKWARD[_KINDS[k]]))
    if kind == "short":
        return row[:7]
    if kind == "long":
        return row + ["9"]
    return row


def _csv_text(records):
    # csv.writer would leave a CR unquoted under a "\n" line terminator
    def field(text):
        return f'"{text.replace(chr(34), 2 * chr(34))}"' if set(text) & _CSV_SPECIALS else text

    return "".join(",".join(map(field, r)) + "\n" for r in [EXPECTED_HEADER, *records])


_TIMES = ["01/06/2017", "10:00:00", "01/06/2017", "12:00:00"]
# start clocks that each break one clock rule, and would read as a time
# within the Duration tolerance of 10:00:00 if the bulk checks skipped it
_NEAR_TEN = ["09:60:00", "09:59:60", "10:00;00", "10;00:00", "10:00:0A", "0::00:00",
             "9:59:59", "1O:00:00", "x0:00:00"]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@settings(max_examples=150, deadline=None)
@given(records=st.lists(_records(), max_size=24), newline=st.sampled_from(["\n", ""]))
# each in an otherwise consistent row: the clocks above, 24:00:00 (one
# second after 23:59:59) and a negative Energy
@example(records=[["1", "AN1", "01/06/2017", clock, *_TIMES[2:], "5", "2"] for clock in _NEAR_TEN]
         + [["1", "AN1", "01/06/2017", "24:00:00", "02/06/2017", "00:01:00", "5", "0.0166"],
            ["1", "AN1", *_TIMES, "-1", "2.0"]],
         newline="\n")
# two records that span lines (a CR is a line break only under newline ""),
# then rejections whose line numbers must count those lines
@example(records=[["1", "A\n1", *_TIMES, "5", "2"], ["2", "AN2", *_TIMES, "5", "2"],
                  ["3", "A\r\n1", *_TIMES, "5", "2"], ["x", "AN1", *_TIMES, "5", "2"],
                  ["4", " 7 ", *_TIMES, "5", "2"], ["5", "AN1", *_TIMES, "5"]],
         newline="")
# a row that breaks two rules, whose first rule gives the reason; then a
# wrong field count, a blank record and a clock of one-digit fields together
@example(records=[["x", "AN1", *_TIMES, "-1", "2"], ["1", "AN1", *_TIMES, "5"], [],
                  ["2", "AN1", "01/06/2017", "1:2:3", "01/06/2017", "03:02:03", "5", "2"]],
         newline="\n")
def test_parse_matches_reference_loop(chunk, records, newline):
    # newline "" splits lines at \r too, as parse_sessions_path's files do
    text = _csv_text(records)
    with mock.patch.object(dataset, "_CHUNK_RECORDS", chunk):
        sessions, errors = parse_sessions(io.StringIO(text, newline=newline))
    ref_sessions, ref_errors = reference_parse_sessions(io.StringIO(text, newline=newline))
    # the codes may number the ids in any order
    assert cp_ids(sessions) == cp_ids(ref_sessions)
    assert sessions.cp_code.dtype == ref_sessions.cp_code.dtype
    for name in ("event_id", "start", "end", "energy_kwh", "plugin_hours"):
        got, want = getattr(sessions, name), getattr(ref_sessions, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert [(e.line_number, e.reason) for e in errors] == ref_errors


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


def _hours(cp_id, event_id, start_h, end_h):
    return Row(event_id, cp_id, start_h * 3600, end_h * 3600, 1.0, float(end_h - start_h))


class TestCleanAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        session_rows,
        st.integers(1, 4),
        st.sampled_from([10.0, 48.0]),
        st.one_of(st.none(), st.floats(1.0, 100.0)),
    )
    # a long session holding three short ones, each clear of the one before
    # it but not of the long one, then a session that starts as the long
    # one ends: the scan must compare with the last kept session
    @example(
        [_hours("A", 0, 0, 10), _hours("A", 1, 1, 2), _hours("A", 2, 3, 4),
         _hours("A", 3, 5, 6), _hours("A", 4, 10, 12), _hours("A", 5, 11, 13)],
        1, 48.0, None,
    )
    # a charger's last session overlaps the next charger's first in time:
    # the scan must not carry one charger's sessions into the next
    @example(
        [_hours("A", 0, 0, 5), _hours("A", 1, 6, 9), _hours("B", 2, 8, 10),
         _hours("B", 3, 10, 11)],
        1, 48.0, None,
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


# CPID texts: padded, the same id padded differently, non-ASCII, and ids
# the parser rejects (empty, or holding a character the reports cannot
# write unquoted)
_CPID_TEXTS = ["AN1", " AN1", "AN1 ", "AN2", "é", " é", "Ω9", "a", "A", "", "  ", "A,1", 'A"1']


class TestChargerCodes:
    @pytest.mark.parametrize("chunk", [2, 128])
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_CPID_TEXTS),
                st.integers(0, 30).map(lambda k: 1_496_275_200 + k * 1800),
                st.sampled_from([1800, 7200, 36000, 50 * 3600]),
                st.sampled_from([0.0, 1.5, 7.25]),
            ),
            max_size=40,
        ),
        st.integers(1, 3),
    )
    def test_parse_and_clean_match_string_ids(self, chunk, records, min_sessions):
        """Parse then clean, on charger codes, gives the chargers and
        sessions a clean of the same rows with id strings gives."""
        texts, expected = [], []
        for event_id, (cp_text, start, span, energy) in enumerate(records):
            texts.append([str(event_id), cp_text, *_instant_texts(start),
                          *_instant_texts(start + span), repr(energy), repr(span / 3600)])
            cp_id = cp_text.strip()
            if cp_id and _CSV_SPECIALS.isdisjoint(cp_id):
                expected.append(Row(event_id, cp_id, start, start + span, energy, span / 3600))
        with mock.patch.object(dataset, "_CHUNK_RECORDS", chunk):
            sessions, _ = parse_sessions(io.StringIO(_csv_text(texts)))
        cps, report = clean_sessions(sessions, min_sessions)
        ref_cps, ref_report = reference_clean_sessions(expected, min_sessions)
        got = [(cp.cp_id, repr(cp.p_max_kw), list(map(repr, rows(cp.sessions)))) for cp in cps]
        want = [(cp_id, repr(p), list(map(repr, kept))) for cp_id, p, kept in ref_cps]
        assert got == want
        assert repr(report) == repr(ref_report)

    def test_clean_releases_every_parsed_column(self):
        sessions, _ = parse_text(synth_fleet_csv())
        parsed = [weakref.ref(getattr(sessions, name)) for name in dataset._DTYPES]
        cps, _ = clean_sessions(sessions, min_sessions=5)
        assert len(cps) == 6 and len(sessions) == 0
        assert [ref() for ref in parsed] == [None] * len(parsed)


# ---------------------------------------------------------------------------
# Byte-range parse: a file whose every line is one record, parsed in ranges
# of lines and merged, gives the serial parse's result.


def assert_same_parse(got, want):
    (sessions, errors), (ref_sessions, ref_errors) = got, want
    assert sessions.cp_ids == ref_sessions.cp_ids
    for name in dataset._DTYPES:
        a, b = getattr(sessions, name), getattr(ref_sessions, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert errors == ref_errors


def _unquoted(record):
    # a field the CSV would have to quote becomes plain text
    return ["".join("x" if c in _CSV_SPECIALS else c for c in field) for field in record]


def _range_file_bytes(records, endings, bom, last_ending):
    lines = [",".join(r) for r in [EXPECTED_HEADER, *map(_unquoted, records)]]
    text = "".join(line + ending for line, ending in zip(lines, [*endings, "\n"] * len(lines)))
    if not last_ending:
        text = text.rstrip("\r\n")
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode()


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(_records(), max_size=30),
    endings=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=1, max_size=31),
    bom=st.booleans(),
    last_ending=st.booleans(),
    chunk=st.integers(1, 5),
    workers=st.integers(2, 4),
    range_bytes=st.sampled_from([1, 60, 400, dataset._RANGE_BYTES]),
    cuts=st.lists(st.integers(0, 31), max_size=6),
)
# rejected rows on both sides of each range edge
@example(
    records=[["x", "AN1", *_TIMES, "5", "2"], ["1", "AN1", *_TIMES, "-1", "2"]] * 3,
    endings=["\n"], bom=False, last_ending=True, chunk=2, workers=3, range_bytes=60,
    cuts=[1, 2, 3, 4],
)
def test_byte_ranges_match_the_serial_parse(
    records, endings, bom, last_ending, chunk, workers, range_bytes, cuts
):
    data = _range_file_bytes(records, endings, bom, last_ending)
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(dataset, "_CHUNK_RECORDS", chunk),
        mock.patch.object(dataset, "_RANGE_BYTES", range_bytes),
    ):
        path = os.path.join(tmp, "fleet.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        serial = parse_sessions_path(path)
        planned = dataset._line_ranges(path, workers)
        # a file with a byte after the header's line takes the range path
        assert (planned is None) == (data.split(b"\n", 1)[1:] in ([], [b""]))
        assert_same_parse(parse_sessions_path(path, workers=workers), serial)
        if planned is None:
            return
        # each range holds a line at least, and ends at the first line end
        # after a cut that is at most range_bytes from the one before
        lengths = [b - a for (a, _, _), (b, _, _) in zip(planned, planned[1:])]
        assert all(count >= 1 for _, count, _ in planned)
        assert max(lengths, default=0) <= range_bytes + max(map(len, data.split(b"\n"))) + 1
        # ranges cut at drawn lines: the header is line 1, and a range after
        # line k starts at byte ends[k - 1]
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        total = planned[-1][1] + planned[-1][2]
        edges = sorted({1, total, *(min(max(c, 1), total) for c in cuts)})
        out_paths = [os.path.join(tmp, f"range-{lo}") for lo in edges[:-1]]
        parts = [
            dataset._parse_range(path, ends[lo - 1], hi - lo, lo, out)
            for lo, hi, out in zip(edges, edges[1:], out_paths)
        ]
        assert_same_parse(dataset._merge(parts, out_paths), serial)
        assert not any(map(os.path.exists, out_paths))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("where", [2, 3, 9])
def test_byte_ranges_name_a_field_past_the_limit_as_the_serial_parse(tmp_path, workers, where):
    # the range holding the long field raises, and the serial parse then
    # raises its own error
    lines = synth_fleet_csv(2, 5, 1).splitlines()
    lines[where - 1] = lines[where - 1].replace("CP", "CP" + "9" * 60, 1)
    path = tmp_path / "fleet.csv"
    path.write_text("\n".join(lines) + "\n")
    limit = csv.field_size_limit(50)
    try:
        with pytest.raises(ValueError) as serial:
            parse_sessions_path(path)
        with pytest.raises(ValueError) as ranged:
            parse_sessions_path(path, workers=workers)
    finally:
        csv.field_size_limit(limit)
    assert str(serial.value).startswith("unreadable CSV in lines ")
    assert str(ranged.value) == str(serial.value)


@pytest.mark.parametrize(
    "text, ranged",
    [
        ("\n".join([CSV_HEADER, *SAMPLE.splitlines()[1:]]) + "\n", True),
        (SAMPLE.replace("\n", "\r\n"), True),
        (SAMPLE.replace("AN04715", '"AN04715"'), False),  # a quote
        (SAMPLE.replace("\n", "\r", 2), False),  # a CR alone
        (SAMPLE + "\r", False),  # a CR at the end
        (SAMPLE.split("\n", 1)[0] + "\n", False),  # no line after the header
        (SAMPLE.replace("Energy", "Energie"), False),  # a header the parse rejects
        ("", False),
    ],
    ids=["lf", "crlf", "quote", "cr", "cr-at-end", "header-only", "bad-header", "empty"],
)
def test_which_files_are_parsed_in_ranges(tmp_path, text, ranged):
    path = tmp_path / "fleet.csv"
    path.write_bytes(text.encode())
    assert (dataset._line_ranges(path, 2) is not None) == ranged


def test_charger_codes_do_not_depend_on_the_hash_seed(tmp_path):
    # 200 distinct ids in a shuffled order, many to a chunk
    ids = [f"CP{i:03d}" for i in np.random.default_rng(3).permutation(200)]
    times = "01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
    path = tmp_path / "fleet.csv"
    path.write_text("\n".join([CSV_HEADER, *(f"{i},{cp},{times}" for i, cp in enumerate(ids * 2))]))
    code = (
        "import sys\n"
        "from smartcharge.dataset import parse_sessions_path\n"
        "sessions, _ = parse_sessions_path(sys.argv[1])\n"
        "print(list(sessions.cp_ids), sessions.cp_code.tolist())\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code, str(path)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    # in order of first appearance
    assert outputs[0] == f"{ids!r} {list(range(200)) * 2!r}\n"
