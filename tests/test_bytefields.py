"""The block parse's readers of fields of a strict form, against date(),
float() and the csv parse's readers."""

import re
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartcharge import bytefields, dataset
from smartcharge.dataset import _clock, _epoch_day, parse_sessions, parse_sessions_path

from conftest import CSV_HEADER


def _windows_of(texts):
    """windows() over texts laid out back to back, each followed by a comma,
    and each text's start and end in them."""
    data = bytefields.PAD + b"".join(t + b"," for t in texts) + bytefields.PAD
    lengths = np.array([len(t) for t in texts], dtype=np.intp)
    ends = len(bytefields.PAD) + np.cumsum(lengths + 1) - 1
    return bytefields.windows(np.frombuffer(data, np.uint8)), ends - lengths, ends


def test_civil_days_match_epoch_day_for_every_date():
    # every date date() accepts, in order: the one of ordinal k has the day
    # number k - _EPOCH_ORDINAL, as _epoch_day reads it
    ordinals = np.arange(1, date.max.toordinal() + 1)
    for chunk in np.array_split(ordinals, 25):
        dates = (chunk - dataset._EPOCH_ORDINAL).astype("M8[D]")
        year = dates.astype("M8[Y]").astype(np.int64) + 1970
        month = dates.astype("M8[M]").astype(np.int64) % 12 + 1
        day = (dates - dates.astype("M8[M]")).astype(np.int64) + 1
        days, ok = bytefields.civil_days(day, month, year)
        assert ok.all()
        assert (days == chunk - dataset._EPOCH_ORDINAL).all()
        # numpy's calendar splits the dates as date() does
        for k in (0, len(chunk) // 2, len(chunk) - 1):
            d = date.fromordinal(int(chunk[k]))
            assert (day[k], month[k], year[k]) == (d.day, d.month, d.year)
            assert days[k] == _epoch_day(f"{d.day:02d}/{d.month:02d}/{d.year:04d}")


def _strict_instant(date_text, clock_text):
    """DD/MM/YYYY and a clock of _CLOCK's form, all ASCII digits, as naive
    epoch seconds through _epoch_day and _clock; None for any other texts,
    or a date date() rejects."""
    if not (re.fullmatch(rb"[0-9]{2}/[0-9]{2}/[0-9]{4}", date_text)
            and re.fullmatch(dataset._CLOCK_PATTERN.encode(), clock_text)):
        return None
    try:
        return _epoch_day(date_text.decode()) * 86400 + _clock(clock_text.decode())
    except ValueError:
        return None


def _read_instants(rows):
    view, begins, _ = _windows_of(rows)
    return bytefields.instants(view, begins)


@pytest.mark.parametrize("year", [0, 1900, 2000, 2016, 2017])
def test_instants_reject_the_dates_date_rejects(year):
    # every DD/MM from 00/00 to 99/99, in a leap year, a common year, a
    # century of each kind and year 0000, which date() rejects
    texts = [f"{d:02d}/{m:02d}/{year:04d}".encode() for d in range(100) for m in range(100)]
    start, end, ok = _read_instants([t + b",12:00:00,31/12/9999,23:59:59" for t in texts])
    want = [_strict_instant(t, b"12:00:00") for t in texts]
    assert ok.tolist() == [w is not None for w in want]
    assert start[ok].tolist() == [w for w in want if w is not None]
    assert (end == _strict_instant(b"31/12/9999", b"23:59:59")).all()


def test_instants_read_each_changed_byte_as_the_strict_forms():
    # each byte of a valid row, a leap day among its dates, set to each value
    row = b"29/02/2016,23:59:59,01/03/2016,00:00:00"
    rows = [row[:k] + bytes([b]) + row[k + 1 :] for k in range(len(row)) for b in range(256)]
    start, end, ok = _read_instants(rows)
    for text, got_start, got_end, got_ok in zip(rows, start.tolist(), end.tolist(), ok.tolist()):
        want = (_strict_instant(text[:10], text[11:19]), _strict_instant(text[20:30], text[31:]))
        commas = text[10:11] + text[19:20] + text[30:31] == b",,,"
        assert got_ok == (commas and None not in want)
        if got_ok:
            assert (got_start, got_end) == want


def _read_decimals(texts):
    view, begins, ends = _windows_of(texts)
    return bytefields.decimals(view, ends, ends - begins)


# [0-9]+(\.[0-9]+)? of at most 15 digits
_strict_decimals = st.builds(
    lambda digits, dot: f"{digits[:dot]}.{digits[dot:]}" if 0 < dot < len(digits) else digits,
    st.text("0123456789", min_size=1, max_size=15),
    st.integers(0, 15),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_strict_decimals, min_size=1, max_size=20))
@example(["0.0", "0", "007.50", "1.000", "000000000000000", "999999999999999", "99999999999999.9",
          "9.99999999999999", "0.00000000000001", "123456789.012345", "0.1", "2.675"])
def test_strict_decimals_read_as_float_reads_them(texts):
    values, ok = _read_decimals([t.encode() for t in texts])
    assert ok.all()
    assert values.tobytes() == np.array([float(t) for t in texts]).tobytes()


# texts of more digits, and of any other form
_other_decimals = st.one_of(
    st.text("0123456789", min_size=16, max_size=24),
    st.builds("{}.{}".format, st.text("0123456789", min_size=1, max_size=12),
              st.text("0123456789", min_size=1, max_size=12)).filter(lambda t: len(t) > 16),
    st.sampled_from(["", ".5", "5.", ".", "1.2.3", "+1", "-1", "-0.0", "1e3", "1E-2", " 5", "5 ",
                     "1_0", "nan", "inf", "\u0665", "0x1", "1/2"]),
    st.text("0123456789.+-eE_ ", max_size=20).filter(lambda t: not re.fullmatch(r"[0-9]+(\.[0-9]+)?", t)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_other_decimals, min_size=1, max_size=10))
@example([".5", "5.", ".", "1.2.3", "1234567890123456", "123456789012345.6", "-0.0"])
def test_other_decimal_texts_take_the_csv_parse(tmp_path_factory, texts):
    _, ok = _read_decimals([t.encode() for t in texts])
    assert not ok.any()
    # as an Energy field, each text takes the csv parse, which reads it by
    # float() or rejects its row
    path = tmp_path_factory.mktemp("decimals") / "fleet.csv"
    lines = [f"{i},CP1,01/06/2017,10:00:00,01/06/2017,12:00:00,{t},2" for i, t in enumerate(texts)]
    path.write_text("\n".join([CSV_HEADER, *lines]) + "\n")
    sessions, errors = parse_sessions_path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        want, want_errors = parse_sessions(fh)
    assert errors == want_errors
    assert sessions.energy_kwh.tobytes() == want.energy_kwh.tobytes()
    for event_id, energy in zip(sessions.event_id.tolist(), sessions.energy_kwh.tolist()):
        assert energy == float(texts[event_id]) + 0.0
