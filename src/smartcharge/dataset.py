"""Chargepoint session CSV parsing, cleaning and per-charger power derivation.

The input format is the UK domestic chargepoint export: one row per charging
event with separate date/time columns, dispensed energy in kWh and plugin
duration in decimal hours.  The Duration column is authoritative for the
plugin duration; the end-start timestamps are kept for placing sessions on
the calendar and for a consistency check against the Duration column.

A file whose every line is one record (it holds no quote, and no CR that
is not followed by LF) is parsed as bytes, in blocks of whole lines of
about 64 KiB, at any worker count.  A line of 8 fields whose every field
has a strict ASCII form is converted with numpy, each field straight from
the block's bytes, with no string made per field (_parse_block, through
the readers of bytefields).  Every other line, and every line of any other file, goes
through the csv module to _parse_chunk, which converts a chunk's columns in
bulk (numbers through int() and float(), clocks as ASCII digits, each
distinct date and CPID once; a text the bulk form misses is read again
stripped, on its own) and states each parsing rule once, as a mask over the
chunk with its reason: a rejected row gets the reason of the first rule it
fails.  The rules on a row's values are the same masks in both parses
(_value_rules), and the rows of both merge in line order.
Sessions name their charger by an integer code into a table of ids, so each
id string is stored once, numbered in order of first appearance.  Cleaning
sorts that table, remaps the codes with one take, orders, caps and
de-overlaps the sessions as one index and gathers each column once through
it, releasing the parsed column before the next.

With several workers, parse_sessions_path parses such a file in byte
ranges.  It reads only the header: the bytes after it are cut at about
equal byte targets, each moved past the next line break, into a multiple
of the worker count of ranges of at most about _RANGE_BYTES each.  Each
range is parsed in blocks, which check that each line is one record,
numbering lines from its first, and writes its columns and id table to a
file of its own.  Then the ranges are merged in order: each file is read
straight into its rows of the table's columns, its codes are remapped into
one id table, and its rejections' line numbers gain the lines before it.
The result equals the csv parse's; any other file, and any parse in blocks
that raises, takes the csv parse, which raises what it meets first.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import operator
import os
import re
import tempfile
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import islice, starmap, tee
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import bytefields

EXPECTED_HEADER = [
    "EventID",
    "CPID",
    "StartDate",
    "StartTime",
    "EndDate",
    "EndTime",
    "Energy",
    "Duration",
]

# Max tolerated gap between the Duration column and end-start, in hours.
# Guards against DST/clock artifacts in the source file.
DURATION_TOLERANCE_HOURS = 0.02

# cleaning defaults: sessions longer than MAX_HOURS are dropped, then
# chargers left with fewer than MIN_SESSIONS sessions
MAX_HOURS = 48.0
MIN_SESSIONS = 10

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# characters a CPID must not hold
_CSV_SPECIALS = frozenset(',"\r\n')

# Records per chunk of the csv-module parse (every line of a file holding
# a quote or a lone CR); the block parse passes it the lines it leaves
# once this many are gathered (_parse_lines).  A chunk's rows, as lists of
# strings, are its working memory, which the process keeps.  On the
# predict fleet (seed 1, 41k rows) with one field quoted, a one-worker run
# peaks at 36.8 MB at 64 records, 36.9 at 128, 37.1 at 256, 38.4 at 1,024
# and 75.6 at 65,536, its parse taking 0.12, 0.09, 0.085, 0.10 and 0.15 s
# (2-core Xeon, Python 3.11; the quote-free file, in blocks: 37.2 MB).
_CHUNK_RECORDS = 128
# the most bytes of a range, about; the worker parsing it holds its
# columns, about 44 bytes of each 70 of input, until it writes them out
_RANGE_BYTES = 1 << 25
# the day number of a date text _epoch_day rejects; outside date()'s range
_NO_DAY = -(2**40)
# stands in for a record of another field count, which the field-count
# rule rejects; its numbers and clocks keep the chunk's columns on their
# bulk conversions
_NO_ROW = ["0", "", "", "00:00:00", "", "00:00:00", "0", "0"]
# a clock of two-digit ASCII fields in range ([0-9], as \d matches any
# Unicode digit), and any number of them back to back
_CLOCK_PATTERN = "(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]"
_CLOCK = re.compile(_CLOCK_PATTERN)
_CLOCKS = re.compile(f"(?:{_CLOCK_PATTERN})*")
# the most blocks the lines _parse_lines gathers for _parse_chunk span
_HELD_BLOCKS = 8



@dataclass(eq=False)
class Sessions:
    """Charging events as columns, one entry per session; any sequences
    given become arrays of the column's dtype (_DTYPES).

    start/end are naive seconds since 1970-01-01 00:00:00 (no timezone; the
    source data carries none).  plugin_hours comes from the Duration column
    and is the authoritative session length.  cp_code is each session's
    charger as a position in cp_ids, a table of distinct ids: the parser's
    lists every id it met, and a cleaned charger's holds its own id alone,
    with every code 0.
    """

    event_id: np.ndarray
    cp_code: np.ndarray
    start: np.ndarray
    end: np.ndarray
    energy_kwh: np.ndarray
    plugin_hours: np.ndarray
    cp_ids: tuple[str, ...] = ()

    def __post_init__(self):
        for name, dtype in _DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        self.cp_ids = tuple(self.cp_ids)

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, key) -> Sessions:
        """The sessions key selects (a slice or a mask), in every column.
        An integer selects one session as 0-d columns, which is what
        iterating over a table yields."""
        return Sessions(*(getattr(self, name)[key] for name in _DTYPES), self.cp_ids)


# the columns, in field order
_DTYPES = {
    "event_id": np.int64,
    "cp_code": np.intc,
    "start": np.int64,
    "end": np.int64,
    "energy_kwh": np.float64,
    "plugin_hours": np.float64,
}


@dataclass(frozen=True, slots=True)
class ParseError:
    """A rejected input row and why it was rejected."""

    line_number: int
    reason: str


@dataclass
class ChargePoint:
    """A charger with its maximum observed power rate and ordered sessions."""

    cp_id: str
    p_max_kw: float
    sessions: Sessions

    @property
    def usable(self) -> bool:
        """False when the max power rate is 0 kW, so there is no rate to
        simulate with: every session dispensed zero energy, or
        p_max_percentile fell on a zero-energy session's rate."""
        return self.p_max_kw > 0.0


@dataclass
class CleaningReport:
    """Bookkeeping of the cleaning pass; counts always sum to the input size."""

    total_records: int = 0
    removed_overlapping: int = 0
    removed_over_max_hours: int = 0
    removed_small_cp_points: int = 0
    removed_small_cp_sessions: int = 0
    retained_sessions: int = 0
    retained_charge_points: int = 0
    max_hours: float = MAX_HOURS
    min_sessions: int = MIN_SESSIONS

    def removed_total(self) -> int:
        return (
            self.removed_overlapping
            + self.removed_over_max_hours
            + self.removed_small_cp_sessions
        )

    def _pct(self, n: int) -> float:
        return 100.0 * n / self.total_records if self.total_records else 0.0

    def to_text(self) -> str:
        lines = [
            "dataset cleaning report",
            "=======================",
            f"sessions in                         : {self.total_records}",
            f"removed, plugin > {self.max_hours:g} h           : "
            f"{self.removed_over_max_hours} ({self._pct(self.removed_over_max_hours):.2f}%)",
            f"removed, overlapping within charger : "
            f"{self.removed_overlapping} ({self._pct(self.removed_overlapping):.2f}%)",
            f"removed, charger < {self.min_sessions} sessions left : "
            f"{self.removed_small_cp_sessions} sessions on {self.removed_small_cp_points} chargers "
            f"({self._pct(self.removed_small_cp_sessions):.2f}%)",
            f"retained sessions                   : {self.retained_sessions}",
            f"retained charge points              : {self.retained_charge_points}",
        ]
        return "\n".join(lines) + "\n"


# an export spans a few hundred distinct dates; the bound caps the memory
# a file of many distinct date strings could hold
@functools.lru_cache(maxsize=1 << 14)
def _epoch_day(date_text: str) -> int:
    """DD/MM/YYYY -> days since 1970-01-01; date() rejects 29/02/2017."""
    day, month, year = date_text.split("/")
    return date(int(year), int(month), int(day)).toordinal() - _EPOCH_ORDINAL


def _clock(text: str) -> int:
    """HH:MM:SS -> seconds into the day; each field is read by int()."""
    hh, mm, ss = map(int, text.split(":"))
    if not (0 <= hh < 24 and 0 <= mm < 60 and 0 <= ss < 60):
        raise ValueError(f"time out of range: {text!r}")
    return hh * 3600 + mm * 60 + ss


def _chunks(reader, lines, size: int):
    """Yield the reader's remaining records in lists of up to size, each
    with its records' first line numbers and their last ones.

    lines is a tee of the reader's source.  After each chunk it holds that
    chunk's lines, which are read again, to number the records, only when
    some record spans several lines (a quoted field holding a line break),
    or when a record is unreadable (such as one with a field past the csv
    module's size limit): that is a ValueError naming the record's lines.

    The csv module ends a quoted field that is never closed at the end of
    the input, with every later line in it; that is a ValueError too,
    naming the lines of the record.
    """
    numbered = reader.line_num
    # level the tee with the reader (itertools' consume recipe)
    next(islice(lines, numbered, numbered), None)
    last = []  # the last record's lines
    while True:
        try:
            rows = list(islice(reader, size))
        except csv.Error as exc:
            # the chunk's lines read again, up to the record that failed
            again, read = csv.reader(list(islice(lines, reader.line_num - numbered))), 0
            with contextlib.suppress(csv.Error):
                for _ in again:
                    read = again.line_num
            lines_named = f"{numbered + read + 1}-{reader.line_num}"
            raise ValueError(f"unreadable CSV in lines {lines_named}: {exc}") from None
        if not rows:
            break
        first, count = numbered + 1, reader.line_num - numbered
        numbered = reader.line_num
        if count == len(rows):  # one line per record
            next(islice(lines, count - 1, count - 1), None)
            last = [next(lines)]
            yield rows, range(first, first + count), range(first, first + count)
        else:
            chunk = list(islice(lines, count))
            again = csv.reader(chunk)
            starts = [0, *(again.line_num for _ in again)]
            last = chunk[starts[-2] :]
            yield rows, [first + n for n in starts[:-1]], [first + n - 1 for n in starts[1:]]
    # a line holding one quote closes an open quoted field, and is a record
    # of its own after a closed one
    if last and len(list(csv.reader([*last, '"']))) == 1:
        lines_named = f"{numbered - len(last) + 1}-{numbered}"
        raise ValueError(f"unreadable CSV in lines {lines_named}: a quote is never closed")


def _numbers(convert, texts: Sequence[str], dtype) -> tuple[np.ndarray, np.ndarray]:
    """convert (int or float) over texts as an array of dtype, and a mask
    of the texts it converted.  When some text fails, each is converted
    stripped, row by row, and one that raises, or whose value dtype cannot
    hold, is left out of the mask."""
    n = len(texts)
    try:
        return np.fromiter(map(convert, texts), dtype, n), np.ones(n, dtype=bool)
    except (ValueError, OverflowError):
        pass
    values, ok = np.zeros(n, dtype), np.ones(n, dtype=bool)
    for i, text in enumerate(texts):
        try:
            values[i] = convert(text.strip())
        except (ValueError, OverflowError):
            ok[i] = False
    return values, ok


def _clock_seconds(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Seconds into the day of each clock text, and a mask of the texts
    read.  Texts of two-digit ASCII fields in range are read as digits in
    bulk; any other text goes to _clock, stripped."""
    data, missed = "".join(texts), []
    # with every text 8 characters long, the texts are the pattern's units
    if set(map(len, texts)) == {8} and _CLOCKS.fullmatch(data):
        ok = np.ones(len(texts), dtype=bool)
    else:
        ok = np.fromiter((_CLOCK.fullmatch(t) is not None for t in texts), bool, len(texts))
        missed = np.flatnonzero(~ok).tolist()
        data = "".join([t if good else "00:00:00" for t, good in zip(texts, ok.tolist())])
    digits = np.frombuffer(data.encode(), dtype=np.uint8).reshape(-1, 8).astype(np.int64) - ord("0")
    seconds = digits @ bytefields.CLOCK_WEIGHTS
    for i in missed:
        try:
            seconds[i], ok[i] = _clock(texts[i].strip()), True
        except ValueError:
            pass
    return seconds, ok


def _day_number(text: str) -> int:
    """_epoch_day(text), or _NO_DAY for a text it rejects."""
    try:
        return _epoch_day(text)
    except (ValueError, OverflowError):
        return _NO_DAY


class _Ids:
    """The charger ids a parse meets, each numbered by its first appearance.

    codes maps each usable id to its code.  text_codes maps each CPID field
    text met to its id's code, or to -1 for a text that is no usable id: a
    stripped id is usable when it is not empty and the reports, which write
    ids unquoted, can hold it as one CSV field.  The block parse looks CPID
    texts of 8 printable ASCII bytes at most up in bulk, each as the 64-bit
    word of its bytes padded with NUL bytes: keys holds those it met,
    sorted, and key_codes their codes.
    """

    def __init__(self):
        self.codes: dict[str, int] = {}
        self.text_codes: dict[str, int] = {}
        # the empty text, no usable id, keeps keys from being empty
        self.keys = np.zeros(1, np.uint64)
        self.key_codes = np.full(1, -1, np.intc)

    def code(self, text: str) -> int:
        """The code of a CPID field text; an id met for the first time
        takes the next code."""
        code = self.text_codes.get(text)
        if code is None:
            cp_id = text.strip()
            usable = cp_id and _CSV_SPECIALS.isdisjoint(cp_id)
            code = self.codes.setdefault(cp_id, len(self.codes)) if usable else -1
            self.text_codes[text] = code
        return code

    def field_codes(self, buf: np.ndarray, begins, ends, printable: np.ndarray) -> np.ndarray:
        """The codes of the UTF-8 field texts buf[begins[i]:ends[i]], as
        code() gives them for each text in turn; printable marks texts of
        bytes from "!" to "~".  Those of at most 8 bytes are looked up in
        keys in bulk, and join it when not found; the others are coded one
        by one."""
        lengths = ends - begins
        bulk = printable & (lengths <= 8)
        keys = bytefields.id_words(buf, begins, lengths)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        found = bulk & (self.keys[at] == keys)
        codes = self.key_codes[at]
        new: dict[int, int] = {}
        for i in np.flatnonzero(~found).tolist():
            codes[i] = self.code(buf[begins[i] : ends[i]].tobytes().decode())
            if bulk[i]:
                new[int(keys[i])] = codes[i]
        if new:
            new_keys, new_codes = zip(*sorted(new.items()))
            at = np.searchsorted(self.keys, np.array(new_keys, np.uint64))
            self.keys = np.insert(self.keys, at, new_keys)
            self.key_codes = np.insert(self.key_codes, at, new_codes)
        return codes


def _value_rules(start, end, energy, plugin) -> tuple[np.ndarray, list]:
    """The hours from start to end, and the parsing rules on a row's
    values as (mask, reason) pairs, in the order they apply.  They follow
    the rules on its fields (_parse_chunk), so a row they test has numbers
    in every field."""
    hours = (end - start) / 3600.0
    # nan fails every comparison
    with np.errstate(invalid="ignore"):
        return hours, [
            (np.isfinite(energy) & np.isfinite(plugin), "non-finite Energy/Duration"),
            (energy >= 0, "negative energy {energy}"),
            (end > start, "end instant not after start"),
            (plugin > 0, "non-positive duration {plugin}"),
            (
                np.abs(plugin - hours) <= DURATION_TOLERANCE_HOURS,
                "Duration {plugin} disagrees with end-start {hours:.4f} h",
            ),
        ]


def _parse_chunk(
    rows: list[list[str]],
    firsts: Sequence[int],
    lasts: Sequence[int],
    ids: _Ids,
    errors: list[ParseError],
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The positions in rows of one chunk's accepted rows, and those rows,
    in input order, as one array per Sessions column; cp_id as codes into
    ids, which gains any new id.  Each rejection is appended to errors.

    The columns are converted in bulk, and the parsing rules are stated
    once, as masks over the chunk with their reasons, in the order they
    apply.  A row is kept when it passes every rule; a rejected row gets
    the reason of the first rule it fails, filled in from its stripped
    fields (named as in the header) and its values, and is numbered by its
    first line; firsts and lasts hold each record's first and last line.
    The reason of a record that spans lines names them.  A blank record is
    skipped.
    """
    n = len(rows)
    sizes = np.fromiter(map(len, rows), np.intp, n)
    table = rows
    if (sizes != 8).any():
        table = [row if len(row) == 8 else _NO_ROW for row in rows]
    evt, cp, sd, st, ed, et, energy_text, duration_text = zip(*table)
    event_id, ok_event_id = _numbers(int, evt, np.int64)
    energy, ok_energy = _numbers(float, energy_text, np.float64)
    plugin, ok_plugin = _numbers(float, duration_text, np.float64)

    # new texts in order of first appearance, so the codes number the ids
    # in that order whatever the hash seed
    for text in [t for t in dict.fromkeys(cp) if t not in ids.text_codes]:
        ids.code(text)
    codes = np.fromiter(map(ids.text_codes.__getitem__, cp), np.intc, n)

    day_of = {text: _day_number(text.strip()) for text in {*sd, *ed}}
    instants, ok_instants = [], np.ones(n, dtype=bool)
    for dates, clocks in ((sd, st), (ed, et)):
        days = np.fromiter(map(day_of.__getitem__, dates), np.int64, n)
        seconds, ok_clock = _clock_seconds(clocks)
        instants.append(days * 86400 + seconds)
        ok_instants &= ok_clock & (days != _NO_DAY)
    start, end = instants
    hours, value_rules = _value_rules(start, end, energy, plugin)

    rules = [
        (sizes == 8, "expected 8 fields, got {size}"),
        (ok_event_id, "bad EventID {EventID!r}"),
        (codes >= 0, "bad CPID {CPID!r}"),
        (ok_instants, "bad date/time {StartDate!r} {StartTime!r} / {EndDate!r} {EndTime!r}"),
        (ok_energy & ok_plugin, "bad Energy/Duration {Energy!r}/{Duration!r}"),
        *value_rules,
    ]
    ok = np.logical_and.reduce([mask for mask, _ in rules])
    for i in np.flatnonzero(~ok & (sizes > 0)).tolist():
        reason = next(reason for mask, reason in rules if not mask[i])
        values = dict(zip(EXPECTED_HEADER, map(str.strip, rows[i])), size=len(rows[i]))
        values.update(energy=float(energy[i]), plugin=float(plugin[i]), hours=float(hours[i]))
        reason = reason.format_map(values)
        if lasts[i] > firsts[i]:  # a quoted field took in line breaks
            reason += f" (record spans lines {firsts[i]}-{lasts[i]})"
        errors.append(ParseError(firsts[i], reason))
    kept = np.flatnonzero(ok)
    # -0.0 passes the sign check; + 0.0 stores it as 0.0
    columns = (event_id, codes, start, end, energy + 0.0, plugin)
    return kept, tuple(column[kept] for column in columns)


def _parse_block(block: bytes, first_line: int, ids: _Ids, limit: int):
    """The lines of block, whose first is line first_line, when each line
    is one record: their count, the line numbers and the rows of the lines
    read in bulk, as one array per Sessions column, and the other lines, as
    (line number, text) pairs, for _parse_chunk.

    The CPID of each line of 8 fields gets its code first, so ids number
    the ids in order of first appearance.  A line of 8 fields is read in
    bulk when each field has its strict form and is no longer than the csv
    module's field size limit, and its values pass _value_rules: EventID
    1 to 18 digits, CPID bytes from "!" to "~", the dates DD/MM/YYYY and
    the clocks _CLOCK's form, all in ASCII digits, and Energy and Duration
    bytefields.decimals' form.  _parse_chunk rejects every other line, or
    reads what the strict forms leave out (padding, signs, exponents,
    longer numbers, non-ASCII text).
    """
    data = bytefields.PAD + block + bytefields.PAD
    buf = np.frombuffer(data, np.uint8)
    view = bytefields.windows(buf)
    breaks = np.flatnonzero(buf == ord("\n"))
    if not block.endswith(b"\n"):  # the file's last line, without a break
        breaks = np.append(breaks, len(bytefields.PAD) + len(block))
    starts = np.concatenate(([len(bytefields.PAD)], breaks[:-1] + 1))
    # each line's end, before its LF or CR LF
    stops = breaks - (buf[breaks - 1] == ord("\r"))
    commas = np.flatnonzero(buf == ord(","))
    # the commas before each line's end; a line of 7 has 8 fields
    upto = np.searchsorted(commas, stops)
    rows = np.flatnonzero(np.diff(upto, prepend=0) == 7)
    # each such line's field bounds: a comma's place before its start, its
    # 7 commas and its end; field f runs from bounds[f] + 1 to bounds[f + 1]
    cuts = commas[(upto[rows] - 7)[:, None] + np.arange(7)].T
    bounds = np.vstack([starts[rows] - 1, cuts, stops[rows]])
    del commas, upto, cuts
    short = np.diff(bounds, axis=0).max(axis=0) <= limit + 1
    # the bounds and lengths the readers take, as arrays of their own, so
    # that the rest is gone before the readers make their copies
    (event_end, cp_end), number_ends = bounds[1:3].copy(), np.concatenate(bounds[7:])
    cp_begin, date_begin = event_end + 1, cp_end + 1
    event_length, cp_length = np.diff(bounds[:3], axis=0) - 1
    number_lengths = (np.diff(bounds[6:], axis=0) - 1).ravel()
    del bounds

    # the bytes no CPID of the strict form holds, line breaks among them
    odd = np.flatnonzero((buf <= ord(" ")) | (buf > ord("~")))
    ok_cp = (cp_length > 0) & (np.searchsorted(odd, cp_begin) == np.searchsorted(odd, cp_end))
    codes = ids.field_codes(buf, cp_begin, cp_end, ok_cp)
    event_id, ok_event_id = bytefields.event_ids(view, event_end, event_length)
    start, end, ok_instants = bytefields.instants(view, date_begin)
    numbers, ok_numbers = bytefields.decimals(view, number_ends, number_lengths)
    (energy, plugin), ok_numbers = numbers.reshape(2, -1), ok_numbers.reshape(2, -1).all(axis=0)
    _, value_rules = _value_rules(start, end, energy, plugin)
    fast = np.logical_and.reduce(
        [ok_event_id, ok_cp, ok_instants, ok_numbers, short, *(mask for mask, _ in value_rules)]
    )

    others = np.ones(len(starts), dtype=bool)
    others[rows[fast]] = False
    others = np.flatnonzero(others)
    texts = [data[a:b].decode() for a, b in zip(starts[others].tolist(), stops[others].tolist())]
    return (
        len(starts),
        rows[fast] + first_line,
        tuple(column[fast] for column in (event_id, codes, start, end, energy, plugin)),
        list(zip((others + first_line).tolist(), texts)),
    )


def _insert_others(columns, start: int, numbers: list, others: list, ids: _Ids, errors: list[ParseError]):
    """Parse others, (line number, text) pairs, through _parse_chunk, and put
    the rows it accepts among the rows of columns from start on, whose line
    numbers numbers holds, in line order."""
    if not others:
        return
    lines, texts = zip(*others)
    kept, slow = _parse_chunk(list(csv.reader(texts)), lines, lines, ids, errors)
    if not len(kept):
        return
    at = np.searchsorted(np.concatenate(numbers), np.asarray(lines)[kept])
    for column, new, dtype in zip(columns, slow, _DTYPES.values()):
        tail = np.insert(np.frombuffer(column, dtype)[start:], at, new)
        del column[start:]
        column.frombytes(memoryview(tail).cast("B"))


def _check_header(header: list[str] | None) -> None:
    """A missing or wrong header is fatal: nothing downstream can be
    trusted if the columns are not what they claim."""
    if header is None:
        raise ValueError("empty input: expected header row")
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise ValueError(f"unexpected header {header!r}; expected {','.join(EXPECTED_HEADER)}")


def _table(columns: Sequence[array], cp_ids: Sequence[str]) -> Sessions:
    """A Sessions table over the compact columns, in _DTYPES order."""
    arrays = (np.frombuffer(column, dtype) for column, dtype in zip(columns, _DTYPES.values()))
    return Sessions(*arrays, cp_ids=cp_ids)


def _parse_records(reader, lines):
    """The reader's remaining records (lines is a tee of its source) parsed:
    the accepted rows' columns, in _DTYPES order, as compact arrays whose
    codes index the returned id table, and the rejections."""
    # accepted rows, appended chunk by chunk
    columns = tuple(map(array, "qiqqdd"))
    ids, errors = _Ids(), []
    for rows, firsts, lasts in _chunks(reader, lines, _CHUNK_RECORDS):
        _append(columns, _parse_chunk(rows, firsts, lasts, ids, errors)[1])
    return columns, tuple(ids.codes), errors


def _append(columns: Sequence[array], values: Iterable[np.ndarray]) -> None:
    """Append each array of values to its compact column."""
    for column, part in zip(columns, values):
        column.frombytes(memoryview(part).cast("B"))


def _parse_lines(fh, first_line: int, size: int):
    """_parse_records over the lines of the next size bytes of the binary
    file fh, the first being line first_line, and their count.  Read in
    blocks, each parsed by _parse_block; a ValueError when a line need not
    be one record.

    _parse_chunk takes about as long for one line as for a hundred, so the
    lines _parse_block leaves are passed to it together, once
    _CHUNK_RECORDS of them are gathered or they span _HELD_BLOCKS blocks;
    any row it accepts is then put among the rows read in bulk meanwhile."""
    # accepted rows, appended block by block
    columns = tuple(map(array, "qiqqdd"))
    ids, errors = _Ids(), []
    limit = csv.field_size_limit()
    line = first_line
    # the lines gathered for _parse_chunk, the line numbers of the rows read
    # in bulk since the block of the first, by block, and the rows before it
    others, numbers, start = [], [], 0
    for block in bytefields.line_blocks(fh, size):
        lines, read, accepted, block_others = _parse_block(block, line, ids, limit)
        line += lines
        if not others:
            numbers, start = [], len(columns[0])
        _append(columns, accepted)
        numbers.append(read)
        others += block_others
        if len(others) >= _CHUNK_RECORDS or len(numbers) >= _HELD_BLOCKS:
            _insert_others(columns, start, numbers, others, ids, errors)
            others = []
    _insert_others(columns, start, numbers, others, ids, errors)
    return columns, tuple(ids.codes), errors, line - first_line


def parse_sessions(stream: TextIO) -> tuple[Sessions, list[ParseError]]:
    """Parse the chargepoint CSV into sessions plus a list of rejected rows.

    Malformed rows are collected with a reason, never silently dropped.
    A missing or wrong header is fatal (ValueError): nothing downstream can
    be trusted if the columns are not what they claim.  So is text the csv
    module cannot read as records, such as a quote that is never closed;
    the ValueError names the lines it could not read.
    """
    source, lines = tee(stream)
    reader = csv.reader(source)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"unreadable CSV in lines 1-{reader.line_num}: {exc}") from None
    _check_header(header)
    columns, cp_ids, errors = _parse_records(reader, lines)
    return _table(columns, cp_ids), errors


def _parse_range(path, first_byte: int, size: int, out_path: str):
    """_parse_lines over the size bytes of the file from first_byte on,
    numbering lines from the first of them.

    The columns, back to back in _DTYPES order, then the id table, each id
    ended by a line break (no usable id holds one), go to the file
    out_path: a process pool's parent would receive them in its result
    thread, whose freed memory its other threads cannot reuse.  Returns the
    number of rows, the id table's size in bytes, the rejections and the
    number of lines."""
    with open(path, "rb") as fh:
        fh.seek(first_byte)
        columns, cp_ids, errors, lines = _parse_lines(fh, 1, size)
    ids = "".join(f"{cp_id}\n" for cp_id in cp_ids).encode()
    with open(out_path, "wb") as out:
        for column in columns:
            column.tofile(out)
        out.write(ids)
    return len(columns[0]), len(ids), errors, lines


def _merge(parts: Iterable, out_paths: Sequence[str]) -> tuple[Sessions, list[ParseError]]:
    """One table of the ranges' rows, in range order, and their rejections,
    from the ranges' _parse_range results and files.  Once every range is
    parsed, each range's file is read straight into its rows of the table's
    columns, then its codes are remapped from its own id table to the
    merged one, which lists each id once, in order of first appearance, and
    its rejections' line numbers gain the lines before it, the header's
    among them."""
    parts = list(parts)
    columns = {name: np.empty(sum(p[0] for p in parts), dtype) for name, dtype in _DTYPES.items()}
    ids: dict[str, int] = {}
    errors, lo, before = [], 0, 1
    for (rows, ids_size, part_errors, lines), out_path in zip(parts, out_paths):
        with open(out_path, "rb") as fh:
            for column in columns.values():
                fh.readinto(memoryview(column[lo : lo + rows]).cast("B"))
            part_ids = fh.read(ids_size).decode().split("\n")[:-1]
        os.remove(out_path)
        remap = np.array([ids.setdefault(cp_id, len(ids)) for cp_id in part_ids], np.intc)
        codes = columns["cp_code"][lo : lo + rows]
        codes[:] = remap[codes]
        errors += [ParseError(e.line_number + before, e.reason) for e in part_errors]
        lo, before = lo + rows, before + lines
    return Sessions(**columns, cp_ids=tuple(ids)), errors


def parse_sessions_path(
    path, map_ranges=starmap, workers: int = 1
) -> tuple[Sessions, list[ParseError]]:
    """parse_sessions on a UTF-8 file, whatever the locale; a byte-order
    mark, as spreadsheet exports write, is skipped.

    A file whose every line is one record is read as bytes, in blocks
    (_parse_block).  With workers > 1 it is parsed in byte ranges through
    map_ranges, which has itertools.starmap's contract (such as a map over
    a process pool that keeps the results in order), and merged; each
    range's parsed rows pass through a file in a temporary directory, about
    44 bytes a row.  The ranges are cut here, reading only the header: the
    bytes after it are split at about equal byte targets, each moved past
    the next line break, into the least multiple of workers of ranges within
    about _RANGE_BYTES, and an empty range is dropped.  Either gives the
    serial parse's result.  Any other file, and one whose block parse
    raises, is parsed serially, which raises what the serial parse raises.
    """
    try:
        with open(path, "rb") as fh:
            # read whole, as the csv parse would read it; a quote in it may
            # open a field that takes in the lines after it
            header = fh.readline().removeprefix(codecs.BOM_UTF8)
            if not bytefields.one_record_a_line(header):
                raise ValueError("the header need not be one record")
            _check_header(next(csv.reader([header.decode()]), None))
            body = fh.tell()
            size = fh.seek(0, os.SEEK_END) - body
            if workers == 1:
                fh.seek(body)
                # the line after the header is line 2
                columns, cp_ids, errors, _ = _parse_lines(fh, 2, size)
                return _table(columns, cp_ids), errors
            n = workers * -(-size // (workers * _RANGE_BYTES))
            targets = (body + size * k // n for k in range(1, n))
            cuts = [body, *(fh.seek(t) + len(fh.readline()) for t in targets), body + size]
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
            ranges = [(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
            calls = [(path, *cut, os.path.join(tmp, str(k))) for k, cut in enumerate(ranges)]
            return _merge(map_ranges(_parse_range, calls), [call[-1] for call in calls])
    except (ValueError, OSError, csv.Error):
        pass  # the serial parse below raises the error it meets first
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return parse_sessions(fh)


def derive_p_max(cp_sessions: Sessions, percentile: float | None = None) -> float:
    """Maximum observed session-average power of one charge point, in kW.

    0.0 means every session dispensed zero energy, or the percentile fell
    on a zero-energy session's rate; such chargers cannot be simulated (no
    power rate exists to charge at).

    The observed maximum can be inflated by a single noisy record, so a
    percentile (e.g. 99.0) may be given for sensitivity runs; it caps the
    rate at that percentile of the session-average powers.  Off by default:
    with a cap, sessions above it can no longer be fully served.
    """
    if not len(cp_sessions):
        raise ValueError("cannot derive p_max from an empty session list")
    # stated as what must hold, so a NaN fails it
    bad = ~(cp_sessions.plugin_hours > 0)
    if bad.any():
        raise ValueError(f"session {cp_sessions.event_id[bad][0]} has non-positive plugin_hours")
    rates = cp_sessions.energy_kwh / cp_sessions.plugin_hours
    if percentile is None:
        return float(rates.max())
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    return float(np.percentile(rates, percentile))


def _overlap_free(cp: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Mask of the sessions kept when, in order, each charger drops any
    session that starts before its most recently kept one ends.
    Deterministic: the earlier session wins.  Rows are in (cp, start)
    order.

    Only a row that starts before its charger's previous row ends can be
    dropped.  When that previous row is kept, it is the last kept one, and
    the row starts the chain of rows dropped for starting before it ends.
    When it was dropped, an earlier chain has decided the row already.
    """
    keep = np.ones(len(start), dtype=bool)
    suspects = np.flatnonzero((cp[1:] == cp[:-1]) & (start[1:] < end[:-1])) + 1
    # each suspect's charger ends before row `last`
    lasts = np.searchsorted(cp, cp[suspects], side="right")
    for i, last in zip(suspects.tolist(), lasts.tolist()):
        if keep[i - 1]:
            stop = i + int(np.searchsorted(start[i:last], end[i - 1]))
            keep[i:stop] = False
    return keep


def _pop(sessions: Sessions, name: str) -> np.ndarray:
    """The column name of sessions, which is left holding an empty one."""
    column = getattr(sessions, name)
    setattr(sessions, name, np.empty(0, column.dtype))
    return column


def _kept_order(sessions: Sessions, cp: np.ndarray, over: np.ndarray) -> np.ndarray:
    """The rows clean_sessions keeps, in (charger, start, event_id) order,
    ties in input order: the rows not over max_hours, less the overlap
    conflicts.  cp holds each row's charger rank and over marks the rows
    over max_hours.  The sort's temporaries are freed on return, before
    clean_sessions gathers the columns."""
    # rows over max_hours sort last and are cut off; the sort is stable
    order = np.lexsort((sessions.event_id, sessions.start, cp, over))
    order = order[: len(order) - int(over.sum())]
    return order[_overlap_free(cp[order], sessions.start[order], sessions.end[order])]


def clean_sessions(
    sessions: Sessions,
    min_sessions: int = MIN_SESSIONS,
    max_hours: float = MAX_HOURS,
    p_max_percentile: float | None = None,
) -> tuple[list[ChargePoint], CleaningReport]:
    """Apply the cleaning rules and group the survivors by charge point.

    In order: drop sessions longer than max_hours, drop overlap conflicts
    within each charger, then drop chargers left with fewer than
    min_sessions.  Total cleaning: every input session lands in exactly one
    report bucket.  Chargers come in sorted() order of id, each one's
    sessions in (start, event_id) order, ties in input order.

    clean_sessions takes the rows of sessions, which it leaves empty: it
    gathers each column by the kept order and replaces that column by an
    empty one before it gathers the next, so the input table and the
    cleaned one are never both whole.
    """
    report = CleaningReport(
        total_records=len(sessions), max_hours=max_hours, min_sessions=min_sessions
    )
    over = sessions.plugin_hours > max_hours
    report.removed_over_max_hours = int(over.sum())

    # the id table sorted, and each row's charger rank in it by one take
    ids = sorted(sessions.cp_ids)
    rank = dict(zip(ids, range(len(ids))))
    ranks = np.fromiter(map(rank.__getitem__, sessions.cp_ids), np.intc, len(ids))
    cp = ranks[_pop(sessions, "cp_code")]
    index = _kept_order(sessions, cp, over)
    report.removed_overlapping = len(over) - report.removed_over_max_hours - len(index)
    cp = cp[index]
    columns = {name: _pop(sessions, name)[index] for name in _DTYPES if name != "cp_code"}
    edges = np.searchsorted(cp, np.arange(len(ids) + 1)).tolist()
    # each charger's table names its own id alone: its codes are a view of
    # one column of 0s
    zeros = np.zeros(max(map(operator.sub, edges[1:], edges), default=0), np.intc)

    charge_points: list[ChargePoint] = []
    for cp_id, lo, hi in zip(ids, edges, edges[1:]):
        if lo == hi:  # every session of the charger was over max_hours or rejected
            continue
        if hi - lo < min_sessions:
            report.removed_small_cp_points += 1
            report.removed_small_cp_sessions += hi - lo
            continue
        kept = Sessions(
            **{name: column[lo:hi] for name, column in columns.items()},
            cp_code=zeros[: hi - lo],
            cp_ids=(cp_id,),
        )
        charge_points.append(ChargePoint(cp_id, derive_p_max(kept, p_max_percentile), kept))
        report.retained_sessions += hi - lo

    report.retained_charge_points = len(charge_points)
    return charge_points, report
