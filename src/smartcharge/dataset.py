"""Chargepoint session CSV parsing, cleaning and per-charger power derivation.

The input format is the UK domestic chargepoint export: one row per charging
event with separate date/time columns, dispensed energy in kWh and plugin
duration in decimal hours.  The Duration column is authoritative for the
plugin duration; the end-start timestamps are kept for placing sessions on
the calendar and for a consistency check against the Duration column.

The parse reads the file in chunks of records.  Each chunk's columns are
converted in bulk: numbers through int() and float() in one pass per column,
clocks as ASCII digits, each distinct date and CPID once; a text the bulk
form misses is read again stripped, on its own.  _parse_chunk states each
parsing rule once, as a mask over the chunk with its reason, and a rejected
row gets the reason of the first rule it fails.
Sessions name their charger by an integer code into a table of ids, so each
id string is stored once, numbered in order of first appearance.  Cleaning
sorts that table, remaps the codes with one take, orders, caps and
de-overlaps the sessions as one index and gathers each column once through
it, releasing the parsed column before the next.

With several workers, parse_sessions_path parses a file in byte ranges
when every line of it is one record: it holds no quote and no CR that is
not followed by LF.  One scan in bounded blocks checks that, counts the
lines and cuts the bytes after the header at line ends, into a multiple of
the worker count of ranges of at most about _RANGE_BYTES each.  Each range
is streamed through the same chunks and rules, numbering lines from its
first, and writes its columns and id table to a file of its own.  Then the
ranges are merged in order: each file is read straight into its rows of
the table's columns, and its codes are remapped into one id table.  The
result equals the serial parse's; any other file, and any range that
raises, takes the serial parse.
"""

from __future__ import annotations

import codecs
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

# Records per parse chunk.  A chunk's rows, as lists of strings, are the
# parse's working memory, and the process keeps the memory once it has it.
# On the benchmark's predict fleet (41k rows; 43.9 MB before chunking) a
# run's peak RSS is 41.2 MB at 128 records, 42.0 at 256, 42.8 at 1,024 and
# 74.5 at 65,536; parse throughput is flat from 128 records up and falls
# by a third at 64.
_CHUNK_RECORDS = 128
# bytes per read of the scan that cuts a file into byte ranges
_SCAN_BLOCK = 1 << 16
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


def _chunks(reader, lines, size: int, offset: int):
    """Yield the reader's remaining records in lists of up to size, each
    with its records' first line numbers and then the number of the line
    after its last record, so record i spans lines [starts[i], starts[i+1]);
    the reader's first line is line offset + 1.

    lines is a tee of the reader's source.  After each chunk it holds that
    chunk's lines, which are read again, to number the records, only when
    some record spans several lines (a quoted field holding a line break).

    The csv module ends a quoted field that is never closed at the end of
    the input, with every later line in it; that is a ValueError here,
    naming the lines of the record.
    """
    numbered = reader.line_num
    # level the tee with the reader (itertools' consume recipe)
    next(islice(lines, numbered, numbered), None)
    last = []  # the last record's lines
    while rows := list(islice(reader, size)):
        first, count = numbered + 1, reader.line_num - numbered
        numbered = reader.line_num
        if count == len(rows):  # one line per record
            next(islice(lines, count - 1, count - 1), None)
            last = [next(lines)]
            yield rows, range(offset + first, offset + first + count + 1)
        else:
            chunk = list(islice(lines, count))
            again = csv.reader(chunk)
            starts = [0, *(again.line_num for _ in again)][:-1]
            last = chunk[starts[-1] :]
            yield rows, [*(offset + first + n for n in starts), offset + numbered + 1]
    # a line holding one quote closes an open quoted field, and is a record
    # of its own after a closed one
    if last and len(list(csv.reader([*last, '"']))) == 1:
        lines_named = f"{offset + numbered - len(last) + 1}-{offset + numbered}"
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
    # each digit's worth in seconds; the colons' is 0
    seconds = digits @ np.array([36000, 3600, 0, 600, 60, 0, 10, 1])
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


def _parse_chunk(
    rows: list[list[str]],
    line_starts: Sequence[int],
    cp_codes: dict[str, int],
    text_codes: dict[str, int],
    errors: list[ParseError],
) -> tuple[np.ndarray, ...]:
    """One chunk's accepted rows, in input order, as one array per Sessions
    column; cp_id as codes into cp_codes (id -> code), which gains any new
    id, numbered in order of first appearance.  text_codes caches each CPID
    field text's code, -1 for a text that is no usable id.  Each rejection
    is appended to errors.

    The columns are converted in bulk, and the parsing rules are stated
    once, as masks over the chunk with their reasons, in the order they
    apply.  A row is kept when it passes every rule; a rejected row gets
    the reason of the first rule it fails, filled in from its stripped
    fields (named as in the header) and its values, and is numbered by its
    first line; line_starts holds each record's, then the line after the
    last record.  The reason of a record that spans lines names them.  A
    blank record is skipped.
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
    for text in [t for t in dict.fromkeys(cp) if t not in text_codes]:
        # a stripped id is usable when it is not empty and the reports,
        # which write ids unquoted, can hold it as one CSV field
        cp_id = text.strip()
        usable = cp_id and _CSV_SPECIALS.isdisjoint(cp_id)
        text_codes[text] = cp_codes.setdefault(cp_id, len(cp_codes)) if usable else -1
    codes = np.fromiter(map(text_codes.__getitem__, cp), np.intc, n)

    day_of = {text: _day_number(text.strip()) for text in {*sd, *ed}}
    instants, ok_instants = [], np.ones(n, dtype=bool)
    for dates, clocks in ((sd, st), (ed, et)):
        days = np.fromiter(map(day_of.__getitem__, dates), np.int64, n)
        seconds, ok_clock = _clock_seconds(clocks)
        instants.append(days * 86400 + seconds)
        ok_instants &= ok_clock & (days != _NO_DAY)
    start, end = instants
    hours = (end - start) / 3600.0

    # nan fails every comparison
    with np.errstate(invalid="ignore"):
        rules = [
            (sizes == 8, "expected 8 fields, got {size}"),
            (ok_event_id, "bad EventID {EventID!r}"),
            (codes >= 0, "bad CPID {CPID!r}"),
            (ok_instants, "bad date/time {StartDate!r} {StartTime!r} / {EndDate!r} {EndTime!r}"),
            (ok_energy & ok_plugin, "bad Energy/Duration {Energy!r}/{Duration!r}"),
            (np.isfinite(energy) & np.isfinite(plugin), "non-finite Energy/Duration"),
            (energy >= 0, "negative energy {energy}"),
            (end > start, "end instant not after start"),
            (plugin > 0, "non-positive duration {plugin}"),
            (
                np.abs(plugin - hours) <= DURATION_TOLERANCE_HOURS,
                "Duration {plugin} disagrees with end-start {hours:.4f} h",
            ),
        ]
    ok = np.logical_and.reduce([mask for mask, _ in rules])
    for i in np.flatnonzero(~ok & (sizes > 0)).tolist():
        reason = next(reason for mask, reason in rules if not mask[i])
        values = dict(zip(EXPECTED_HEADER, map(str.strip, rows[i])), size=len(rows[i]))
        values.update(energy=float(energy[i]), plugin=float(plugin[i]), hours=float(hours[i]))
        reason = reason.format_map(values)
        first, last = line_starts[i], line_starts[i + 1] - 1
        if last > first:  # a quoted field took in line breaks
            reason += f" (record spans lines {first}-{last})"
        errors.append(ParseError(first, reason))
    # -0.0 passes the sign check; + 0.0 stores it as 0.0
    return event_id[ok], codes[ok], start[ok], end[ok], energy[ok] + 0.0, plugin[ok]


def _check_header(header: list[str] | None) -> None:
    """A missing or wrong header is fatal: nothing downstream can be
    trusted if the columns are not what they claim."""
    if header is None:
        raise ValueError("empty input: expected header row")
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise ValueError(f"unexpected header {header!r}; expected {','.join(EXPECTED_HEADER)}")


def _parse_records(reader, lines, offset: int):
    """Parse the reader's remaining records, whose first line is line
    offset + 1; lines is a tee of the reader's source.  Returns the
    accepted rows' columns, in _DTYPES order, as compact arrays whose codes
    index the returned id table, and the rejections."""
    # accepted rows, appended chunk by chunk; a row's charger is the
    # position of its id in cp_codes
    columns = tuple(map(array, "qiqqdd"))
    cp_codes: dict[str, int] = {}
    text_codes: dict[str, int] = {}
    errors: list[ParseError] = []
    parsed = reader.line_num  # the last line of the records parsed so far
    try:
        for rows, line_starts in _chunks(reader, lines, _CHUNK_RECORDS, offset):
            accepted = _parse_chunk(rows, line_starts, cp_codes, text_codes, errors)
            for column, values in zip(columns, accepted):
                column.frombytes(values.tobytes())
            parsed = reader.line_num
    except csv.Error as exc:
        lines_named = f"{offset + parsed + 1}-{offset + reader.line_num}"
        raise ValueError(f"unreadable CSV in lines {lines_named}: {exc}") from None
    return columns, tuple(cp_codes), errors


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
    columns, cp_ids, errors = _parse_records(reader, lines, 0)
    arrays = (np.frombuffer(column, dtype) for column, dtype in zip(columns, _DTYPES.values()))
    return Sessions(*arrays, cp_ids=cp_ids), errors


def _line_ranges(path, workers: int) -> list[tuple[int, int, int]] | None:
    """Ranges of the lines after the header, of about equal bytes, as
    (first byte, line count, lines before): up to the least multiple of
    workers that keeps a range within about _RANGE_BYTES.  None when a line
    need not be one record (the file holds a quote, or a CR not followed by
    LF), the header is not the expected one or not one block long, or no
    line follows it.  One scan of the file in blocks of _SCAN_BLOCK bytes."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        block = fh.read(_SCAN_BLOCK)
        first = len(codecs.BOM_UTF8) if block.startswith(codecs.BOM_UTF8) else 0
        body = block.find(b"\n", first) + 1
        if not 0 < body < size:
            return None
        try:
            _check_header(next(csv.reader([block[first:body].decode()]), None))
        except (ValueError, csv.Error):
            return None
        n = workers * -(-(size - body) // (workers * _RANGE_BYTES))
        targets = [body + (size - body) * k // n for k in range(1, n)]
        # each range's first byte and the lines before it
        cuts, newlines, pos = [(body, 1)], 0, 0
        while block:
            if block.endswith(b"\r"):
                block += fh.read(1)
            if b'"' in block or block.count(b"\r") != block.count(b"\r\n"):
                return None
            while targets and targets[0] < pos + len(block):
                i = block.find(b"\n", max(targets[0] - pos, 0))
                if i < 0:
                    break
                cuts.append((pos + i + 1, newlines + block.count(b"\n", 0, i + 1)))
                targets = [t for t in targets if t > pos + i]
            newlines += block.count(b"\n")
            pos += len(block)
            last = block[-1:]
            block = fh.read(_SCAN_BLOCK)
    # a last line without a line break is a line too
    cuts.append((pos, newlines + (last != b"\n")))
    return [
        (lo, hi_lines - lo_lines, lo_lines)
        for (lo, lo_lines), (hi, hi_lines) in zip(cuts, cuts[1:])
        if hi > lo
    ]


def _parse_range(path, first_byte: int, count: int, offset: int, out_path: str):
    """_parse_records over count lines of the file from first_byte on,
    which follow offset lines, each line read and decoded on its own.

    The columns, back to back in _DTYPES order, then the id table, each id
    ended by a line break (no usable id holds one), go to the file
    out_path: a process pool's parent would receive them in its result
    thread, whose freed memory its other threads cannot reuse.  Returns the
    number of rows, the id table's size in bytes and the rejections."""
    with open(path, "rb") as fh:
        fh.seek(first_byte)
        source, lines = tee(map(bytes.decode, islice(fh, count)))
        columns, cp_ids, errors = _parse_records(csv.reader(source), lines, offset)
    ids = "".join(f"{cp_id}\n" for cp_id in cp_ids).encode()
    with open(out_path, "wb") as out:
        for column in columns:
            column.tofile(out)
        out.write(ids)
    return len(columns[0]), len(ids), errors


def _merge(parts: Iterable, out_paths: Sequence[str]) -> tuple[Sessions, list[ParseError]]:
    """One table of the ranges' rows, in range order, and their rejections,
    from the ranges' _parse_range results and files.  Once every range is
    parsed, each range's file is read straight into its rows of the table's
    columns, then its codes are remapped from its own id table to the
    merged one, which lists each id once, in order of first appearance."""
    parts = list(parts)
    columns = {name: np.empty(sum(p[0] for p in parts), dtype) for name, dtype in _DTYPES.items()}
    ids: dict[str, int] = {}
    lo = 0
    for (rows, ids_size, _), out_path in zip(parts, out_paths):
        with open(out_path, "rb") as fh:
            for column in columns.values():
                fh.readinto(memoryview(column[lo : lo + rows]).cast("B"))
            part_ids = fh.read(ids_size).decode().split("\n")[:-1]
        os.remove(out_path)
        remap = np.array([ids.setdefault(cp_id, len(ids)) for cp_id in part_ids], np.intc)
        codes = columns["cp_code"][lo : lo + rows]
        codes[:] = remap[codes]
        lo += rows
    errors = [error for _, _, part_errors in parts for error in part_errors]
    return Sessions(**columns, cp_ids=tuple(ids)), errors


def parse_sessions_path(
    path, map_ranges=starmap, workers: int = 1
) -> tuple[Sessions, list[ParseError]]:
    """parse_sessions on a UTF-8 file, whatever the locale; a byte-order
    mark, as spreadsheet exports write, is skipped.

    With workers > 1, a file whose every line is one record is parsed in
    byte ranges through map_ranges, which has itertools.starmap's contract
    (such as a map over a process pool that keeps the results in order),
    and merged, with the serial parse's result; each range's parsed rows
    pass through a file in a temporary directory, about 44 bytes a row.
    Any other file, and a range that raises, is parsed serially, which
    raises what the serial parse raises.
    """
    cuts = _line_ranges(path, workers) if workers > 1 else None
    if cuts:
        try:
            with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
                out_paths = [os.path.join(tmp, str(k)) for k in range(len(cuts))]
                calls = [(path, *cut, out) for cut, out in zip(cuts, out_paths)]
                return _merge(map_ranges(_parse_range, calls), out_paths)
        except (ValueError, OSError):
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
    bad = cp_sessions.plugin_hours <= 0
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
