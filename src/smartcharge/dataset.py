"""Chargepoint session CSV parsing, cleaning and per-charger power derivation.

The input format is the UK domestic chargepoint export: one row per charging
event with separate date/time columns, dispensed energy in kWh and plugin
duration in decimal hours.  The Duration column is authoritative for the
plugin duration; the end-start timestamps are kept for placing sessions on
the calendar and for a consistency check against the Duration column.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array
from dataclasses import dataclass, fields
from datetime import date
from typing import TextIO

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


@dataclass(frozen=True, eq=False)
class Sessions:
    """Charging events as columns, one entry per session; any sequences
    given become arrays of the column's dtype (_DTYPES).

    start/end are naive seconds since 1970-01-01 00:00:00 (no timezone; the
    source data carries none).  plugin_hours comes from the Duration column
    and is the authoritative session length.  cp_id holds str objects; the
    parser stores each distinct id once and every row refers to it.
    """

    event_id: np.ndarray
    cp_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    energy_kwh: np.ndarray
    plugin_hours: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            column = np.asarray(getattr(self, f.name), dtype=_DTYPES[f.name])
            object.__setattr__(self, f.name, column)

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, key) -> Sessions:
        """The sessions key selects (a slice or a mask), in every column.
        An integer selects one session as 0-d columns, which is what
        iterating over a table yields."""
        return Sessions(*(getattr(self, f.name)[key] for f in fields(self)))


_DTYPES = {
    "event_id": np.int64,
    "cp_id": object,
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
    raw: str


@dataclass
class ChargePoint:
    """A charger with its maximum observed power rate and ordered sessions."""

    cp_id: str
    p_max_kw: float
    sessions: Sessions

    @property
    def usable(self) -> bool:
        """False when every session dispensed zero energy (no derivable rate)."""
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


def _parse_instant(date_text: str, time_text: str) -> int:
    """DD/MM/YYYY + HH:MM:SS -> naive epoch seconds."""
    hh, mm, ss = map(int, time_text.split(":"))
    if not (0 <= hh < 24 and 0 <= mm < 60 and 0 <= ss < 60):
        raise ValueError(f"time out of range: {time_text!r}")
    return _epoch_day(date_text) * 86400 + hh * 3600 + mm * 60 + ss


def parse_sessions(stream: TextIO) -> tuple[Sessions, list[ParseError]]:
    """Parse the chargepoint CSV into sessions plus a list of rejected rows.

    Malformed rows are collected with a reason, never silently dropped.
    A missing or wrong header is fatal (ValueError): nothing downstream can
    be trusted if the columns are not what they claim.
    """
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
    errors: list[ParseError] = []

    def reject(line_number: int, reason: str, row: list[str]) -> None:
        errors.append(ParseError(line_number, reason, ",".join(row)))

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
            start = _parse_instant(sd, st)
            end = _parse_instant(ed, et)
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
        cp_id=np.array(list(cp_codes), dtype=object)[np.frombuffer(cps, dtype=np.intc)],
        start=np.frombuffer(starts, dtype=np.int64),
        end=np.frombuffer(ends, dtype=np.int64),
        energy_kwh=np.frombuffer(energies, dtype=np.float64),
        plugin_hours=np.frombuffer(plugins, dtype=np.float64),
    )
    return sessions, errors


def parse_sessions_path(path) -> tuple[Sessions, list[ParseError]]:
    """parse_sessions on a UTF-8 file, whatever the locale; a byte-order
    mark, as spreadsheet exports write, is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return parse_sessions(fh)


def derive_p_max(cp_sessions: Sessions, percentile: float | None = None) -> float:
    """Maximum observed session-average power of one charge point, in kW.

    0.0 means every session dispensed zero energy; such chargers cannot be
    simulated (no power rate exists to charge at).

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
    Deterministic: the earlier session wins."""
    keep = np.ones(len(start), dtype=bool)
    last_cp, last_end = -1, 0
    for i, (c, t0, t1) in enumerate(zip(cp.tolist(), start.tolist(), end.tolist())):
        if c == last_cp and t0 < last_end:
            keep[i] = False
        else:
            last_cp, last_end = c, t1
    return keep


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
    """
    report = CleaningReport(
        total_records=len(sessions), max_hours=max_hours, min_sessions=min_sessions
    )
    over = sessions.plugin_hours > max_hours
    report.removed_over_max_hours = int(over.sum())
    sessions = sessions[~over]

    ids = sorted(set(sessions.cp_id.tolist()))
    rank = dict(zip(ids, range(len(ids))))
    cp = np.fromiter(map(rank.__getitem__, sessions.cp_id), dtype=np.intp, count=len(sessions))
    order = np.lexsort((sessions.event_id, sessions.start, cp))  # stable
    sessions, cp = sessions[order], cp[order]
    keep = _overlap_free(cp, sessions.start, sessions.end)
    report.removed_overlapping = len(keep) - int(keep.sum())
    sessions, cp = sessions[keep], cp[keep]

    charge_points: list[ChargePoint] = []
    edges = np.searchsorted(cp, np.arange(len(ids) + 1)).tolist()
    for cp_id, lo, hi in zip(ids, edges, edges[1:]):
        if hi - lo < min_sessions:
            report.removed_small_cp_points += 1
            report.removed_small_cp_sessions += hi - lo
            continue
        kept = sessions[lo:hi]
        charge_points.append(ChargePoint(cp_id, derive_p_max(kept, p_max_percentile), kept))
        report.retained_sessions += hi - lo

    report.retained_charge_points = len(charge_points)
    return charge_points, report
