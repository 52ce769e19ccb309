"""Chargepoint session CSV parsing, cleaning and per-charger power derivation.

The input format is the UK domestic chargepoint export: one row per charging
event with separate date/time columns, dispensed energy in kWh and plugin
duration in decimal hours.  The Duration column is authoritative for the
plugin duration; the end-start timestamps are kept for placing sessions on
the calendar and for a consistency check against the Duration column.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, TextIO

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

_EPOCH = datetime(1970, 1, 1)


@dataclass(frozen=True, slots=True)
class Session:
    """One charging event.

    start/end are naive seconds since 1970-01-01 00:00:00 (no timezone; the
    source data carries none).  plugin_hours comes from the Duration column
    and is the authoritative session length.
    """

    event_id: int
    cp_id: str
    start: int
    end: int
    energy_kwh: float
    plugin_hours: float


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
    sessions: list[Session]

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
    max_hours: float = 48.0
    min_sessions: int = 10

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


def _parse_instant(date_text: str, time_text: str) -> int:
    """DD/MM/YYYY + HH:MM:SS -> naive epoch seconds."""
    day, month, year = date_text.split("/")
    hh, mm, ss = time_text.split(":")
    dt = datetime(int(year), int(month), int(day), int(hh), int(mm), int(ss))
    return int((dt - _EPOCH).total_seconds())


def parse_sessions(stream: TextIO) -> tuple[list[Session], list[ParseError]]:
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

    sessions: list[Session] = []
    errors: list[ParseError] = []

    def reject(line_number: int, reason: str, row: list[str]) -> None:
        errors.append(ParseError(line_number, reason, ",".join(row)))

    for line_number, row in enumerate(reader, start=2):
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
        except ValueError:
            reject(line_number, f"bad EventID {evt!r}", row)
            continue
        try:
            start = _parse_instant(sd, st)
            end = _parse_instant(ed, et)
        except (ValueError, IndexError):
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
        sessions.append(
            Session(
                event_id=event_id,
                cp_id=cp_id,
                start=start,
                end=end,
                energy_kwh=energy_kwh,
                plugin_hours=plugin_hours,
            )
        )
    return sessions, errors


def parse_sessions_path(path) -> tuple[list[Session], list[ParseError]]:
    with open(path, newline="") as fh:
        return parse_sessions(fh)


def derive_p_max(
    cp_sessions: Iterable[Session], percentile: float | None = None
) -> float:
    """Maximum observed session-average power of one charge point, in kW.

    0.0 means every session dispensed zero energy; such chargers cannot be
    simulated (no power rate exists to charge at).

    The observed maximum can be inflated by a single noisy record, so a
    percentile (e.g. 99.0) may be given for sensitivity runs; it caps the
    rate at that percentile of the session-average powers.  Off by default:
    with a cap, sessions above it can no longer be fully served.
    """
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


def effective_duration(session: Session, p_max_kw: float) -> float:
    """Hours the session would take at the charger's maximum rate."""
    if p_max_kw <= 0:
        raise ValueError("p_max_kw must be positive")
    return session.energy_kwh / p_max_kw


def _drop_overlaps(sessions: list[Session]) -> tuple[list[Session], int]:
    """Keep sessions in (start, event_id) order, dropping any that overlap
    the most recently kept one.  Deterministic: the earlier session wins."""
    kept: list[Session] = []
    dropped = 0
    for s in sorted(sessions, key=lambda s: (s.start, s.event_id)):
        if kept and s.start < kept[-1].end:
            dropped += 1
            continue
        kept.append(s)
    return kept, dropped


def clean_sessions(
    sessions: Iterable[Session],
    min_sessions: int = 10,
    max_hours: float = 48.0,
    p_max_percentile: float | None = None,
) -> tuple[list[ChargePoint], CleaningReport]:
    """Apply the cleaning rules and group the survivors by charge point.

    In order: drop sessions longer than max_hours, drop overlap conflicts
    within each charger, then drop chargers left with fewer than
    min_sessions.  Total cleaning: every input session lands in exactly one
    report bucket.
    """
    sessions = list(sessions)
    report = CleaningReport(
        total_records=len(sessions), max_hours=max_hours, min_sessions=min_sessions
    )

    by_cp: dict[str, list[Session]] = {}
    for s in sessions:
        if s.plugin_hours > max_hours:
            report.removed_over_max_hours += 1
            continue
        by_cp.setdefault(s.cp_id, []).append(s)

    charge_points: list[ChargePoint] = []
    for cp_id in sorted(by_cp):
        kept, dropped = _drop_overlaps(by_cp[cp_id])
        report.removed_overlapping += dropped
        if len(kept) < min_sessions:
            report.removed_small_cp_points += 1
            report.removed_small_cp_sessions += len(kept)
            continue
        charge_points.append(
            ChargePoint(cp_id, derive_p_max(kept, p_max_percentile), kept)
        )
        report.retained_sessions += len(kept)

    report.retained_charge_points = len(charge_points)
    return charge_points, report
