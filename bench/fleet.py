"""Seeded synthetic fleet in the chargepoint CSV format, with its ground truth.

The shape follows the test suite's synthetic fleet (one full-rate session per
charger pins its maximum power; every other session leaves slack) and adds
what real exports contain, each at a count the generator records:

- evening-heavy arrivals and a plugin-length tail toward 48 h;
- rows longer than 48 h, removed by cleaning;
- sessions that overlap the previous one on the same charger, removed by
  cleaning;
- zero-energy sessions, kept by cleaning but never learned from;
- chargers with fewer than the minimum session count, removed by cleaning;
- malformed rows of every rejection kind, rejected by the parser.

The ground truth (retained sessions per charger, cleaning counts, rejected
line numbers) is computed here from the generated values, independently of
the program, so the benchmark's checker never trusts the program's reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

HEADER = "EventID,CPID,StartDate,StartTime,EndDate,EndTime,Energy,Duration"
# 2017-01-01 00:00:00 as naive epoch seconds, the source data's year
BASE_EPOCH = 1_483_228_800
DAY = 86_400
MIN_SESSIONS = 10
MAX_HOURS = 48.0

P_TAIL = 0.04  # plugin length drawn from the 20-48 h tail
P_OVER_MAX = 0.01  # extra row longer than 48 h
P_OVERLAP = 0.01  # extra row overlapping the session before it
P_ZERO = 0.02  # zero-energy session
P_MALFORMED = 0.003  # share of malformed rows, each after a valid one
SMALL_CP_EVERY = 50  # one charger below MIN_SESSIONS per this many regular ones


@dataclass(frozen=True)
class TruthSession:
    """A retained session as the parser will read it."""

    event_id: int
    start: int
    end: int
    energy_kwh: float
    plugin_hours: float


@dataclass
class Fleet:
    """Generated CSV text plus everything the checker expects from it."""

    csv_text: str
    # retained sessions per charger, in the cleaner's (start, event_id) order
    sessions: dict[str, list[TruthSession]]
    total_records: int = 0
    removed_over_max_hours: int = 0
    removed_overlapping: int = 0
    removed_small_cp_points: int = 0
    removed_small_cp_sessions: int = 0
    zero_energy_sessions: int = 0
    rejected_lines: list[int] = field(default_factory=list)

    @property
    def retained_sessions(self) -> int:
        return sum(len(s) for s in self.sessions.values())


_DATE_CACHE: dict[int, str] = {}


def _date_text(epoch_day: int) -> str:
    text = _DATE_CACHE.get(epoch_day)
    if text is None:
        d = np.datetime64(epoch_day, "D").astype(object)
        text = f"{d.day:02d}/{d.month:02d}/{d.year:04d}"
        _DATE_CACHE[epoch_day] = text
    return text


def _instant_text(t: int) -> tuple[str, str]:
    day, sec = divmod(t, DAY)
    hh, rem = divmod(sec, 3600)
    mm, ss = divmod(rem, 60)
    return _date_text(day), f"{hh:02d}:{mm:02d}:{ss:02d}"


def _row(event_id, cp_id, start, end, energy_text, duration_text) -> str:
    sd, st = _instant_text(start)
    ed, et = _instant_text(end)
    return f"{event_id},{cp_id},{sd},{st},{ed},{et},{energy_text},{duration_text}"


def _malformed(kind: int, event_id: int, cp_id: str, t: int) -> str:
    """One row the parser rejects; kind cycles through every rejection rule."""
    if kind == 0:
        return ",".join(_row(event_id, cp_id, t, t + 3600, "1.000", "1.00").split(",")[:7])
    if kind == 1:
        return _row("E?", cp_id, t, t + 3600, "1.000", "1.00")
    if kind == 2:
        return f"{event_id},{cp_id},32/13/2017,25:00:00,01/01/2018,00:00:00,1.000,1.00"
    if kind == 3:
        return _row(event_id, cp_id, t, t + 3600, "n/a", "1.00")
    if kind == 4:
        return _row(event_id, cp_id, t, t + 3600, "nan", "1.00")
    if kind == 5:
        return _row(event_id, cp_id, t, t + 3600, "-1.500", "1.00")
    if kind == 6:
        return _row(event_id, cp_id, t, t - 3600, "1.000", "1.00")
    if kind == 7:
        return _row(event_id, cp_id, t, t + 3600, "1.000", "-1.00")
    return _row(event_id, cp_id, t, t + 7200, "1.000", "5.00")


N_MALFORMED_KINDS = 9


_NORMAL = NormalDist()


def stratified(rng, n_positions: int, n: int) -> np.ndarray:
    """(n_positions, n) uniforms, each row a Latin-hypercube sample: one
    draw from each of n equal strata, in random order.

    Row k feeds session k of every charger, so any set of session
    positions (the test split, the sessions after the online warmup) sees
    an evenly spread sample.  That steadies the fleet's aggregate daily
    profile from seed to seed while every session still changes with the
    seed.
    """
    strata = rng.permuted(np.tile(np.arange(n), (n_positions, 1)), axis=1)
    return np.clip((strata + rng.random((n_positions, n))) / n, 1e-9, 1 - 1e-9)


def _arrival_hour(u_evening: float, u_hour: float) -> tuple[float, bool]:
    """Evening-heavy arrival hour: 65% around 18:30, the rest uniform."""
    if u_evening < 0.65:
        return (18.5 + 2.0 * _NORMAL.inv_cdf(u_hour)) % 24.0, True
    return 24.0 * u_hour, False


def _plugin_hours(u: float, evening: bool) -> float:
    """Plugin length with a tail toward 48 h: evening sessions last the
    night, others a few hours."""
    if u < P_TAIL:
        return 20.0 + 27.9 * u / P_TAIL
    u = (u - P_TAIL) / (1.0 - P_TAIL)
    if evening:
        return min(max(12.0 + 3.0 * _NORMAL.inv_cdf(u), 1.0), 20.0)
    return 0.5 + 9.5 * u


def _start_on_or_after(rng, earliest: int, hour: float) -> int:
    """First start at `hour` of day on or after `earliest`, after a random
    number of idle days."""
    day = earliest // DAY + int(rng.geometric(0.5)) - 1
    start = day * DAY + int(hour * 3600.0)
    return start + DAY if start < earliest else start


def _charger_rows(rng, n_sessions: int, u: np.ndarray | None) -> list[tuple]:
    """(start, kind, energy_text, duration_text, end) rows of one charger;
    kind is 'keep', 'over' (longer than 48 h) or 'overlap'.

    u holds the charger's stratified uniforms, shape (n_sessions, 6): arrival
    kind, arrival hour, plugin length, fill, battery cap, and (row 0 only)
    the charger's rate.  None makes a small charger of plain draws and no
    anomalies.
    """
    anomalies = u is not None
    if u is None:
        u = rng.random((n_sessions, 6))
    rate_kw = 3.0 + 7.0 * float(u[0, 5])
    defining = int(rng.integers(0, n_sessions))
    t = BASE_EPOCH + int(rng.integers(0, 5 * DAY))
    rows = []
    for i in range(n_sessions):
        if anomalies and rng.random() < P_OVER_MAX:
            start = _start_on_or_after(rng, t, float(rng.uniform(0.0, 24.0)))
            duration_text = f"{float(rng.uniform(48.5, 72.0)):.2f}"
            end = start + round(float(duration_text) * 3600)
            rows.append((start, "over", f"{float(rng.uniform(5.0, 40.0)):.3f}", duration_text, end))
            t = end + 1800
        u_evening, u_hour, u_plugin, u_fill, u_cap = (float(x) for x in u[i, :5])
        hour, evening = _arrival_hour(u_evening, u_hour)
        start = _start_on_or_after(rng, t, hour)
        if i == defining:
            # a short full-rate top-up pins the charger's maximum power
            duration_text = f"{1.0 + 3.0 * u_plugin:.2f}"
            energy = rate_kw * float(duration_text)
        else:
            duration_text = f"{_plugin_hours(u_plugin, evening):.2f}"
            if anomalies and rng.random() < P_ZERO:
                energy = 0.0
            else:
                fill = 0.05 + 0.85 * u_fill**2
                energy = min(rate_kw * float(duration_text) * fill, 8.0 + 52.0 * u_cap)
        end = start + round(float(duration_text) * 3600)
        rows.append((start, "keep", f"{energy:.3f}", duration_text, end))
        if anomalies and rng.random() < P_OVERLAP:
            o_start = start + max(1, int((end - start) * float(rng.uniform(0.1, 0.9))))
            o_text = f"{float(rng.uniform(0.5, 4.0)):.2f}"
            o_end = o_start + round(float(o_text) * 3600)
            rows.append((o_start, "overlap", f"{float(rng.uniform(1.0, 20.0)):.3f}", o_text, o_end))
        t = end + 1800
    return rows


def generate(n_cps: int, sessions_per_cp: int, seed: int) -> Fleet:
    """Fleet of n_cps regular chargers with sessions_per_cp retained sessions
    each, plus small chargers, removed rows and malformed rows.

    The same arguments always give the same bytes.
    """
    if sessions_per_cp < MIN_SESSIONS:
        raise ValueError(f"sessions_per_cp must be >= {MIN_SESSIONS}")
    rng = np.random.default_rng(seed)
    fleet = Fleet(csv_text="", sessions={})
    n_small = max(1, n_cps // SMALL_CP_EVERY)
    cp_ids = [f"AN{10000 + c:05d}" for c in range(n_cps + n_small)]
    small = {cp_ids[int(i)] for i in rng.choice(len(cp_ids), size=n_small, replace=False)}

    # per regular charger: (session, variable) uniforms; the rate column is
    # stratified across chargers through session 0's row
    u = np.stack([stratified(rng, sessions_per_cp, n_cps) for _ in range(6)], axis=2)

    # (start, kind, energy_text, duration_text, end, cp_id)
    rows = []
    regular = 0
    for cp_id in cp_ids:
        if cp_id in small:
            n = int(rng.integers(3, MIN_SESSIONS))
            fleet.removed_small_cp_points += 1
            fleet.removed_small_cp_sessions += n
            cp_rows = _charger_rows(rng, n, None)
        else:
            cp_rows = _charger_rows(rng, sessions_per_cp, u[:, regular, :])
            regular += 1
        rows.extend(r + (cp_id,) for r in cp_rows)

    # file order is chronological across chargers, and event ids rise with
    # time, as in the source export
    rows.sort(key=lambda r: (r[0], r[5]))
    # malformed rows follow randomly chosen valid ones, at least one of each kind
    n_malformed = max(N_MALFORMED_KINDS, round(P_MALFORMED * len(rows)))
    malformed_after = set(rng.choice(len(rows), size=n_malformed, replace=False).tolist())
    lines = [HEADER]
    event_id = 3_000_000
    for i, (start, kind, energy_text, duration_text, end, cp_id) in enumerate(rows):
        event_id += 1
        lines.append(_row(event_id, cp_id, start, end, energy_text, duration_text))
        fleet.total_records += 1
        if kind == "over":
            fleet.removed_over_max_hours += 1
        elif kind == "overlap":
            fleet.removed_overlapping += 1
        elif cp_id not in small:
            s = TruthSession(event_id, start, end, float(energy_text), float(duration_text))
            fleet.sessions.setdefault(cp_id, []).append(s)
            if s.energy_kwh == 0.0:
                fleet.zero_energy_sessions += 1
        if i in malformed_after:
            event_id += 1
            kind = len(fleet.rejected_lines) % N_MALFORMED_KINDS
            lines.append(_malformed(kind, event_id, cp_id, start))
            fleet.rejected_lines.append(len(lines))  # header is line 1

    fleet.sessions = {cp: fleet.sessions[cp] for cp in sorted(fleet.sessions)}
    for cp_sessions in fleet.sessions.values():
        cp_sessions.sort(key=lambda s: (s.start, s.event_id))
    fleet.csv_text = "\n".join(lines) + "\n"
    return fleet


def p_max_kw(sessions: list[TruthSession]) -> float:
    """A charger's maximum session-average power, the rate it is simulated at."""
    return max(s.energy_kwh / s.plugin_hours for s in sessions)


def offline_test_split(sessions: list[TruthSession], train_fraction: float = 0.8) -> list[TruthSession]:
    """The chronologically last sessions that offline mode replays."""
    return sessions[math.ceil(train_fraction * len(sessions)) :]
