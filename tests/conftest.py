"""Shared builders for synthetic sessions and chargepoint CSV files."""

import math
from collections import namedtuple
from datetime import datetime, timedelta

import numpy as np
import pytest

from smartcharge.aggregation import SECONDS_PER_DAY
from smartcharge.dataset import Sessions

EPOCH = datetime(1970, 1, 1)
# 2017-01-01 00:00:00, matching the source data's year
BASE_EPOCH = int((datetime(2017, 1, 1) - EPOCH).total_seconds())


# one session as a row: the Sessions columns, with the charger as its id
Row = namedtuple("Row", ["event_id", "cp_id", "start", "end", "energy_kwh", "plugin_hours"])


def make_session(
    cp_id="CP1",
    start=BASE_EPOCH,
    plugin_hours=10.0,
    energy_kwh=7.0,
    event_id=1,
):
    """Session row with end derived from plugin_hours (always consistent)."""
    end = start + round(plugin_hours * 3600)
    return Row(
        event_id=event_id,
        cp_id=cp_id,
        start=start,
        end=end,
        energy_kwh=energy_kwh,
        plugin_hours=plugin_hours,
    )


def table(rows):
    """Session rows, in order, as one Sessions table whose id table lists
    each id once."""
    columns = dict(zip(Row._fields, map(list, zip(*rows)))) or dict.fromkeys(Row._fields, [])
    ids = list(dict.fromkeys(columns["cp_id"]))
    code = {cp_id: i for i, cp_id in enumerate(ids)}
    columns["cp_code"] = [code[cp_id] for cp_id in columns.pop("cp_id")]
    return Sessions(**columns, cp_ids=ids)


def cp_ids(sessions):
    """Each session's charger id."""
    return [sessions.cp_ids[code] for code in sessions.cp_code.tolist()]


def rows(sessions):
    """A Sessions table as a list of rows of Python scalars."""
    columns = (cp_ids(sessions) if f == "cp_id" else getattr(sessions, f).tolist() for f in Row._fields)
    return [Row(*r) for r in zip(*columns)]


def csv_row(event_id, cp_id, start_epoch, duration_text, energy_text):
    start = EPOCH + timedelta(seconds=start_epoch)
    end = start + timedelta(seconds=round(float(duration_text) * 3600))
    return (
        f"{event_id},{cp_id},{start.strftime('%d/%m/%Y')},{start.strftime('%H:%M:%S')},"
        f"{end.strftime('%d/%m/%Y')},{end.strftime('%H:%M:%S')},{energy_text},{duration_text}"
    )


CSV_HEADER = "EventID,CPID,StartDate,StartTime,EndDate,EndTime,Energy,Duration"


def synth_fleet_csv(
    n_cps=6,
    sessions_per_cp=14,
    seed=0,
    zero_energy_prob=0.0,
):
    """Synthetic fleet in the source CSV format.

    Each charge point has a true power rate and one session charged at that
    full rate for its whole plugin window, so the derived max power matches
    the rate; all other sessions leave slack, mirroring the real data.
    """
    rng = np.random.default_rng(seed)
    lines = [CSV_HEADER]
    event_id = 1000
    for c in range(n_cps):
        cp_id = f"CP{c:03d}"
        rate_kw = float(rng.uniform(3.0, 10.0))
        t = BASE_EPOCH + int(rng.integers(0, 5 * 86400))
        defining = int(rng.integers(0, sessions_per_cp))
        for i in range(sessions_per_cp):
            plugin = float(rng.uniform(1.0, 20.0))
            duration_text = f"{plugin:.2f}"
            plugin = float(duration_text)
            if i == defining:
                energy = rate_kw * plugin
            elif zero_energy_prob and rng.random() < zero_energy_prob:
                energy = 0.0
            else:
                energy = rate_kw * plugin * float(rng.uniform(0.1, 0.9))
            lines.append(csv_row(event_id, cp_id, t, duration_text, f"{energy:.3f}"))
            event_id += 1
            t += round(plugin * 3600) + int(rng.uniform(0.5, 30.0) * 3600)
    return "\n".join(lines) + "\n"


def brute_force_profile(pieces):
    """Each piece's overlap with every second it touches, added second by
    second: the layout oracle accumulate() must match."""
    slots = np.zeros(SECONDS_PER_DAY)
    for t0, t1, kw in pieces:
        s = np.arange(math.floor(t0), math.ceil(t1))
        overlap = np.minimum(t1, s + 1.0) - np.maximum(t0, s)
        # add.at adds repeated slots one at a time, in order
        np.add.at(slots, s % SECONDS_PER_DAY, kw * overlap / 3600.0)
    return slots


@pytest.fixture
def fleet_csv(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(synth_fleet_csv())
    return str(path)
