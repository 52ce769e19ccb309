"""Shared builders for synthetic sessions and chargepoint CSV files."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from smartcharge.dataset import Session

EPOCH = datetime(1970, 1, 1)
# 2017-01-01 00:00:00, matching the source data's year
BASE_EPOCH = int((datetime(2017, 1, 1) - EPOCH).total_seconds())


def make_session(
    cp_id="CP1",
    start=BASE_EPOCH,
    plugin_hours=10.0,
    energy_kwh=7.0,
    event_id=1,
):
    """Session with end derived from plugin_hours (always consistent)."""
    end = start + round(plugin_hours * 3600)
    return Session(
        event_id=event_id,
        cp_id=cp_id,
        start=start,
        end=end,
        energy_kwh=energy_kwh,
        plugin_hours=plugin_hours,
    )


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


@pytest.fixture
def fleet_csv(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(synth_fleet_csv())
    return str(path)
