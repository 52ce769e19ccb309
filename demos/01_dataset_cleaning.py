#!/usr/bin/env python3
"""Parse a chargepoint session CSV, clean it and derive charger power rates.

The input format is one row per charging event:

    EventID,CPID,StartDate,StartTime,EndDate,EndTime,Energy,Duration

with DD/MM/YYYY dates, HH:MM:SS times, kWh energy and decimal-hour duration.
Cleaning removes sessions longer than 48 h, overlap conflicts within a
charger (earliest kept), and chargers left with too few sessions.
"""

import io

from smartcharge import clean_sessions, parse_sessions

CSV = """EventID,CPID,StartDate,StartTime,EndDate,EndTime,Energy,Duration
1,AN00001,01/06/2017,18:00:00,02/06/2017,06:00:00,14.0,12.0
2,AN00001,02/06/2017,18:30:00,03/06/2017,07:30:00,10.5,13.0
3,AN00001,02/06/2017,19:00:00,03/06/2017,01:00:00,4.2,6.0
4,AN00001,03/06/2017,17:45:00,04/06/2017,00:45:00,7.0,7.0
5,AN00001,04/06/2017,18:10:00,07/06/2017,02:10:00,21.0,56.0
6,AN00001,07/06/2017,18:00:00,08/06/2017,06:00:00,3.5,0.5
7,AN00002,01/06/2017,08:00:00,01/06/2017,09:00:00,6.9,1.0
"""

sessions, errors = parse_sessions(io.StringIO(CSV))
print(f"parsed {len(sessions)} sessions, {len(errors)} rejected rows")
for err in errors:
    print(f"  line {err.line_number}: {err.reason}")

# row 3 overlaps row 2, row 5 is a 56 h anomaly, row 6 disagrees with its
# Duration column; charger AN00002 has a single session and is dropped
charge_points, report = clean_sessions(sessions, min_sessions=2)
print()
print(report.to_text())

# each charger's sessions are columns, one entry per session
for cp in charge_points:
    s = cp.sessions
    print(f"{cp.cp_id}: max power {cp.p_max_kw:.2f} kW, {len(s)} sessions")
    for event_id, energy, plugin in zip(
        s.event_id.tolist(), s.energy_kwh.tolist(), s.plugin_hours.tolist()
    ):
        eff = energy / cp.p_max_kw
        print(
            f"  event {event_id}: {energy:5.1f} kWh over "
            f"{plugin:5.2f} h plugged in, {eff:.2f} h at full rate"
        )
