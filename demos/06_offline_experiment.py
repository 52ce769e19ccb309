#!/usr/bin/env python3
"""End-to-end offline experiment on a generated fleet.

Writes a synthetic chargepoint CSV, trains one policy per charger on the
chronologically first 80% of its sessions, replays the last 20% under the
raw / ideal / learned strategies and emits the full report bundle.  This is
exactly what the `smartcharge` command line does; here the same run is
driven through the library API.
"""

import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from smartcharge import ExperimentConfig, run_offline
from smartcharge.harness import emit_offline_reports

rng = np.random.default_rng(12)
base = int((datetime(2017, 1, 1) - datetime(1970, 1, 1)).total_seconds())

rows = ["EventID,CPID,StartDate,StartTime,EndDate,EndTime,Energy,Duration"]
event = 1
for c in range(12):
    rate = float(rng.uniform(3.5, 7.5))
    t = base + int(rng.integers(0, 3 * 86400))
    for i in range(40):
        # one short full-rate top-up pins the max observed rate; it sits in
        # the test split, the way a year's most intense session rarely lands
        # inside a short training window.  Everything else leaves slack.
        if i == 37:
            plugin, frac = 3.0, 1.0
        else:
            plugin, frac = round(float(rng.uniform(6.0, 16.0)), 2), float(rng.uniform(0.08, 0.4))
        energy = round(rate * plugin * frac, 3)
        start = datetime(1970, 1, 1) + timedelta(seconds=t)
        end = start + timedelta(seconds=round(plugin * 3600))
        rows.append(
            f"{event},CP{c:03d},{start:%d/%m/%Y},{start:%H:%M:%S},"
            f"{end:%d/%m/%Y},{end:%H:%M:%S},{energy},{plugin}"
        )
        event += 1
        t += round(plugin * 3600) + int(rng.uniform(4, 30) * 3600)

workdir = Path(tempfile.mkdtemp(prefix="smartcharge-demo-"))
csv_path = workdir / "fleet.csv"
csv_path.write_text("\n".join(rows) + "\n")

cfg = ExperimentConfig(
    input_path=str(csv_path),
    history=30,
    seed=0,
    output_dir=str(workdir / "out"),
)
results = run_offline(cfg)
paths = emit_offline_reports(results, cfg.output_dir)

print(f"fleet of {len(results.cp_rows)} chargers, reports in {cfg.output_dir}\n")
rl = results.metrics("rl")


def percent(value):
    """A peak reduction is None when the raw profile has no peak."""
    return "n/a" if value is None else f"{value:.1f}%"


print(f"peak reduction vs raw : {percent(results.peak_reduction('rl'))} (ideal {percent(results.peak_reduction('oracle'))})")
print(f"energy deficit        : {rl.total_deficit_kwh:.1f} kWh ({rl.deficit_percent:.2f}% of target)")
print(f"chargers > 10% deficit: {100 * rl.cp_deficit_over_10pct_fraction:.1f}%")
print(f"mean boost / slow     : {results.mean_boost_hours():.2f} h / {results.mean_slow_hours():.2f} h")
print(f"raw effective duration: {results.mean_raw_effective_hours():.2f} h")
print()
print("emitted files:")
for name in sorted(paths):
    print(f"  {paths[name]}")
