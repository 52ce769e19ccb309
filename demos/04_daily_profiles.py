#!/usr/bin/env python3
"""Aggregate per-session power profiles into 1-second daily energy profiles.

Every session's constant-power pieces are spread over the 86,400 seconds of
the day (calendar days folded together), which keeps the profile's total
energy exactly equal to the energy delivered and gives honest peak numbers.
A charger's pieces under one strategy form one profile, built in one call.
"""

from datetime import datetime

import numpy as np

from smartcharge import (
    ChargingPolicy,
    HistoryArrays,
    Sessions,
    accumulate,
    adaptive_profile,
    oracle_profile,
    peak_reduction,
    raw_profile,
    simulate_session,
)

rng = np.random.default_rng(3)
p_max = 7.0
policy = ChargingPolicy(0.4, 0.12)

base = int((datetime(2017, 1, 1) - datetime(1970, 1, 1)).total_seconds())
rows = []
for day in range(60):
    # evening arrival, overnight stay: the classic domestic pattern
    arrival = base + day * 86400 + int(rng.normal(18.5, 1.5) * 3600)
    plugin = float(rng.uniform(8.0, 14.0))
    energy = float(rng.uniform(4.0, 7.0 * 2.5))
    rows.append((day, 0, arrival, arrival + round(plugin * 3600), energy, plugin))
# the rows transposed: one column per Sessions column, charger code 0 naming "CP"
sessions = Sessions(*zip(*rows), cp_ids=["CP"])

# the charger's sessions as arrays: one simulation, one profile per strategy
charger = HistoryArrays(sessions.energy_kwh, sessions.plugin_hours, p_max)
start = sessions.start
outcome = simulate_session(charger, policy.t_boost_max_hours, policy.p_rate)
profiles = {
    "raw": accumulate(raw_profile(start, charger.e_target, charger.plugin, p_max)),
    "ideal": accumulate(oracle_profile(start, charger.e_target, charger.plugin)),
    "two-phase": accumulate(adaptive_profile(start, outcome, p_max, policy.p_rate)),
}
target = sum(charger.e_target.tolist())
delivered = {"raw": target, "ideal": target, "two-phase": sum(outcome.e_total_kwh.tolist())}

print("60 days of one charge point, folded into one daily profile\n")
print(f"{'strategy':>10} {'peak kW':>8} {'at':>9} {'total kWh':>10}")
for name, prof in profiles.items():
    peak_s = prof.peak_second_of_day()
    hh, rem = divmod(peak_s, 3600)
    mm = rem // 60
    print(
        f"{name:>10} {prof.peak_kw():8.2f} {hh:02d}:{mm:02d}:{rem % 60:02d} "
        f"{prof.total_energy_kwh():10.2f}"
    )
    assert abs(prof.total_energy_kwh() - delivered[name]) < 1e-6 * delivered[name]

print()
print(f"two-phase peak reduction vs raw: {peak_reduction(profiles['two-phase'], profiles['raw']):.1f}%")
print(f"ideal     peak reduction vs raw: {peak_reduction(profiles['ideal'], profiles['raw']):.1f}%")
