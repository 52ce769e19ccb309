#!/usr/bin/env python3
"""The two-phase charging function on a charger's sessions.

A policy is (max boost duration, slow-rate coefficient): the charger runs at
full power for the boost phase, then at coefficient * max power until the
session ends or the target energy is met.  Raw charging and the
known-duration ideal spread are the two baselines.  A charger's sessions are
simulated as arrays, all in one call, and each strategy's power pieces come
back as one (pieces, 3) array of (start_s, end_s, kW) rows.
"""

from datetime import datetime

import numpy as np

from smartcharge import (
    ChargingPolicy,
    HistoryArrays,
    Sessions,
    adaptive_profile,
    oracle_profile,
    raw_profile,
    simulate_session,
)

start = int((datetime(2017, 6, 1, 18, 0) - datetime(1970, 1, 1)).total_seconds())
day = 86_400
# a 10 h overnight session, then a tight one a day later that a gentle
# policy cannot fully serve
sessions = Sessions(
    event_id=[1, 2],
    cp_code=[0, 0],
    start=[start, start + day],
    end=[start + 10 * 3600, start + day + 2 * 3600],
    energy_kwh=[7.0, 14.0],
    plugin_hours=[10.0, 2.0],
    cp_ids=["AN00001"],
)
p_max = 7.0

print(f"session: {sessions.energy_kwh[0]} kWh target, {sessions.plugin_hours[0]} h plugged in")
print(f"charger max rate: {p_max} kW")
print()

policy = ChargingPolicy(t_boost_max_hours=0.5, p_rate=0.1)
charger = HistoryArrays(sessions.energy_kwh, sessions.plugin_hours, p_max)
outcome = simulate_session(charger, policy.t_boost_max_hours, policy.p_rate)
o = outcome[0]
print(f"policy: boost up to {policy.t_boost_max_hours} h, slow at {policy.p_rate} x max")
print(f"  boost : {o.t_boost_hours:.2f} h at {p_max} kW -> {o.e_boost_kwh:.2f} kWh")
print(f"  slow  : {o.t_slow_hours:.2f} h at {policy.p_rate * p_max:.2f} kW -> {o.e_slow_kwh:.2f} kWh")
print(f"  delivered {o.e_total_kwh:.2f} kWh, shortfall {o.e_loss_kwh:.2f} kWh")
print(f"  effective rate {o.p_eff_kw:.2f} kW (vs {p_max} kW raw)")
print()

# the first session's pieces under each strategy
first = sessions.start[:1], sessions.energy_kwh[:1], sessions.plugin_hours[:1]
for name, profile in [
    ("raw", raw_profile(*first, p_max)),
    ("ideal", oracle_profile(*first)),
    ("two-phase", adaptive_profile(first[0], outcome[:1], p_max, policy.p_rate)),
]:
    desc = " + ".join(
        f"{kw:.2f} kW x {(t1 - t0) / 3600:.2f} h" for t0, t1, kw in profile.pieces.tolist()
    )
    t0, t1, kw = profile.pieces.T
    energy, peak = np.sum(kw * (t1 - t0)) / 3600, kw.max(initial=0.0)
    print(f"{name:>9}: {desc or 'idle'}  (integral {energy:.2f} kWh, peak {peak:.2f} kW)")

o = outcome[1]
print()
print(
    f"tight session (14 kWh in 2 h): delivered {o.e_total_kwh:.2f} kWh, "
    f"shortfall {o.e_loss_kwh:.2f} kWh"
)
