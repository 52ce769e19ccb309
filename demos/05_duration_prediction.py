#!/usr/bin/env python3
"""How predictable is the plugin duration from the session history alone?

Features per session: start hour, day of week, hours since the previous
session and (optionally) the dispensed energy.  Each charger is fit with
ordinary least squares under 4-fold chronological cross-validation, all
three chargers in one batch call.  With human-driven schedules the errors
stay large, which is the motivation for controlling the charging parameters
directly instead of predicting.
"""

import numpy as np

from smartcharge import Sessions, cross_validate

rng = np.random.default_rng(42)


def charger(noise_hours):
    rows = []
    t = 1_483_228_800  # 2017-01-01
    for i in range(80):
        # weekday-ish routine plus noise: arrive evening, leave morning
        t += round(float(rng.uniform(6, 16)) * 3600)
        plugin = max(0.5, 11.0 + float(rng.normal(0, noise_hours)))
        energy = float(rng.uniform(3, 20))
        end = t + round(plugin * 3600)
        rows.append((i, 0, t, end, energy, plugin))
        t = end
    # the rows transposed: one column per Sessions column, charger code 0 naming "CP"
    return Sessions(*zip(*rows), cp_ids=["CP"])


# one charger per noise level, cross-validated together as one batch
noises = (0.1, 2.0, 6.0)
chargers = [charger(noise) for noise in noises]
for noise, with_e, without_e in zip(
    noises,
    cross_validate(chargers, include_energy=True),
    cross_validate(chargers, include_energy=False),
):
    print(f"behavior noise +/- {noise} h:")
    print(
        f"  with energy    MAE {with_e.mae:6.2f} h  MAPE {with_e.mape:8.1f}%  "
        f"MSE {with_e.mse:8.2f}"
    )
    print(
        f"  without energy MAE {without_e.mae:6.2f} h  MAPE {without_e.mape:8.1f}%  "
        f"MSE {without_e.mse:8.2f}"
    )
