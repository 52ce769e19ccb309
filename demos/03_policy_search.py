#!/usr/bin/env python3
"""Learn charging parameters from a session history by stochastic search.

The reward prefers low aggregate charging rates but turns to -inf once the
total energy shortfall reaches 10 kWh, so the search settles on the gentlest
policy that still (nearly) meets demand.  A brute-force grid search over the
same candidate space shows how close the 200-step search gets.
"""

import numpy as np

from smartcharge import (
    PolicyEvaluation,
    RewardParams,
    SearchConfig,
    Sessions,
    derive_p_max,
    evaluate_policy_arrays,
    history_arrays,
    learn_policy,
    reward,
)

rng = np.random.default_rng(7)
charger_kw = 7.0
rows = []
t = 1_500_000_000
for i in range(25):
    if i == 3:
        # one quick full-rate top-up pins the charger's max observed power
        plugin, energy = 1.5, charger_kw * 1.5
    else:
        # long overnight stays needing only a fraction of the window
        plugin = float(rng.uniform(8.0, 16.0))
        energy = charger_kw * plugin * float(rng.uniform(0.05, 0.2))
    end = t + round(plugin * 3600)
    rows.append((i, "CP", t, end, energy, plugin))
    t = end + 3600 * 8
# the rows transposed: one column per Sessions field
sessions = Sessions(*zip(*rows))

p_max = derive_p_max(sessions)
params = RewardParams(k1=0.1, k2=10.0, e_max_loss_kwh=10.0)

learned = learn_policy(sessions, p_max, SearchConfig(n_tries=200), params, seed=1)
print(f"history: {len(sessions)} sessions, charger max {p_max:.2f} kW")
print(
    f"learned policy: boost up to {learned.policy.t_boost_max_hours:.3f} h, "
    f"slow rate {learned.policy.p_rate:.3f} x max"
)
print(
    f"  shortfall {learned.evaluation.e_loss_kwh:.2f} kWh, aggregate rate "
    f"{learned.evaluation.p_aggr_kw:.3f} kW, reward {learned.reward:.3f}"
)

# brute-force comparison over the full candidate grid: each boost cap is
# evaluated at every rate in one call, one history row per rate
rates = np.linspace(0, 1, 101)
rows = history_arrays([sessions] * len(rates), [p_max] * len(rates))
best = -np.inf
best_policy = None
for t_boost in np.linspace(0, 24, 481):
    e_loss, p_aggr = evaluate_policy_arrays(rows, t_boost, rates[:, None])
    for p, loss, aggr in zip(rates.tolist(), e_loss.tolist(), p_aggr.tolist()):
        r = reward(PolicyEvaluation(loss, aggr), params)
        if r > best:
            best, best_policy = r, (t_boost, p)
print(
    f"grid best: reward {best:.3f} at boost {best_policy[0]:.2f} h, "
    f"rate {best_policy[1]:.2f} ({100 * learned.reward / best:.1f}% reached by search)"
)

e_loss, p_aggr = evaluate_policy_arrays(history_arrays([sessions], [p_max]), 24.0, 1.0)
raw = reward(PolicyEvaluation(e_loss.item(), p_aggr.item()), params)
print(f"raw-equivalent policy reward: {raw:.3f}")
