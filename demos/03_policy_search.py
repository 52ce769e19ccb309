#!/usr/bin/env python3
"""Learn charging parameters from a session history by stochastic search.

The reward prefers low aggregate charging rates but turns to -inf once the
total energy shortfall reaches 10 kWh, so the search settles on the gentlest
policy that still (nearly) meets demand.  A brute-force grid search over the
same candidate space shows how close the 200-step search gets.

A search from scratch accepts many of its tries; a re-learn warm-started
from the learned policy, as online mode runs one after every session,
accepts few.  The search evaluates a run of tries per kernel call and moves
to the first one accepted, so the fewer tries it accepts, the fewer calls it
makes; the demo counts both.
"""

import numpy as np

from smartcharge import (
    HistoryArrays,
    RewardParams,
    SearchConfig,
    Sessions,
    derive_p_max,
    evaluate_policy_arrays,
    learn_policy,
    optimizer,
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
    rows.append((i, 0, t, end, energy, plugin))
    t = end + 3600 * 8
# the rows transposed: one column per Sessions column, charger code 0 naming "CP"
sessions = Sessions(*zip(*rows), cp_ids=["CP"])

p_max = derive_p_max(sessions)
params = RewardParams(k1=0.1, k2=10.0, e_max_loss_kwh=10.0)

learned = learn_policy(sessions, p_max, SearchConfig(n_tries=200), params, seed=1)
# the history as one row of columns, the form the search evaluates
history = HistoryArrays(sessions.energy_kwh[None], sessions.plugin_hours[None], p_max)
e_loss, p_aggr = evaluate_policy_arrays(
    history, learned.policy.t_boost_max_hours, learned.policy.p_rate
)
learned_reward = reward(e_loss, p_aggr, params).item()
print(f"history: {len(sessions)} sessions, charger max {p_max:.2f} kW")
print(
    f"learned policy: boost up to {learned.policy.t_boost_max_hours:.3f} h, "
    f"slow rate {learned.policy.p_rate:.3f} x max"
)
print(
    f"  shortfall {e_loss.item():.2f} kWh, aggregate rate "
    f"{p_aggr.item():.3f} kW, reward {learned_reward:.3f}"
)

# brute-force comparison over the full candidate grid: each boost cap is
# evaluated at every rate in one call, one history row per rate, and the
# whole grid's rewards come from one reward call
boosts = np.linspace(0, 24, 481)
rates = np.linspace(0, 1, 101)
grid_shape = (len(rates), len(sessions))
rows = HistoryArrays(
    np.broadcast_to(sessions.energy_kwh, grid_shape),
    np.broadcast_to(sessions.plugin_hours, grid_shape),
    p_max,
)
grid = np.array([evaluate_policy_arrays(rows, t_boost, rates[:, None]) for t_boost in boosts])
rewards = reward(grid[:, 0], grid[:, 1], params)
i, j = np.unravel_index(np.argmax(rewards), rewards.shape)
best = rewards[i, j]
print(
    f"grid best: reward {best:.3f} at boost {boosts[i]:.2f} h, "
    f"rate {rates[j]:.2f} ({100 * learned_reward / best:.1f}% reached by search)"
)

raw = reward(*evaluate_policy_arrays(history, 24.0, 1.0), params).item()
print(f"raw-equivalent policy reward: {raw:.3f}")


def accepted_tries(cfg, init, seed):
    """How many tries the search accepts: the same search one try at a
    time, with the same draws (dx, sign, dy, sign per try)."""
    t_mean, t_max = sessions.plugin_hours.mean(), sessions.plugin_hours.max()
    t, p = (t_mean, 0.5) if init is None else (init.t_boost_max_hours, init.p_rate)
    r = reward(*evaluate_policy_arrays(history, t, p), params).item()
    rng, accepted = np.random.default_rng(seed), 0
    for _ in range(cfg.n_tries):
        dx = t_mean * rng.uniform(cfg.dx_min, cfg.dx_max) * (1.0 if rng.random() < 0.5 else -1.0)
        dy = rng.uniform(cfg.dy_min, cfg.dy_max) * (1.0 if rng.random() < 0.5 else -1.0)
        t_try, p_try = min(max(t + dx, 0.0), t_max), min(max(p + dy, 0.0), 1.0)
        r_try = reward(*evaluate_policy_arrays(history, t_try, p_try), params).item()
        if r_try >= r:
            t, p, r, accepted = t_try, p_try, r_try, accepted + 1
    return accepted


# count the search's kernel calls where it looks the kernel up
calls = 0


def counted(*args):
    global calls
    calls += 1
    return evaluate_policy_arrays(*args)


optimizer.evaluate_policy_arrays = counted
cfg = SearchConfig(n_tries=200)
for label, init, seed in (("from scratch", None, 1), ("warm-started", learned.policy, 2)):
    calls = 0
    learn_policy(sessions, p_max, cfg, params, init=init, seed=seed)
    accepted = accepted_tries(cfg, init, seed)
    print(
        f"search {label}: accepted {accepted} of {cfg.n_tries} tries "
        f"({100 * accepted / cfg.n_tries:.1f}%) in {calls} kernel calls"
    )
optimizer.evaluate_policy_arrays = evaluate_policy_arrays
