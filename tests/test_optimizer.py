"""Reward function and stochastic policy search."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartcharge.charging import ChargingPolicy, PolicyEvaluation, evaluate_policy
from smartcharge.dataset import derive_p_max
from smartcharge.optimizer import (
    LearnedPolicy,
    RewardParams,
    SearchConfig,
    learn_policies,
    learn_policy,
    per_cp_seed,
    reward,
    rolling_window,
)

from conftest import BASE_EPOCH, make_session


def grid_search_best(history, p_max, params):
    """Brute-force reward maximum over the 481 x 101 candidate grid,
    evaluated with an independent vectorized transcription of the
    charging rules."""
    e = np.array([s.energy_kwh for s in history])[None, None, :]
    pl = np.array([s.plugin_hours for s in history])[None, None, :]
    t_grid = np.linspace(0.0, 24.0, 481)
    p_grid = np.linspace(0.0, 1.0, 101)
    T = t_grid[:, None, None]
    P = p_grid[None, :, None]
    t_boost = np.minimum(np.minimum(e / p_max, T), pl)
    e_boost = np.minimum(t_boost * p_max, e)
    e_total = np.minimum(e, p_max * (t_boost + (pl - t_boost) * P))
    e_loss = (e - e_total).sum(axis=2)
    weighted = e_boost + P * (e_total - e_boost)
    p_eff = np.divide(weighted * p_max, e, out=np.zeros(e_total.shape), where=e > 0)
    delivered = e_total.sum(axis=2)
    p_aggr = np.divide(
        (p_eff * e_total).sum(axis=2),
        delivered,
        out=np.zeros_like(delivered),
        where=delivered > 0,
    )
    with np.errstate(divide="ignore"):
        r = np.where(
            e_loss >= params.e_max_loss_kwh,
            -np.inf,
            -params.k1 * e_loss
            + np.where(p_aggr > 0, params.k2 / p_aggr, np.inf),
        )
    return float(r.max())


def slack_history(seed, n=None):
    """History with the charger's max power derived from its own sessions,
    the way the pipeline produces them."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(5, 21))
    rate_kw = float(rng.uniform(3.0, 10.0))
    sessions = []
    t = BASE_EPOCH
    for i in range(n):
        plugin = float(rng.uniform(1.0, 24.0))
        charge_h = plugin * float(rng.uniform(0.1, 1.0))
        sessions.append(
            make_session(
                start=t, plugin_hours=plugin, energy_kwh=charge_h * rate_kw, event_id=i
            )
        )
        t += round(plugin * 3600) + 3600
    return sessions, derive_p_max(sessions)


class TestReward:
    def test_example_values(self):
        params = RewardParams(k1=0.1, k2=10.0)
        r = reward(PolicyEvaluation(9.45, 3.043409090909091), params)
        assert abs(r - 2.340788962736166) < 1e-12
        assert reward(PolicyEvaluation(0.0, 7.0), params) == pytest.approx(
            10.0 / 7.0, rel=1e-12
        )

    def test_threshold_is_strict(self):
        params = RewardParams(e_max_loss_kwh=10.0)
        assert reward(PolicyEvaluation(10.0, 3.0), params) == float("-inf")
        assert reward(PolicyEvaluation(11.0, 3.0), params) == float("-inf")
        assert np.isfinite(reward(PolicyEvaluation(9.999999, 3.0), params))

    def test_zero_rate_feasible_is_plus_inf(self):
        assert reward(PolicyEvaluation(0.0, 0.0), RewardParams()) == float("inf")

    def test_weight_scaling_preserves_argmax(self):
        rng = np.random.default_rng(4)
        evals = [
            PolicyEvaluation(float(rng.uniform(0, 9.9)), float(rng.uniform(0.1, 7)))
            for _ in range(50)
        ]
        base = RewardParams(k1=0.1, k2=10.0)
        scaled = RewardParams(k1=0.1 * 3.7, k2=10.0 * 3.7)
        a = np.argmax([reward(e, base) for e in evals])
        b = np.argmax([reward(e, scaled) for e in evals])
        assert a == b


class TestRollingWindow:
    def test_last_h(self):
        history = list(range(100))
        assert rolling_window(history, 30) == list(range(70, 100))

    def test_fewer_than_h(self):
        assert rolling_window(list(range(10)), 30) == list(range(10))

    def test_unlimited(self):
        assert rolling_window(list(range(10)), None) == list(range(10))


class TestLearnPolicy:
    def test_deterministic_for_seed(self):
        history, p_max = slack_history(0)
        a = learn_policy(history, p_max, SearchConfig(seed=123), RewardParams())
        b = learn_policy(history, p_max, SearchConfig(seed=123), RewardParams())
        assert a == b

    def test_seed_changes_trajectory(self):
        history, p_max = slack_history(1)
        results = {
            learn_policy(history, p_max, SearchConfig(seed=s), RewardParams()).policy
            for s in range(5)
        }
        assert len(results) > 1

    def test_returned_beats_start_when_start_feasible(self):
        params = RewardParams()
        for seed in range(10):
            history, p_max = slack_history(100 + seed)
            plugins = [s.plugin_hours for s in history]
            start = ChargingPolicy(float(np.mean(plugins)), 0.5)
            start_reward = reward(evaluate_policy(history, start, p_max), params)
            learned = learn_policy(history, p_max, SearchConfig(seed=seed), params)
            if np.isfinite(start_reward):
                assert learned.reward >= start_reward

    def test_always_feasible_on_slack_histories(self):
        for seed in range(20):
            history, p_max = slack_history(200 + seed)
            learned = learn_policy(
                history, p_max, SearchConfig(seed=seed), RewardParams()
            )
            assert learned.feasible
            assert learned.evaluation.e_loss_kwh < 10.0

    def test_infeasible_search_falls_back_to_raw(self):
        # one short and one very long zero-slack session: from the start
        # point no single step can reach a policy losing < 10 kWh (even the
        # extreme corner t=23.25, p=0.75 loses 11.8 kWh), so with one try
        # the search must return the raw-equivalent fallback
        history = [
            make_session(plugin_hours=1.0, energy_kwh=7.0, event_id=1),
            make_session(
                start=BASE_EPOCH + 90000,
                plugin_hours=30.0,
                energy_kwh=210.0,
                event_id=2,
            ),
        ]
        learned = learn_policy(
            history, 7.0, SearchConfig(n_tries=1, seed=0), RewardParams()
        )
        assert learned.policy == ChargingPolicy(30.0, 1.0)
        assert learned.feasible
        assert learned.evaluation.e_loss_kwh == 0.0

    def test_identical_sessions_near_grid_optimum(self):
        # grid optimum sits at no boost and a rate near 1/24 (aggregate rate
        # about 0.29 kW); seed pinned, as only some trajectories thread the
        # narrow feasible band this landscape has
        history = [
            make_session(start=BASE_EPOCH + i * 90000, event_id=i, plugin_hours=24.0,
                         energy_kwh=7.0)
            for i in range(30)
        ]
        params = RewardParams()
        best = grid_search_best(history, 7.0, params)
        learned = learn_policy(history, 7.0, SearchConfig(seed=9), params)
        assert learned.reward >= 0.95 * best
        assert learned.policy.t_boost_max_hours < 1.0
        assert learned.policy.p_rate < 0.06
        assert learned.evaluation.p_aggr_kw < 0.35

    def test_no_slack_history_stays_raw(self):
        # every session already needs its whole window at full rate, so only
        # raw-equivalent charging is feasible
        history = [
            make_session(
                start=BASE_EPOCH + i * 90000,
                plugin_hours=5.0,
                energy_kwh=50.0,
                event_id=i,
            )
            for i in range(30)
        ]
        params = RewardParams()
        learned = learn_policy(history, 10.0, SearchConfig(seed=3), params)
        assert learned.evaluation.e_loss_kwh == 0.0
        assert learned.evaluation.p_aggr_kw == pytest.approx(10.0, rel=1e-12)

    def test_mean_reward_near_grid_best(self):
        params = RewardParams()
        learned_sum = best_sum = 0.0
        n = 25
        for seed in range(n):
            history, p_max = slack_history(300 + seed)
            best = grid_search_best(history, p_max, params)
            learned = learn_policy(history, p_max, SearchConfig(seed=seed), params)
            learned_sum += learned.reward
            best_sum += best
        assert learned_sum / n >= 0.95 * best_sum / n

    def test_empty_history_errors(self):
        with pytest.raises(ValueError):
            learn_policy([], 7.0, SearchConfig(), RewardParams())


class TestSeeds:
    def test_per_cp_seed_stable(self):
        assert per_cp_seed(0, "AN15123") == per_cp_seed(0, "AN15123")
        assert per_cp_seed(0, "AN15123") != per_cp_seed(1, "AN15123")
        assert per_cp_seed(0, "AN15123") != per_cp_seed(0, "AN15124")

    def test_per_cp_seed_in_64_bits(self):
        s = per_cp_seed(12345, "CP001")
        assert 0 <= s < 2**64


# ---------------------------------------------------------------------------
# Reference: the scalar search, one charger and one candidate at a time, as
# it was before the lockstep search replaced it.  The lockstep search must
# reproduce it bit for bit.


def serial_history_arrays(history):
    e_target = np.array([s.energy_kwh for s in history], dtype=np.float64)
    plugin = np.array([s.plugin_hours for s in history], dtype=np.float64)
    return e_target, plugin


def serial_evaluate_policy_arrays(e_target, plugin, t_boost_max_hours, p_rate, p_max_kw):
    t_boost = np.minimum(np.minimum(e_target / p_max_kw, t_boost_max_hours), plugin)
    e_boost = np.minimum(t_boost * p_max_kw, e_target)
    e_total = np.minimum(e_target, p_max_kw * (t_boost + (plugin - t_boost) * p_rate))
    e_loss = float(np.sum(e_target - e_total))
    weighted = e_boost + p_rate * (e_total - e_boost)
    p_eff = np.divide(
        weighted * p_max_kw,
        e_target,
        out=np.zeros_like(e_target),
        where=e_target > 0,
    )
    delivered = float(np.sum(e_total))
    if delivered <= 0.0:
        return PolicyEvaluation(e_loss_kwh=e_loss, p_aggr_kw=0.0)
    p_aggr = float(np.sum(p_eff * e_total)) / delivered
    return PolicyEvaluation(e_loss_kwh=e_loss, p_aggr_kw=p_aggr)


def serial_learn_policy(history, p_max_kw, cfg, params, init=None):
    e_target, plugin = serial_history_arrays(history)
    t_mean = float(plugin.mean())
    t_max = float(plugin.max())

    def clamp_t(t: float) -> float:
        return min(max(t, 0.0), t_max)

    def clamp_p(p: float) -> float:
        return min(max(p, 0.0), 1.0)

    if init is not None:
        inc_t, inc_p = clamp_t(init.t_boost_max_hours), clamp_p(init.p_rate)
    else:
        inc_t, inc_p = t_mean, 0.5
    inc_eval = serial_evaluate_policy_arrays(e_target, plugin, inc_t, inc_p, p_max_kw)
    inc_reward = reward(inc_eval, params)
    best_t, best_p = inc_t, inc_p
    best_eval, best_reward = inc_eval, inc_reward

    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.n_tries):
        dx = t_mean * rng.uniform(cfg.dx_min, cfg.dx_max)
        sx = 1.0 if rng.random() < 0.5 else -1.0
        dy = rng.uniform(cfg.dy_min, cfg.dy_max)
        sy = 1.0 if rng.random() < 0.5 else -1.0
        cand_t = clamp_t(inc_t + sx * dx)
        cand_p = clamp_p(inc_p + sy * dy)
        cand_eval = serial_evaluate_policy_arrays(
            e_target, plugin, cand_t, cand_p, p_max_kw
        )
        cand_reward = reward(cand_eval, params)
        if cand_reward >= inc_reward:
            inc_t, inc_p = cand_t, cand_p
            inc_eval, inc_reward = cand_eval, cand_reward
        if cand_reward > best_reward:
            best_t, best_p = cand_t, cand_p
            best_eval, best_reward = cand_eval, cand_reward

    if best_eval.e_loss_kwh >= params.e_max_loss_kwh:
        best_t, best_p = t_max, 1.0
        best_eval = serial_evaluate_policy_arrays(
            e_target, plugin, best_t, best_p, p_max_kw
        )
        best_reward = reward(best_eval, params)

    return LearnedPolicy(
        policy=ChargingPolicy(best_t, best_p),
        reward=best_reward,
        evaluation=best_eval,
        feasible=best_eval.e_loss_kwh < params.e_max_loss_kwh,
    )


def lockstep_window(kind, n, seed):
    """A window of n sessions and its charger's max power.  "slack" leaves
    room to slow down; "tight" sessions need nearly their whole plugin time
    at full rate, so few tries end infeasible and fall back to raw; "tiny"
    windows carry under 10 kWh in all, so charging nothing is feasible and
    the (0, 0) policy rates +inf; "gaps" adds zero-energy sessions."""
    rng = np.random.default_rng(seed)
    p_max = float(rng.uniform(3.0, 10.0))
    plugin = rng.uniform(0.5, 30.0, n)
    fraction = {
        "slack": rng.uniform(0.05, 1.0, n),
        "tight": rng.uniform(0.9, 1.0, n),
        "tiny": rng.uniform(0.0, 1.0, n) * 9.0 / (p_max * plugin.sum()),
        "gaps": rng.uniform(0.05, 1.0, n) * (rng.random(n) < 0.7),
    }[kind]
    sessions = [
        make_session(
            start=BASE_EPOCH + i * 200_000,
            plugin_hours=float(pl),
            energy_kwh=float(pl * p_max * f),
            event_id=i,
        )
        for i, (pl, f) in enumerate(zip(plugin, fraction))
    ]
    return sessions, p_max


window_specs = st.tuples(
    st.sampled_from(["slack", "tight", "tiny", "gaps"]),
    st.integers(1, 70),
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.none(),
        st.sampled_from([(0.0, 0.0), (-0.0, -0.0)]),
        # clamped into [0, t_max] x [0, 1] before the search starts
        st.tuples(st.floats(-5.0, 100.0), st.floats(-0.5, 1.5)),
    ),
)


class TestLockstepEqualsSerial:
    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(window_specs, min_size=1, max_size=40),
        n_tries=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_bit_identical(self, specs, n_tries, seed):
        params = RewardParams()
        windows, p_max, cfgs, inits = [], [], [], []
        for j, (kind, n, window_seed, init) in enumerate(specs):
            sessions, p = lockstep_window(kind, n, window_seed)
            windows.append(sessions)
            p_max.append(p)
            cfgs.append(SearchConfig(n_tries=n_tries, seed=per_cp_seed(seed, str(j))))
            if init is not None:
                init = SimpleNamespace(t_boost_max_hours=init[0], p_rate=init[1])
            inits.append(init)
        lockstep = learn_policies(windows, p_max, cfgs, params, inits)
        for got, window, p, cfg, init in zip(lockstep, windows, p_max, cfgs, inits):
            want = serial_learn_policy(window, p, cfg, params, init)
            # repr tells -0.0 from 0.0 and shows every bit of each float
            assert repr(got.policy) == repr(want.policy)
            assert repr(got.reward) == repr(want.reward)
            assert repr(got.evaluation) == repr(want.evaluation)
            assert got.feasible is want.feasible

    def test_corners_occur(self):
        # the generator reaches the raw fallback and the +inf reward
        params = RewardParams()
        tight, p = lockstep_window("tight", 40, 1)
        learned = learn_policy(tight, p, SearchConfig(n_tries=1, seed=0), params)
        assert learned.policy == ChargingPolicy(max(s.plugin_hours for s in tight), 1.0)
        tiny, p = lockstep_window("tiny", 20, 2)
        start = ChargingPolicy(0.0, 0.0)
        learned = learn_policy(tiny, p, SearchConfig(n_tries=5, seed=0), params, start)
        assert learned.reward == float("inf")
        assert learned.evaluation.p_aggr_kw == 0.0

    def test_one_result_per_history_in_input_order(self):
        params = RewardParams()
        windows = [lockstep_window("slack", n, n)[0] for n in (30, 7, 30, 12)]
        p_max = [7.0] * 4
        cfgs = [SearchConfig(n_tries=10, seed=s) for s in range(4)]
        together = learn_policies(windows, p_max, cfgs, params)
        alone = [learn_policy(w, 7.0, c, params) for w, c in zip(windows, cfgs)]
        assert together == alone
        assert learn_policies([], [], [], params) == []
        with pytest.raises(ValueError):
            learn_policies(windows, p_max[:3], cfgs, params)
