"""Reward function and stochastic policy search."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartcharge import optimizer
from smartcharge.charging import ChargingPolicy, evaluate_policy_arrays, history_arrays
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

from conftest import BASE_EPOCH, make_session, rows, table


def grid_search_best(history, p_max, params):
    """Brute-force reward maximum over the 481 x 101 candidate grid,
    evaluated with an independent vectorized transcription of the
    charging rules."""
    e = history.energy_kwh[None, None, :]
    pl = history.plugin_hours[None, None, :]
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


def evaluated(history, p_max, policy, params):
    """(shortfall, aggregate rate, reward) of one policy over one history,
    as floats."""
    e_loss, p_aggr = evaluate_policy_arrays(
        history_arrays([history], [p_max]), policy.t_boost_max_hours, policy.p_rate
    )
    return e_loss.item(), p_aggr.item(), reward(e_loss, p_aggr, params).item()


def reward_of(e_loss, p_aggr, params):
    """reward() of one shortfall and aggregate rate, as a float."""
    return reward(np.array([e_loss]), np.array([p_aggr]), params).item()


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
    return table(sessions), derive_p_max(table(sessions))


class TestReward:
    def test_example_values(self):
        params = RewardParams(k1=0.1, k2=10.0)
        r = reward_of(9.45, 3.043409090909091, params)
        assert abs(r - 2.340788962736166) < 1e-12
        assert reward_of(0.0, 7.0, params) == pytest.approx(10.0 / 7.0, rel=1e-12)

    def test_threshold_is_strict(self):
        params = RewardParams(e_max_loss_kwh=10.0)
        assert reward_of(10.0, 3.0, params) == float("-inf")
        assert reward_of(11.0, 3.0, params) == float("-inf")
        assert np.isfinite(reward_of(9.999999, 3.0, params))

    def test_zero_rate_feasible_is_plus_inf(self):
        # the reward sets its own error state for the division by zero
        with np.errstate(all="raise"):
            assert reward_of(0.0, 0.0, RewardParams()) == float("inf")
            assert reward_of(10.0, 0.0, RewardParams()) == float("-inf")

    def test_weight_scaling_preserves_argmax(self):
        rng = np.random.default_rng(4)
        e_loss, p_aggr = rng.uniform(0, 9.9, 50), rng.uniform(0.1, 7, 50)
        base = RewardParams(k1=0.1, k2=10.0)
        scaled = RewardParams(k1=0.1 * 3.7, k2=10.0 * 3.7)
        assert np.argmax(reward(e_loss, p_aggr, base)) == np.argmax(
            reward(e_loss, p_aggr, scaled)
        )

    def test_rows_are_independent_and_out_is_filled(self):
        rng = np.random.default_rng(5)
        e_loss = np.concatenate([rng.uniform(0, 12, 40), [0.0, 10.0]])
        p_aggr = np.concatenate([rng.uniform(0.1, 7, 40), [0.0, 0.0]])
        params = RewardParams()
        out = np.full(len(e_loss), np.nan)
        assert reward(e_loss, p_aggr, params, out=out) is out
        assert out.tolist() == [reward_of(e, p, params) for e, p in zip(e_loss, p_aggr)]

    def test_uncapped_loss_allowed(self):
        params = RewardParams(e_max_loss_kwh=float("inf"))
        assert reward_of(1e6, 3.0, params) == pytest.approx(10.0 / 3.0 - 0.1e6)


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
        a = learn_policy(history, p_max, SearchConfig(), RewardParams(), seed=123)
        b = learn_policy(history, p_max, SearchConfig(), RewardParams(), seed=123)
        assert a == b

    def test_seed_changes_trajectory(self):
        history, p_max = slack_history(1)
        results = {
            learn_policy(history, p_max, SearchConfig(), RewardParams(), seed=s).policy
            for s in range(5)
        }
        assert len(results) > 1

    def test_returned_beats_start_when_start_feasible(self):
        params = RewardParams()
        for seed in range(10):
            history, p_max = slack_history(100 + seed)
            start = ChargingPolicy(float(np.mean(history.plugin_hours.tolist())), 0.5)
            start_reward = evaluated(history, p_max, start, params)[2]
            learned = learn_policy(history, p_max, SearchConfig(), params, seed=seed)
            if np.isfinite(start_reward):
                assert evaluated(history, p_max, learned.policy, params)[2] >= start_reward

    def test_always_feasible_on_slack_histories(self):
        for seed in range(20):
            history, p_max = slack_history(200 + seed)
            learned = learn_policy(
                history, p_max, SearchConfig(), RewardParams(), seed=seed
            )
            assert learned.feasible
            assert evaluated(history, p_max, learned.policy, RewardParams())[0] < 10.0

    def test_infeasible_search_falls_back_to_raw(self):
        # one short and one very long zero-slack session: from the start
        # point no single step can reach a policy losing < 10 kWh (even the
        # extreme corner t=23.25, p=0.75 loses 11.8 kWh), so with one try
        # the search must return the raw-equivalent fallback
        history = table([
            make_session(plugin_hours=1.0, energy_kwh=7.0, event_id=1),
            make_session(
                start=BASE_EPOCH + 90000,
                plugin_hours=30.0,
                energy_kwh=210.0,
                event_id=2,
            ),
        ])
        learned = learn_policy(
            history, 7.0, SearchConfig(n_tries=1), RewardParams(), seed=0
        )
        assert learned.policy == ChargingPolicy(30.0, 1.0)
        assert learned.feasible
        assert evaluated(history, 7.0, learned.policy, RewardParams())[0] == 0.0

    def test_identical_sessions_near_grid_optimum(self):
        # grid optimum sits at no boost and a rate near 1/24 (aggregate rate
        # about 0.29 kW); seed pinned, as only some trajectories thread the
        # narrow feasible band this landscape has
        history = table([
            make_session(start=BASE_EPOCH + i * 90000, event_id=i, plugin_hours=24.0,
                         energy_kwh=7.0)
            for i in range(30)
        ])
        params = RewardParams()
        best = grid_search_best(history, 7.0, params)
        learned = learn_policy(history, 7.0, SearchConfig(), params, seed=9)
        _, p_aggr, r = evaluated(history, 7.0, learned.policy, params)
        assert r >= 0.95 * best
        assert learned.policy.t_boost_max_hours < 1.0
        assert learned.policy.p_rate < 0.06
        assert p_aggr < 0.35

    def test_no_slack_history_stays_raw(self):
        # every session already needs its whole window at full rate, so only
        # raw-equivalent charging is feasible
        history = table([
            make_session(
                start=BASE_EPOCH + i * 90000,
                plugin_hours=5.0,
                energy_kwh=50.0,
                event_id=i,
            )
            for i in range(30)
        ])
        params = RewardParams()
        learned = learn_policy(history, 10.0, SearchConfig(), params, seed=3)
        e_loss, p_aggr, _ = evaluated(history, 10.0, learned.policy, params)
        assert e_loss == 0.0
        assert p_aggr == pytest.approx(10.0, rel=1e-12)

    def test_mean_reward_near_grid_best(self):
        params = RewardParams()
        learned_sum = best_sum = 0.0
        n = 25
        for seed in range(n):
            history, p_max = slack_history(300 + seed)
            best = grid_search_best(history, p_max, params)
            learned = learn_policy(history, p_max, SearchConfig(), params, seed=seed)
            learned_sum += evaluated(history, p_max, learned.policy, params)[2]
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
        return e_loss, 0.0
    return e_loss, float(np.sum(p_eff * e_total)) / delivered


def serial_reward(e_loss, p_aggr, params):
    """The reward of one evaluated policy, one branch per case."""
    if e_loss >= params.e_max_loss_kwh:
        return float("-inf")
    if p_aggr <= 0.0:
        # only possible when the history delivers no energy at all
        return float("inf")
    return -params.k1 * e_loss + params.k2 / p_aggr


def serial_learn_policy(history, p_max_kw, cfg, params, init=None, seed=0, trace=None):
    """The search from init, a (boost cap, rate) start or None, returning
    the learned (boost cap, rate, feasible).  A trace dict, when given, gets
    "tries", each try's (candidate reward, incumbent reward) in order, and
    "fallback", whether the search fell back to raw."""
    tries = []
    e_target, plugin = serial_history_arrays(history)
    t_mean = float(plugin.mean())
    t_max = float(plugin.max())

    def clamp_t(t: float) -> float:
        return min(max(t, 0.0), t_max)

    def clamp_p(p: float) -> float:
        return min(max(p, 0.0), 1.0)

    if init is not None:
        inc_t, inc_p = clamp_t(init[0]), clamp_p(init[1])
    else:
        inc_t, inc_p = t_mean, 0.5
    inc_eval = serial_evaluate_policy_arrays(e_target, plugin, inc_t, inc_p, p_max_kw)
    inc_reward = serial_reward(*inc_eval, params)
    best_t, best_p = inc_t, inc_p
    best_eval, best_reward = inc_eval, inc_reward

    rng = np.random.default_rng(seed)
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
        cand_reward = serial_reward(*cand_eval, params)
        tries.append((cand_reward, inc_reward))
        if cand_reward >= inc_reward:
            inc_t, inc_p = cand_t, cand_p
            inc_eval, inc_reward = cand_eval, cand_reward
        if cand_reward > best_reward:
            best_t, best_p = cand_t, cand_p
            best_eval, best_reward = cand_eval, cand_reward

    fallback = best_eval[0] >= params.e_max_loss_kwh
    if fallback:
        best_t, best_p = t_max, 1.0
        best_eval = serial_evaluate_policy_arrays(
            e_target, plugin, best_t, best_p, p_max_kw
        )
    if trace is not None:
        trace.update(tries=tries, fallback=fallback)

    return best_t, best_p, best_eval[0] < params.e_max_loss_kwh


def run_schedule(accepted, n_tries, width, max_cells, quiet_calls):
    """The evaluation calls a bucket's search makes after the start point's,
    from each row's accept flags: every row's next try per call until
    quiet_calls calls in a row in which no row accepts, then each unfinished
    row's next run, doubled after a run with no acceptance, one try after an
    acceptance, and cut to max(1, max_cells // (rows * width)) tries.
    Returns the tries each call evaluates and every run as (row, first try,
    tries, accepted try or None)."""
    k = len(accepted)
    calls, runs = [], []
    i = quiet = 0
    while i < n_tries and quiet < quiet_calls:
        calls.append(k)
        quiet = 0 if any(flags[i] for flags in accepted) else quiet + 1
        i += 1
    start, run = [i] * k, [2] * k
    while True:
        rows = [r for r in range(k) if start[r] < n_tries]
        if not rows:
            return calls, runs
        limit = max(1, max_cells // (len(rows) * width))
        calls.append(0)
        for r in rows:
            size = min(run[r], n_tries - start[r], limit)
            tries = range(start[r], start[r] + size)
            hit = next((j for j in tries if accepted[r][j]), None)
            runs.append((r, start[r], size, hit))
            calls[-1] += size
            start[r], run[r] = (start[r] + size, 2 * size) if hit is None else (hit + 1, 1)


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
    sessions = table([
        make_session(
            start=BASE_EPOCH + i * 200_000,
            plugin_hours=float(pl),
            energy_kwh=float(pl * p_max * f),
            event_id=i,
        )
        for i, (pl, f) in enumerate(zip(plugin, fraction))
    ])
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
        # every example runs one try per row and call (a 1-cell cap), with
        # runs cut short by a cap of a few windows, and with no cap
        for max_cells in (1, 200, 2**62):
            self.check_bit_identical(specs, n_tries, seed, max_cells)

    def check_bit_identical(self, specs, n_tries, seed, max_cells):
        """Search the windows specs describe with the given cell cap: every
        result must equal the serial search's bit for bit, and each bucket
        must make the start's evaluation call, the calls run_schedule
        derives from the serial acceptances and, if a row falls back to
        raw, one more.  Returns the rows of each call, each bucket's runs
        and the serial traces."""
        params = RewardParams()
        cfg = SearchConfig(n_tries=n_tries)
        windows, p_max, seeds, inits = [], [], [], []
        for j, (kind, n, window_seed, init) in enumerate(specs):
            sessions, p = lockstep_window(kind, n, window_seed)
            windows.append(sessions)
            p_max.append(p)
            seeds.append(per_cp_seed(seed, str(j)))
            inits.append(init)
        # a start column of NaN starts cold
        starts = np.transpose([(np.nan, np.nan) if init is None else init for init in inits])
        calls = []

        def counting(h, *args):
            calls.append(len(h.e_target))
            return evaluate_policy_arrays(h, *args)

        with mock.patch.object(optimizer, "_RUN_MAX_CELLS", max_cells):
            with mock.patch.object(optimizer, "evaluate_policy_arrays", counting):
                lockstep = learn_policies(windows, p_max, seeds, cfg, params, starts)
        assert [column.dtype for column in lockstep] == [np.float64, np.float64, bool]
        traces = []
        got_rows = zip(*(column.tolist() for column in lockstep))
        for got, window, p, row_seed, init in zip(got_rows, windows, p_max, seeds, inits):
            traces.append({})
            want = serial_learn_policy(rows(window), p, cfg, params, init, row_seed, traces[-1])
            # repr tells -0.0 from 0.0 and shows every bit of each float
            assert repr(got) == repr(want)
        buckets: dict[int, list[int]] = {}
        for j, window in enumerate(windows):
            buckets.setdefault(len(window), []).append(j)
        want_calls, runs = [], []
        for width, members in buckets.items():
            accepted = [[c >= inc for c, inc in traces[j]["tries"]] for j in members]
            bucket_calls, bucket_runs = run_schedule(
                accepted, n_tries, width, max_cells, optimizer._LOCKSTEP_QUIET_CALLS
            )
            fallback = any(traces[j]["fallback"] for j in members)
            want_calls += [len(members), *bucket_calls] + [len(members)] * fallback
            runs.append(bucket_runs)
        assert calls == want_calls
        return calls, runs, traces

    @pytest.mark.parametrize(
        "specs, n_tries, seed, cases",
        [
            (
                [("slack", 14, 1647882547, None), ("slack", 14, 1979643162, None)],
                32,
                9046609236427661983,
                {"first try", "ends at n_tries", "equal rewards"},
            ),
            (
                [("slack", 13, 998034090, None), ("slack", 13, 3834058320, None)],
                19,
                8518062250938876020,
                {"last try", "ends at n_tries"},
            ),
            (
                [("tiny", 8, s, None) for s in (1760183476, 1891405477, 2036721456)],
                37,
                4610725069307408665,
                {"+inf", "equal rewards"},
            ),
            (
                [
                    ("slack", 34, 1158725112, (1.2292057180858407, 0.016527635528529094)),
                    ("slack", 34, 752767291, (27.382667318331652, 0.6066357757671799)),
                ],
                25,
                6728418181561535778,
                {"all -inf", "equal rewards"},
            ),
        ],
    )
    def test_run_corners(self, specs, n_tries, seed, cases):
        # each example is checked at every cap; with no cap, it must show
        # the cases it stands for, so that no change to the windows drops
        # one unnoticed: an acceptance on a run's first and on its last try
        # (runs longer than one try), a run whose last try is the last one,
        # a flat reward (an accepted try as good as the incumbent), a
        # window whose every point rates -inf (the raw fallback) and one
        # whose best point rates +inf
        for max_cells in (1, 200):
            self.check_bit_identical(specs, n_tries, seed, max_cells)
        _, runs, traces = self.check_bit_identical(specs, n_tries, seed, 2**62)
        seen = set()
        for row, first, size, hit in (run for bucket in runs for run in bucket):
            if size > 1 and hit == first:
                seen.add("first try")
            if size > 1 and hit == first + size - 1:
                seen.add("last try")
            if first + size == n_tries and hit is None:
                seen.add("ends at n_tries")
        for trace in traces:
            rewards = [c for c, _ in trace["tries"]]
            if any(c == inc > -np.inf for c, inc in trace["tries"]):
                seen.add("equal rewards")
            if trace["fallback"] and all(r == -np.inf for r in rewards):
                seen.add("all -inf")
            if np.inf in rewards:
                seen.add("+inf")
        assert cases <= seen

    def test_calls_at_default_cap(self):
        # the shape of an online re-learn, six windows of 60 sessions: a
        # cold search, whose rows accept in bursts, then a re-learn
        # warm-started from its results, which rejects almost every try and
        # so takes its 200 tries in a few calls of long runs
        cap = optimizer._RUN_MAX_CELLS
        specs = [("slack", 60, j, None) for j in range(6)]
        calls, _, _ = self.check_bit_identical(specs, 200, 0, cap)
        assert len(calls) == 94
        windows, p_max = zip(*(lockstep_window(*spec[:3]) for spec in specs))
        seeds = [per_cp_seed(0, str(j)) for j in range(6)]
        t, p, _ = learn_policies(windows, p_max, seeds, SearchConfig(), RewardParams())
        specs = [(*spec[:3], start) for spec, start in zip(specs, zip(t.tolist(), p.tolist()))]
        calls, _, _ = self.check_bit_identical(specs, 200, 1, cap)
        assert len(calls) == 28
        assert max(calls) * 60 <= cap

    def test_evaluations_per_bucket(self, monkeypatch):
        # each bucket evaluates its start, then every row's next try per
        # call until _LOCKSTEP_QUIET_CALLS calls in a row accept nothing,
        # then runs of tries; a row that falls back to raw costs one more
        # call, for its bucket alone.  Each entry is a call's tries.
        calls = []

        def counting(*args):
            calls.append(len(args[0].e_target))
            return evaluate_policy_arrays(*args)

        monkeypatch.setattr(optimizer, "evaluate_policy_arrays", counting)
        params, cfg = RewardParams(), SearchConfig(n_tries=1)
        # the tight window falls back, the tiny and slack ones do not
        tight, p_tight = lockstep_window("tight", 40, 1)
        tiny, p_tiny = lockstep_window("tiny", 40, 1)
        slack, p_slack = lockstep_window("slack", 30, 3)

        _, _, feasible = learn_policies([tiny, slack], [p_tiny, p_slack], [0, 0], cfg, params)
        assert calls == [1, 1, 1, 1]
        assert feasible.all()

        calls.clear()
        t, p, _ = learn_policies(
            [tight, tiny, slack], [p_tight, p_tiny, p_slack], [0, 0, 0], cfg, params
        )
        assert calls == [2, 2, 2, 1, 1]
        raw = [(max(w.plugin_hours.tolist()), 1.0) for w in (tight, tiny)]
        assert [policy == start for policy, start in zip(zip(t, p), raw)] == [True, False]

        calls.clear()
        cfg = SearchConfig(n_tries=5)
        t, p, _ = learn_policies([tight, tiny], [p_tight, p_tiny], [0, 0], cfg, params)
        assert calls == [2] * 7
        assert (t[0], p[0]) == raw[0]

        # tiny windows accept often, so 20 rows never leave one try a call
        wide = [lockstep_window("tiny", 30, j) for j in range(20)]
        calls.clear()
        _, _, feasible = learn_policies(*zip(*wide), range(20), cfg, params)
        assert calls == [20] * 6
        assert feasible.all()

        # a warm re-learn rejects in a row, and its rows go on in runs; a
        # cap of one try per row and call keeps every call at one try a row
        cfg = SearchConfig(n_tries=20)
        other, p_other = lockstep_window("slack", 30, 4)
        pair = [slack, other], [p_slack, p_other]
        calls.clear()
        starts = learn_policies(*pair, [0, 1], cfg, params)[:2]
        assert calls == [2] * 14 + [4, 8, 2]
        calls.clear()
        warm = learn_policies(*pair, [2, 3], cfg, params, starts)
        assert calls == [2, 2, 2, 2, 4, 8, 9, 5, 4, 5]
        monkeypatch.setattr(optimizer, "_RUN_MAX_CELLS", 2 * 30)
        calls.clear()
        capped = learn_policies(*pair, [2, 3], cfg, params, starts)
        assert [column.tolist() for column in capped] == [column.tolist() for column in warm]
        assert calls == [2] * 21

    def test_corners_occur(self):
        # the generator reaches the raw fallback and the +inf reward
        params = RewardParams()
        tight, p = lockstep_window("tight", 40, 1)
        learned = learn_policy(tight, p, SearchConfig(n_tries=1), params, seed=0)
        assert learned.policy == ChargingPolicy(max(tight.plugin_hours.tolist()), 1.0)
        tiny, p = lockstep_window("tiny", 20, 2)
        start = ChargingPolicy(0.0, 0.0)
        learned = learn_policy(tiny, p, SearchConfig(n_tries=5), params, start, seed=0)
        _, p_aggr, r = evaluated(tiny, p, learned.policy, params)
        assert r == float("inf")
        assert p_aggr == 0.0

    def test_one_result_per_history_in_input_order(self):
        params = RewardParams()
        windows = [lockstep_window("slack", n, n)[0] for n in (30, 7, 30, 12)]
        p_max = [7.0] * 4
        cfg = SearchConfig(n_tries=10)
        t, p, feasible = learn_policies(windows, p_max, range(4), cfg, params)
        alone = [learn_policy(w, 7.0, cfg, params, seed=s) for s, w in enumerate(windows)]
        together = [
            LearnedPolicy(ChargingPolicy(*policy), row_feasible)
            for *policy, row_feasible in zip(t.tolist(), p.tolist(), feasible.tolist())
        ]
        assert together == alone
        assert [column.tolist() for column in learn_policies([], [], [], cfg, params)] == [[]] * 3
        with pytest.raises(ValueError):
            learn_policies(windows, p_max[:3], range(4), cfg, params)

    def test_one_seed_per_history(self):
        windows = [lockstep_window("slack", n, n)[0] for n in (30, 7)]
        cfg, params = SearchConfig(n_tries=10), RewardParams()
        with pytest.raises(ValueError, match="seed"):
            learn_policies(windows, [7.0, 7.0], [0], cfg, params)
        # and one start (boost cap, rate) per history
        with pytest.raises(ValueError, match="init"):
            learn_policies(windows, [7.0, 7.0], [0, 1], cfg, params, [[1.0], [0.5]])

    def test_a_start_holding_a_nan_starts_cold(self):
        windows = [lockstep_window("slack", 30, 30)[0]] * 3
        cfg, params = SearchConfig(n_tries=10), RewardParams()
        starts = [[np.nan, 2.0, np.nan], [0.3, np.nan, np.nan]]
        got = learn_policies(windows, [7.0] * 3, [0] * 3, cfg, params, starts)
        cold = learn_policy(windows[0], 7.0, cfg, params, seed=0)
        assert [column.tolist() for column in got] == [
            [cold.policy.t_boost_max_hours] * 3,
            [cold.policy.p_rate] * 3,
            [cold.feasible] * 3,
        ]
