"""Two-phase charging simulation, history evaluation and power profiles."""

import dataclasses
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartcharge.charging import (
    ChargingPolicy,
    HistoryArrays,
    adaptive_profile,
    evaluate_policy_arrays,
    history_arrays,
    oracle_profile,
    raw_profile,
    simulate_session,
)
from smartcharge.dataset import derive_p_max
from smartcharge.optimizer import RewardParams, SearchConfig, learn_policies

from conftest import BASE_EPOCH, make_session, table
from test_acceptance import transcribed_session_rules

REL = 1e-9


def rel_eq(a, b, tol=REL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def columns(*sessions):
    """The start, e_target and plugin columns the profile builders take."""
    t = table(sessions)
    return t.start, t.energy_kwh, t.plugin_hours


def charger(sessions, p_max):
    """One charger's session rows, in order, as simulation arrays."""
    t = table(sessions)
    return HistoryArrays(t.energy_kwh, t.plugin_hours, p_max)


def simulate(sessions, policy, p_max):
    return simulate_session(
        charger(sessions, p_max), policy.t_boost_max_hours, policy.p_rate
    )


def simulate_one(session, policy, p_max):
    """simulate_session on one session, its outcome fields as floats."""
    o = simulate([session], policy, p_max)
    return SimpleNamespace(**{f.name: getattr(o, f.name).item() for f in fields(o)})


def evaluate(history, policy, p_max):
    """(e_loss, p_aggr) of one history as floats."""
    e_loss, p_aggr = evaluate_policy_arrays(
        history_arrays([table(history)], [p_max]), policy.t_boost_max_hours, policy.p_rate
    )
    return SimpleNamespace(e_loss_kwh=e_loss.item(), p_aggr_kw=p_aggr.item())


def energy_kwh(profile):
    """The integral of a profile's pieces, in kWh."""
    t0, t1, kw = profile.pieces.T
    return float(np.sum(kw * (t1 - t0))) / 3600.0


def peak_kw(profile):
    return float(profile.pieces[:, 2].max(initial=0.0))


def raw(s, p_max):
    return raw_profile(*columns(s), p_max)


def oracle(s):
    return oracle_profile(*columns(s))


def adaptive(s, policy, p_max):
    """A session's adaptive profile and its outcome (as floats)."""
    start, _, _ = columns(s)
    o = simulate([s], policy, p_max)
    return adaptive_profile(start, o, p_max, policy.p_rate), simulate_one(s, policy, p_max)


@pytest.mark.parametrize(
    "t_boost_max, p_rate, message",
    [
        (-0.5, 0.5, "t_boost_max_hours"),
        (float("nan"), 0.5, "t_boost_max_hours"),
        (1.0, float("nan"), "p_rate"),
        (1.0, -0.1, "p_rate"),
        (1.0, 1.1, "p_rate"),
    ],
    ids=["negative-boost", "nan-boost", "nan-rate", "rate-below-0", "rate-above-1"],
)
def test_policy_rejects_invalid_parameters(t_boost_max, p_rate, message):
    with pytest.raises(ValueError, match=message):
        ChargingPolicy(t_boost_max, p_rate)


class TestSimulateSession:
    def test_long_session_no_loss(self):
        # hand-evaluated with a scalar calculator: boost caps at 0.5 h,
        # the slow phase finishes the remaining 3.5 kWh at 0.7 kW
        s = make_session(plugin_hours=10.0, energy_kwh=7.0)
        o = simulate_one(s, ChargingPolicy(0.5, 0.1), 7.0)
        assert o.t_boost_hours == 0.5
        assert o.e_boost_kwh == 3.5
        assert o.e_total_kwh == 7.0
        assert o.e_slow_kwh == 3.5
        assert rel_eq(o.t_slow_hours, 5.0)
        assert rel_eq(o.p_eff_kw, 3.85)
        assert o.e_loss_kwh == 0.0

    def test_short_session_with_loss(self):
        s = make_session(plugin_hours=2.0, energy_kwh=14.0)
        o = simulate_one(s, ChargingPolicy(0.5, 0.1), 7.0)
        assert rel_eq(o.e_total_kwh, 4.55)
        assert rel_eq(o.e_loss_kwh, 9.45)
        assert rel_eq(o.p_eff_kw, 1.8025)

    def test_raw_equivalent_policy(self):
        # one call, one policy per session
        cases = [(10.0, 7.0), (3.0, 2.5), (0.5, 1.0)]
        sessions = [make_session(plugin_hours=p, energy_kwh=e) for p, e in cases]
        t_boost_max = np.array([energy / 7.0 for _, energy in cases])
        o = simulate_session(charger(sessions, 7.0), t_boost_max, 1.0)
        for (_, energy), e_total, p_eff in zip(
            cases, o.e_total_kwh.tolist(), o.p_eff_kw.tolist()
        ):
            assert rel_eq(e_total, energy) or e_total == energy
            assert rel_eq(p_eff, 7.0)

    def test_zero_energy(self):
        s = make_session(energy_kwh=0.0)
        o = simulate_one(s, ChargingPolicy(1.0, 0.5), 7.0)
        assert o.e_total_kwh == 0.0
        assert o.p_eff_kw == 0.0
        assert o.t_slow_hours == 0.0

    def test_outcome_invariants_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            plugin = float(rng.uniform(0.05, 48.0))
            p_max = float(rng.uniform(1.0, 50.0))
            energy = float(rng.uniform(0.0, p_max * plugin))
            policy = ChargingPolicy(
                float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 1.0))
            )
            s = make_session(plugin_hours=plugin, energy_kwh=energy)
            o = simulate_one(s, policy, p_max)
            assert o.e_total_kwh <= energy + 1e-12
            assert rel_eq(o.e_total_kwh, o.e_boost_kwh + o.e_slow_kwh)
            assert -1e-12 <= o.p_eff_kw <= p_max * (1 + 1e-12)
            assert o.t_boost_hours <= min(plugin, energy / p_max) + 1e-12
            if 0 < o.e_total_kwh and o.e_total_kwh == energy:
                assert o.p_eff_kw >= policy.p_rate * p_max - 1e-9

    def test_monotonicity_in_p_rate_and_boost(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            plugin = float(rng.uniform(0.1, 40.0))
            p_max = float(rng.uniform(1.0, 30.0))
            energy = float(rng.uniform(0.0, p_max * plugin))
            s = make_session(plugin_hours=plugin, energy_kwh=energy)
            t = float(rng.uniform(0.0, 20.0))
            p1, p2 = sorted(rng.uniform(0.0, 1.0, size=2))
            lo = simulate_one(s, ChargingPolicy(t, float(p1)), p_max)
            hi = simulate_one(s, ChargingPolicy(t, float(p2)), p_max)
            assert hi.e_total_kwh >= lo.e_total_kwh - 1e-12
            p = float(rng.uniform(0.0, 1.0))
            t1, t2 = sorted(rng.uniform(0.0, 20.0, size=2))
            lo = simulate_one(s, ChargingPolicy(float(t1), p), p_max)
            hi = simulate_one(s, ChargingPolicy(float(t2), p), p_max)
            assert hi.e_total_kwh >= lo.e_total_kwh - 1e-12


class TestEvaluatePolicy:
    def test_two_session_example(self):
        history = [
            make_session(plugin_hours=10.0, energy_kwh=7.0, event_id=1),
            make_session(
                start=BASE_EPOCH + 200000, plugin_hours=2.0, energy_kwh=14.0, event_id=2
            ),
        ]
        ev = evaluate(history, ChargingPolicy(0.5, 0.1), 7.0)
        assert rel_eq(ev.e_loss_kwh, 9.45)
        assert rel_eq(ev.p_aggr_kw, 3.043409090909091)

    def test_raw_equivalent_history(self):
        history = [
            make_session(plugin_hours=10.0, energy_kwh=7.0, event_id=1),
            make_session(
                start=BASE_EPOCH + 200000, plugin_hours=4.0, energy_kwh=3.0, event_id=2
            ),
        ]
        ev = evaluate(history, ChargingPolicy(100.0, 1.0), 7.0)
        assert ev.e_loss_kwh == 0.0
        assert rel_eq(ev.p_aggr_kw, 7.0)

    def test_identical_sessions_match_single(self):
        s = make_session(plugin_hours=10.0, energy_kwh=7.0)
        policy = ChargingPolicy(0.5, 0.1)
        single = simulate_one(s, policy, 7.0)
        ev = evaluate([s] * 5, policy, 7.0)
        assert rel_eq(ev.p_aggr_kw, single.p_eff_kw)

    def test_matches_per_session_aggregation(self):
        rng = np.random.default_rng(21)
        history = [
            make_session(
                start=BASE_EPOCH + i * 200000,
                plugin_hours=float(rng.uniform(0.5, 24.0)),
                energy_kwh=float(rng.uniform(0.0, 60.0)),
                event_id=i,
            )
            for i in range(40)
        ]
        p_max = 9.0
        policy = ChargingPolicy(1.3, 0.22)
        o = simulate(history, policy, p_max)
        e_loss = sum(o.e_loss_kwh.tolist())
        delivered = sum(o.e_total_kwh.tolist())
        p_aggr = sum((o.p_eff_kw * o.e_total_kwh).tolist()) / delivered
        ev = evaluate(history, policy, p_max)
        assert rel_eq(ev.e_loss_kwh, e_loss)
        assert rel_eq(ev.p_aggr_kw, p_aggr)

    def test_all_zero_energy_history(self):
        history = [make_session(energy_kwh=0.0)]
        ev = evaluate(history, ChargingPolicy(1.0, 0.5), 7.0)
        assert ev.p_aggr_kw == 0.0

    def test_empty_history_errors(self):
        with pytest.raises(ValueError):
            history_arrays([[]], [7.0])


class TestProfiles:
    def test_raw_simple(self):
        s = make_session(plugin_hours=10.0, energy_kwh=7.0)
        prof = raw(s, 7.0)
        assert prof.pieces.tolist() == [[float(s.start), float(s.start) + 3600.0, 7.0]]
        assert rel_eq(energy_kwh(prof), 7.0)

    def test_raw_boundary_full_window(self):
        # the max-power-defining session charges for its entire window
        s = make_session(plugin_hours=2.0, energy_kwh=14.0)
        prof = raw(s, 7.0)
        (t0, t1, kw) = prof.pieces[0].tolist()
        assert t1 - t0 == 2.0 * 3600.0
        assert kw == 7.0

    def test_raw_zero_energy_empty(self):
        assert raw(make_session(energy_kwh=0.0), 7.0).pieces.shape == (0, 3)

    def test_oracle_even_spread(self):
        s = make_session(plugin_hours=10.0, energy_kwh=7.0)
        prof = oracle(s)
        (t0, t1, kw) = prof.pieces[0].tolist()
        assert rel_eq(kw, 0.7)
        assert t1 - t0 == 10.0 * 3600.0

    def test_oracle_can_exceed_realistic_rate(self):
        s = make_session(plugin_hours=0.066, energy_kwh=10.2)
        (t0, t1, kw) = oracle(s).pieces[0].tolist()
        assert rel_eq(kw, 154.54545454545453)

    def test_oracle_equals_raw_for_defining_session(self):
        s = make_session(plugin_hours=2.0, energy_kwh=14.0)
        assert oracle(s).pieces.tolist() == raw(s, 7.0).pieces.tolist()

    def test_adaptive_two_pieces(self):
        s = make_session(plugin_hours=10.0, energy_kwh=7.0)
        policy = ChargingPolicy(0.5, 0.1)
        prof, o = adaptive(s, policy, 7.0)
        assert len(prof.pieces) == 2
        (b0, b1, bkw), (s0, s1, skw) = prof.pieces.tolist()
        assert b1 - b0 == 0.5 * 3600.0
        assert bkw == 7.0
        assert s0 == b1
        assert rel_eq(s1 - s0, 5.0 * 3600.0)
        assert rel_eq(skw, 0.7)
        assert rel_eq(energy_kwh(prof), o.e_total_kwh)

    def test_adaptive_empty_when_idle_policy(self):
        s = make_session(plugin_hours=10.0, energy_kwh=7.0)
        prof, o = adaptive(s, ChargingPolicy(0.0, 0.0), 7.0)
        assert o.e_total_kwh == 0.0
        assert prof.pieces.shape == (0, 3)

    def test_adaptive_equals_raw_for_raw_equivalent_policy(self):
        s = make_session(plugin_hours=10.0, energy_kwh=7.0)
        prof, _ = adaptive(s, ChargingPolicy(100.0, 1.0), 7.0)
        raw_prof = raw(s, 7.0)
        assert len(prof.pieces) == len(raw_prof.pieces) == 1
        for a, b in zip(prof.pieces[0].tolist(), raw_prof.pieces[0].tolist()):
            assert rel_eq(a, b)

    def test_integral_matches_outcome_random(self):
        rng = np.random.default_rng(33)
        for i in range(300):
            plugin = float(rng.uniform(0.05, 48.0))
            p_max = float(rng.uniform(1.0, 40.0))
            energy = float(rng.uniform(0.0, p_max * plugin))
            s = make_session(plugin_hours=plugin, energy_kwh=energy, event_id=i)
            policy = ChargingPolicy(
                float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 1.0))
            )
            prof, o = adaptive(s, policy, p_max)
            assert rel_eq(energy_kwh(prof), o.e_total_kwh)
            assert rel_eq(energy_kwh(raw(s, p_max)), energy)
            assert rel_eq(energy_kwh(oracle(s)), energy)

    def test_oracle_peak_never_above_raw(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            plugin = float(rng.uniform(0.1, 48.0))
            p_max = float(rng.uniform(1.0, 40.0))
            energy = float(rng.uniform(0.0, p_max * plugin))
            s = make_session(plugin_hours=plugin, energy_kwh=energy)
            assert peak_kw(oracle(s)) <= peak_kw(raw(s, p_max)) + 1e-12

    def test_profiles_confined_to_charge_window(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            plugin = float(rng.uniform(0.1, 48.0))
            p_max = float(rng.uniform(1.0, 40.0))
            energy = float(rng.uniform(0.0, p_max * plugin))
            s = make_session(plugin_hours=plugin, energy_kwh=energy)
            policy = ChargingPolicy(
                float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 1.0))
            )
            window_end = s.start + plugin * 3600.0
            for prof in (raw(s, p_max), oracle(s), adaptive(s, policy, p_max)[0]):
                prev_end = float(s.start)
                for t0, t1, kw in prof.pieces.tolist():
                    assert t0 == prev_end
                    assert t1 <= window_end * (1 + 1e-12)
                    prev_end = t1


# ---------------------------------------------------------------------------
# the array kernel and builders against per-session scalar references
#
# Boost caps are drawn >= +0.0.  ChargingPolicy also accepts a -0.0 cap, which
# the harness never passes (its caps are plugin durations and the search's
# points, clamped by np.maximum(x, 0.0) from nonzero steps); on a zero-energy
# session np.minimum may keep that -0.0 where the scalar min keeps 0.0, so
# test_negative_zero_cap compares that case by value, not by repr.

rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
sessions = st.lists(
    st.tuples(
        st.integers(0, 4_000_000_000),  # start
        st.one_of(st.just(0.0), st.floats(0.0, 400.0)),  # e_target
        st.floats(0.01, 48.0),  # plugin hours
        st.one_of(st.just(0.0), st.floats(0.0, 60.0)),  # t_boost_max
        rates,  # p_rate
        st.floats(0.5, 60.0),  # p_max of the session's charger
    ),
    min_size=1,
    max_size=30,
)


def scalar_pieces(start, e_target, plugin, p_max, t_boost, t_slow, p_rate):
    """One session's raw, oracle and adaptive pieces, restated per session."""
    t0 = float(start)
    raw_pieces, oracle_pieces, rl_pieces = [], [], []
    if e_target > 0:
        duration_s = min(e_target / p_max * 3600.0, plugin * 3600.0)
        raw_pieces.append([t0, t0 + duration_s, p_max])
        oracle_pieces.append([t0, t0 + plugin * 3600.0, e_target / plugin])
    if t_boost > 0:
        t1 = t0 + t_boost * 3600.0
        rl_pieces.append([t0, t1, p_max])
        t0 = t1
    if t_slow > 0:
        rl_pieces.append([t0, t0 + t_slow * 3600.0, p_rate * p_max])
    return raw_pieces, oracle_pieces, rl_pieces


class TestArrayKernel:
    @settings(max_examples=200, deadline=None)
    @given(rows=sessions)
    # p_max * p_rate underflows to 0 while the slow phase delivers energy
    @example(rows=[(0, 1.0, 2.0, 0.0, 5e-324, 0.5)])
    def test_simulate_matches_transcription(self, rows):
        _, e, plugin, t_max, p_rate, p_max = (np.array(c) for c in zip(*rows))
        o = simulate_session(HistoryArrays(e, plugin, p_max), t_max, p_rate)
        got = list(
            zip(
                *(
                    getattr(o, name).tolist()
                    for name in (
                        "t_boost_hours",
                        "e_boost_kwh",
                        "e_total_kwh",
                        "e_slow_kwh",
                        "t_slow_hours",
                        "p_eff_kw",
                        "e_loss_kwh",
                    )
                )
            )
        )
        expected = [
            transcribed_session_rules(e_i, plugin_i, p_max_i, t_i, p_i)
            for _, e_i, plugin_i, t_i, p_i, p_max_i in rows
        ]
        assert repr(got) == repr(expected)

    @settings(max_examples=200, deadline=None)
    @given(rows=sessions, shared=st.booleans())
    @example(rows=[(0, 5.0, 2.0, 1.0, 0.5, 7.0), (18_000, 0.0, 1.0, 0.0, 1.0, 3.0)], shared=True)
    def test_builders_match_scalar_pieces(self, rows, shared):
        # p_max per session, or (shared) the first session's for all, as a scalar
        start, e, plugin, t_max, p_rate, p_max = (np.array(c) for c in zip(*rows))
        if shared:
            p_max = rows[0][5]
        o = simulate_session(HistoryArrays(e, plugin, p_max), t_max, p_rate)
        expected = ([], [], [])
        for k, (s0, e_i, plugin_i, _, p_i, p_max_i) in enumerate(rows):
            per_session = scalar_pieces(
                s0, e_i, plugin_i, p_max if shared else p_max_i,
                o.t_boost_hours[k].item(), o.t_slow_hours[k].item(), p_i,
            )
            for pieces, more in zip(expected, per_session):
                pieces.extend(more)
        got = (
            raw_profile(start, e, plugin, p_max),
            oracle_profile(start, e, plugin),
            adaptive_profile(start, o, p_max, p_rate),
        )
        for profile, pieces in zip(got, expected):
            assert repr(profile.pieces.tolist()) == repr(pieces)

    @pytest.mark.parametrize("p_max", [0.0, np.array([7.0, 0.0])])
    def test_raw_rejects_non_positive_p_max(self, p_max):
        start, e, plugin = columns(make_session(), make_session(energy_kwh=0.0))
        with pytest.raises(ValueError, match="p_max_kw must be positive"):
            raw_profile(start, e, plugin, p_max)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: simulate_session(HistoryArrays(s.energy_kwh, s.plugin_hours, np.nan), 1, 1),
            lambda s: raw_profile(s.start, s.energy_kwh, s.plugin_hours, np.nan),
            lambda s: oracle_profile(s.start, s.energy_kwh, np.array([np.nan])),
            lambda s: derive_p_max(dataclasses.replace(s, plugin_hours=[np.nan])),
            lambda s: learn_policies([s], [np.nan], [0], SearchConfig(n_tries=1), RewardParams()),
        ],
        ids=["simulate_session", "raw_profile", "oracle_profile", "derive_p_max", "learn_policies"],
    )
    def test_nan_fails_positive_value_checks(self, call):
        # each check is stated as what must hold, so a NaN fails it
        with pytest.raises(ValueError, match="positive"):
            call(table([make_session()]))

    def test_negative_zero_cap(self):
        o = simulate_session(charger([make_session(energy_kwh=0.0)], 7.0), -0.0, 0.5)
        expected = transcribed_session_rules(0.0, 10.0, 7.0, -0.0, 0.5)
        assert o.t_boost_hours.tolist() == [expected[0]] == [0.0]
        assert o.e_total_kwh.tolist() == [expected[2]] == [0.0]
