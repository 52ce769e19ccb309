"""Daily profile accumulation, merging and strategy statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartcharge.aggregation import (
    SECONDS_PER_DAY,
    DailyProfile,
    accumulate,
    deficit_stats,
    peak_reduction,
    speed_histogram_counts,
)
from smartcharge.charging import PowerProfile

from conftest import BASE_EPOCH, brute_force_profile


def day_offset(seconds):
    """Absolute instant at the given second-of-day (BASE_EPOCH is midnight)."""
    return float(BASE_EPOCH + seconds)


class TestAccumulate:
    def test_one_hour_from_midnight(self):
        prof = accumulate(PowerProfile(((day_offset(0), day_offset(3600), 7.0),)))
        assert np.allclose(prof.slots[:3600], 7.0 / 3600.0)
        assert prof.slots[3600:].sum() == 0.0
        assert prof.total_energy_kwh() == pytest.approx(7.0, rel=1e-12)

    def test_midnight_wrap(self):
        start = day_offset(84600)  # 23:30:00
        prof = accumulate(PowerProfile(((start, start + 3600.0, 7.0),)))
        expected = brute_force_profile(((start, start + 3600.0, 7.0),))
        assert np.allclose(prof.slots, expected, atol=1e-15)
        assert np.allclose(prof.slots[84600:], 7.0 / 3600.0)
        assert np.allclose(prof.slots[:1800], 7.0 / 3600.0)
        assert prof.slots[1800:84600].sum() == 0.0
        assert prof.total_energy_kwh() == pytest.approx(7.0, rel=1e-12)

    def test_sub_second_piece(self):
        start = day_offset(100)
        prof = accumulate(PowerProfile(((start, start + 0.5, 7.0),)))
        assert prof.slots[100] == pytest.approx(7.0 * 0.5 / 3600.0, rel=1e-12)
        assert prof.total_energy_kwh() == pytest.approx(7.0 * 0.5 / 3600.0, rel=1e-12)

    def test_fractional_boundaries_against_oracle(self):
        rng = np.random.default_rng(6)
        pieces = []
        for _ in range(60):
            t0 = day_offset(float(rng.uniform(0, 2 * SECONDS_PER_DAY)))
            dur = float(rng.uniform(0.1, 8000.0))
            pieces.append((t0, t0 + dur, float(rng.uniform(0.5, 20.0))))
        prof = accumulate(PowerProfile(tuple(pieces)))
        assert np.allclose(prof.slots, brute_force_profile(pieces), atol=1e-12)

    def test_multi_day_piece(self):
        start = day_offset(500)
        dur = 2 * SECONDS_PER_DAY + 100.0
        prof = accumulate(PowerProfile(((start, start + dur, 3.0),)))
        expected = brute_force_profile(((start, start + dur, 3.0),))
        assert np.allclose(prof.slots, expected, atol=1e-12)
        assert prof.total_energy_kwh() == pytest.approx(3.0 * dur / 3600.0, rel=1e-9)

    def test_energy_conserved_random(self):
        rng = np.random.default_rng(77)
        pieces = []
        total = 0.0
        for _ in range(200):
            t0 = day_offset(float(rng.uniform(0, SECONDS_PER_DAY)))
            dur = float(rng.uniform(0.01, 50 * 3600.0))
            kw = float(rng.uniform(0.1, 50.0))
            pieces.append((t0, t0 + dur, kw))
            total += kw * dur / 3600.0
        prof = accumulate(PowerProfile(tuple(pieces)))
        assert prof.total_energy_kwh() == pytest.approx(total, rel=1e-6)


# piece starts, as seconds after a midnight: on whole seconds, anywhere in
# two days, or in the last hour of a day, so the piece wraps past midnight
piece_starts = st.one_of(
    st.integers(0, 2 * SECONDS_PER_DAY).map(float),
    st.floats(0.0, 2 * SECONDS_PER_DAY),
    st.floats(SECONDS_PER_DAY - 3600.0, float(SECONDS_PER_DAY)),
)
piece_lengths = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0, exclude_min=True),  # sub-second
    st.integers(1, 7200).map(float),  # ends on a whole second from a whole one
    st.floats(1.0, float(SECONDS_PER_DAY)),
    st.floats(float(SECONDS_PER_DAY), 3.0 * SECONDS_PER_DAY),  # several days
)
piece_powers = st.one_of(st.just(0.0), st.floats(0.1, 50.0))


class TestAccumulateAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(piece_starts, piece_lengths, piece_powers), max_size=6))
    def test_matches_per_second_oracle(self, drawn):
        pieces = [(day_offset(t), day_offset(t) + dur, kw) for t, dur, kw in drawn]
        want = brute_force_profile(pieces)
        got = accumulate(PowerProfile(tuple(pieces))).slots
        # bench/check.py's SLOT_RTOL: 1e-9 of the oracle's peak
        assert np.abs(got - want).max() <= 1e-9 * want.max()

    def test_batch_sized_mix(self):
        """One call over as many pieces as a batch folds, at the rates of a
        slow and a rapid charger, with every kind of piece drawn above."""
        rng = np.random.default_rng(2024)
        n = 2000
        starts = rng.uniform(0, 2 * SECONDS_PER_DAY, n)
        starts[:300] = rng.uniform(SECONDS_PER_DAY - 3600, SECONDS_PER_DAY, 300)  # wraps
        starts[300:600] = rng.integers(0, 2 * SECONDS_PER_DAY, 300)  # whole seconds
        lengths = rng.uniform(1.0, 12 * 3600.0, n)
        lengths[300:450] = rng.integers(1, 7200, 150)  # whole-second ends
        lengths[600:800] = rng.uniform(0.0, 1.0, 200)  # sub-second
        lengths[800:830] = rng.uniform(SECONDS_PER_DAY, 3 * SECONDS_PER_DAY, 30)  # days
        lengths[830:900] = 0.0
        powers = rng.choice([0.1, 50.0], n)
        powers[900:950] = 0.0
        pieces = [
            (day_offset(t), day_offset(t) + dur, kw)
            for t, dur, kw in zip(starts.tolist(), lengths.tolist(), powers.tolist())
        ]
        want = brute_force_profile(pieces)
        got = accumulate(PowerProfile(tuple(pieces))).slots
        assert np.abs(got - want).max() <= 1e-9 * want.max()


class TestMerge:
    """Profiles of groups of pieces merged into a running total by adding
    slots, the fold harness._run applies to the pieces the offline and
    online batches return: a key's held pieces are folded in one call
    whenever they pass a row bound, so the groups follow the batches."""

    def test_many_merges_match_one_pass(self):
        rng = np.random.default_rng(14)
        all_pieces = []
        merged = DailyProfile.zeros()
        for _ in range(100):
            t0 = day_offset(float(rng.uniform(0, SECONDS_PER_DAY)))
            piece = (t0, t0 + float(rng.uniform(1, 40000)), float(rng.uniform(0.1, 10)))
            all_pieces.append(piece)
            merged.slots += accumulate(PowerProfile((piece,))).slots
        one_pass = accumulate(PowerProfile(tuple(all_pieces)))
        assert np.allclose(merged.slots, one_pass.slots, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(piece_starts, piece_lengths, piece_powers), max_size=40),
        st.lists(st.integers(0, 40), max_size=8),
    )
    def test_folding_groups_matches_one_call(self, drawn, splits):
        pieces = np.array(
            [(day_offset(t), day_offset(t) + dur, kw) for t, dur, kw in drawn]
        ).reshape(-1, 3)
        total = 0
        for group in np.split(pieces, sorted(min(i, len(pieces)) for i in splits)):
            total = total + accumulate(PowerProfile(group)).slots
        one_call = accumulate(PowerProfile(pieces)).slots
        assert np.abs(total - one_call).max() <= 1e-12 * one_call.max()


class TestPeakReduction:
    def test_identical_profiles(self):
        prof = accumulate(PowerProfile(((day_offset(0), day_offset(100), 5.0),)))
        assert peak_reduction(prof, prof) == 0.0

    def test_half_peak(self):
        base = accumulate(PowerProfile(((day_offset(0), day_offset(100), 8.0),)))
        cand = accumulate(PowerProfile(((day_offset(0), day_offset(100), 4.0),)))
        assert peak_reduction(cand, base) == pytest.approx(50.0, rel=1e-12)

    def test_zero_baseline_errors(self):
        # no baseline peak, no reduction: None, not an error
        assert peak_reduction(DailyProfile.zeros(), DailyProfile.zeros()) is None

    def test_peak_power_scaling(self):
        prof = accumulate(PowerProfile(((day_offset(0), day_offset(3600), 7.0),)))
        assert prof.peak_kw() == pytest.approx(7.0, rel=1e-12)
        assert prof.peak_second_of_day() == 0


class TestDeficitStats:
    def test_all_delivered(self):
        target, deficit, pct, frac = deficit_stats([10.0, 5.0], np.array([10.0, 5.0]))
        assert (deficit, pct, frac) == (0.0, 0.0, 0.0)
        assert target == 15.0

    def test_one_cp_over_threshold(self):
        target = np.array([100.0] + [50.0] * 9)
        delivered = np.array([85.0] + [50.0] * 9)
        _, deficit, pct, frac = deficit_stats(target, delivered)
        assert deficit == 15.0
        assert frac == pytest.approx(0.1)
        assert pct == pytest.approx(100.0 * 15.0 / 550.0)

    def test_exactly_ten_percent_not_counted(self):
        _, _, _, frac = deficit_stats(np.array([100.0]), np.array([90.0]))
        assert frac == 0.0


class TestSpeedHistogram:
    """Bin counts of relative speeds (effective over maximum power), which
    the offline speed histogram sums over chargers and normalizes."""

    def test_all_raw_mass_at_one(self):
        counts = speed_histogram_counts([1.0] * 20)
        assert counts[-1] == 20
        assert counts[:-1].sum() == 0

    def test_speed_one_ulp_above_full_lands_in_last_bin(self):
        # the kernel can return an effective power one ulp above p_max
        counts = speed_histogram_counts([np.nextafter(1.0, 2.0), 0.5])
        assert counts[-1] == 1 and counts[50] == 1
        assert counts.sum() == 2

    def test_single_outcome_bin(self):
        counts = speed_histogram_counts([3.85 / 7.0])
        assert np.argmax(counts) == 55
        assert counts.sum() == 1

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(1)
        parts = [speed_histogram_counts(rng.uniform(0, 1, 30).tolist()) for _ in range(4)]
        total = parts[0] + parts[1] + parts[2] + parts[3]
        assert total.dtype.kind == "i" and total.sum() == 120
        assert (total / total.sum()).sum() == pytest.approx(1.0, rel=1e-12)
