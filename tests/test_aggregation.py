"""Daily profile accumulation, merging and strategy statistics."""

import math

import numpy as np
import pytest

from smartcharge.aggregation import (
    SECONDS_PER_DAY,
    DailyProfile,
    accumulate,
    deficit_stats,
    peak_reduction,
    speed_histogram_counts,
)
from smartcharge.charging import PowerProfile

from conftest import BASE_EPOCH


def brute_force_profile(pieces):
    """Per-second overlap loop: the layout oracle accumulate() must match."""
    slots = np.zeros(SECONDS_PER_DAY)
    for t0, t1, kw in pieces:
        s = math.floor(t0)
        while s < t1:
            overlap = min(t1, s + 1) - max(t0, s)
            if overlap > 0:
                slots[s % SECONDS_PER_DAY] += kw * overlap / 3600.0
            s += 1
    return slots


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


class TestMerge:
    """Per-batch profiles merged into a total by adding slots, the fold the
    offline and online runs apply to their batches."""

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


class TestPeakReduction:
    def test_identical_profiles(self):
        prof = accumulate(PowerProfile(((day_offset(0), day_offset(100), 5.0),)))
        assert peak_reduction(prof, prof) == 0.0

    def test_half_peak(self):
        base = accumulate(PowerProfile(((day_offset(0), day_offset(100), 8.0),)))
        cand = accumulate(PowerProfile(((day_offset(0), day_offset(100), 4.0),)))
        assert peak_reduction(cand, base) == pytest.approx(50.0, rel=1e-12)

    def test_zero_baseline_errors(self):
        with pytest.raises(ValueError):
            peak_reduction(DailyProfile.zeros(), DailyProfile.zeros())

    def test_peak_power_scaling(self):
        prof = accumulate(PowerProfile(((day_offset(0), day_offset(3600), 7.0),)))
        assert prof.peak_kw() == pytest.approx(7.0, rel=1e-12)
        assert prof.peak_second_of_day() == 0


class TestDeficitStats:
    def test_all_delivered(self):
        target, deficit, pct, frac = deficit_stats([(10.0, 10.0), (5.0, 5.0)])
        assert (deficit, pct, frac) == (0.0, 0.0, 0.0)
        assert target == 15.0

    def test_one_cp_over_threshold(self):
        rows = [(100.0, 85.0)] + [(50.0, 50.0)] * 9
        _, deficit, pct, frac = deficit_stats(rows)
        assert deficit == 15.0
        assert frac == pytest.approx(0.1)
        assert pct == pytest.approx(100.0 * 15.0 / 550.0)

    def test_exactly_ten_percent_not_counted(self):
        _, _, _, frac = deficit_stats([(100.0, 90.0)])
        assert frac == 0.0


class TestSpeedHistogram:
    """Bin counts of relative speeds (effective over maximum power), which
    the offline speed histogram sums over chargers and normalizes."""

    def test_all_raw_mass_at_one(self):
        counts = speed_histogram_counts([1.0] * 20)
        assert counts[-1] == 20
        assert counts[:-1].sum() == 0

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

    def test_custom_bins(self):
        counts = speed_histogram_counts([0.5], bins=10)
        assert len(counts) == 10
        assert counts[5] == 1
