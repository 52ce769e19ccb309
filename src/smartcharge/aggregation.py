"""Fold per-session power profiles into 1-second daily energy profiles.

Each slot holds the energy (kWh) dispensed during that second of the day,
summed over all sessions and all calendar days.  The 1-second resolution
with exact fractional-boundary proration keeps the profile's total energy
equal to the delivered energy (coarser slots visibly distort the totals).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .charging import PowerProfile

SECONDS_PER_DAY = 86_400
SPEED_BINS = 100  # relative-speed histogram bins


@dataclass
class DailyProfile:
    """86,400 energy-per-second-of-day accumulators for one strategy."""

    slots: np.ndarray

    @classmethod
    def zeros(cls) -> "DailyProfile":
        return cls(np.zeros(SECONDS_PER_DAY))

    def total_energy_kwh(self) -> float:
        return float(self.slots.sum())

    def peak_kw(self) -> float:
        """Highest average power over any one-second slot."""
        return float(self.slots.max()) * 3600.0

    def peak_second_of_day(self) -> int:
        return int(self.slots.argmax())

    def power_kw(self) -> np.ndarray:
        return self.slots * 3600.0


def accumulate(profile: PowerProfile) -> DailyProfile:
    """Distribute a profile's power pieces into second-of-day energy slots.

    Fractional piece boundaries are prorated exactly: a piece covering part
    of a second contributes power * overlap / 3600 kWh to that slot.  The
    whole seconds between a piece's first and last second add its rate as
    a run, and the run's whole days add it to every slot.  The runs' two-day
    difference array is summed and folded onto one day in place, so the
    only day-length arrays besides the result are the three bincounts.
    """
    pieces = profile.pieces
    t0, t1, kw = pieces[(pieces[:, 1] > pieces[:, 0]) & (pieces[:, 2] != 0.0)].T
    s0, s1 = np.floor(t0), np.floor(t1)
    rate = kw / 3600.0
    # a piece within one second is all first second; a last second's part
    # counts only when it is not also the first
    head = kw * (np.minimum(t1, s0 + 1) - t0) / 3600.0
    tail = np.where(s1 > s0, kw * (t1 - s1) / 3600.0, 0.0)
    first = s0.astype(np.int64) % SECONDS_PER_DAY
    out = DailyProfile.zeros()  # (bincount of no pieces is integer-typed)
    out.slots += np.bincount(first, head, SECONDS_PER_DAY)
    out.slots += np.bincount(s1.astype(np.int64) % SECONDS_PER_DAY, tail, SECONDS_PER_DAY)
    # the run starts a second after the first and may cross one midnight:
    # +rate at its start and -rate past its end on a two-day difference
    # array, summed in place and folded onto its first day
    days, rem = np.divmod(np.maximum(s1 - s0 - 1, 0).astype(np.int64), SECONDS_PER_DAY)
    run = first + 1
    diff = np.bincount(
        np.concatenate((run, run + rem)), np.concatenate((rate, -rate)), 2 * SECONDS_PER_DAY
    ).astype(np.float64, copy=False)
    np.cumsum(diff, out=diff)
    # whole days add to every slot; not rate @ days, whose BLAS dot over more
    # than about 10k pieces wakes BLAS threads that keep spinning on another
    # core after the call, a core a run's pool workers need
    whole_days = (rate * days).sum()
    today = diff[:SECONDS_PER_DAY]
    today += diff[SECONDS_PER_DAY:]
    today += whole_days
    out.slots += today
    return out


def peak_reduction(candidate: DailyProfile, baseline: DailyProfile) -> float | None:
    """Percent the candidate's peak power sits below the baseline's; None
    when the baseline has no peak to reduce (every session it covers is
    empty or has no energy)."""
    base = baseline.peak_kw()
    if base <= 0:
        return None
    return 100.0 * (base - candidate.peak_kw()) / base


@dataclass(frozen=True)
class StrategyMetrics:
    """Aggregate results of one charging strategy."""

    peak_kw: float
    peak_second_of_day: int
    total_energy_kwh: float
    total_deficit_kwh: float
    deficit_percent: float
    cp_deficit_over_10pct_fraction: float


def total(values) -> float:
    """Left-to-right sum from 0.0, the order every report total is added in
    (np.sum adds pairwise, and builtin sum() compensates from Python 3.12
    on)."""
    return reduce(operator.add, np.asarray(values, dtype=np.float64).tolist(), 0.0)


def deficit_stats(target, delivered) -> tuple[float, float, float, float]:
    """Each charge point's target and delivered kWh -> dataset deficit stats.

    Returns (total target kWh, total deficit kWh, deficit percent of target,
    fraction of charge points whose own deficit exceeds 10% of their target).
    """
    target = np.asarray(target, dtype=np.float64)
    deficit = target - delivered
    total_target, total_deficit = total(target), total(deficit)
    n_over = int(np.count_nonzero((target > 0) & (deficit > 0.10 * target)))
    pct = 100.0 * total_deficit / total_target if total_target > 0 else 0.0
    frac = n_over / len(target) if len(target) else 0.0
    return total_target, total_deficit, pct, frac


def speed_histogram_counts(rel_speeds: Sequence[float]) -> np.ndarray:
    """Raw integer counts of relative speeds in SPEED_BINS equal bins of
    [0, 1]; summing batches' counts is exact in any order.  A full-power
    session can come out one ulp above 1.0, which np.histogram would drop
    as out of range, so speeds are clamped to 1.0."""
    speeds = np.minimum(np.asarray(rel_speeds, dtype=np.float64), 1.0)
    return np.histogram(speeds, bins=SPEED_BINS, range=(0.0, 1.0))[0]
