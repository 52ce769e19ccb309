"""Fold per-session power profiles into 1-second daily energy profiles.

Each slot holds the energy (kWh) dispensed during that second of the day,
summed over all sessions and all calendar days.  The 1-second resolution
with exact fractional-boundary proration keeps the profile's total energy
equal to the delivered energy (coarser slots visibly distort the totals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .charging import PowerProfile

SECONDS_PER_DAY = 86_400


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


def _add_cyclic_range(slots: np.ndarray, start_abs: int, n_seconds: int, kwh: float):
    """Add kwh to each of n_seconds consecutive absolute-second slots,
    wrapping modulo the day length."""
    if n_seconds <= 0:
        return
    full_days, rem = divmod(n_seconds, SECONDS_PER_DAY)
    if full_days:
        slots += kwh * full_days
    if rem:
        a = start_abs % SECONDS_PER_DAY
        b = a + rem
        if b <= SECONDS_PER_DAY:
            slots[a:b] += kwh
        else:
            slots[a:] += kwh
            slots[: b - SECONDS_PER_DAY] += kwh


def accumulate(
    profile: PowerProfile, into: DailyProfile | None = None
) -> DailyProfile:
    """Distribute a profile's power pieces into second-of-day energy slots.

    Fractional piece boundaries are prorated exactly: a piece covering part
    of a second contributes power * overlap / 3600 kWh to that slot.
    """
    out = into if into is not None else DailyProfile.zeros()
    slots = out.slots
    # Python floats: per-piece arithmetic on numpy scalars costs several times more
    for t0, t1, kw in profile.pieces.tolist():
        if t1 <= t0 or kw == 0.0:
            continue
        s0 = math.floor(t0)
        s1 = math.floor(t1)
        if s0 == s1:
            slots[s0 % SECONDS_PER_DAY] += kw * (t1 - t0) / 3600.0
            continue
        lead = (s0 + 1) - t0
        if lead > 0:
            slots[s0 % SECONDS_PER_DAY] += kw * lead / 3600.0
        _add_cyclic_range(slots, s0 + 1, s1 - (s0 + 1), kw / 3600.0)
        tail = t1 - s1
        if tail > 0:
            slots[s1 % SECONDS_PER_DAY] += kw * tail / 3600.0
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


def deficit_stats(
    cp_energy: Iterable[tuple[float, float]],
) -> tuple[float, float, float, float]:
    """Per-charge-point (target, delivered) totals -> dataset deficit stats.

    Returns (total target kWh, total deficit kWh, deficit percent of target,
    fraction of charge points whose own deficit exceeds 10% of their target).
    """
    total_target = 0.0
    total_deficit = 0.0
    n_cp = 0
    n_over = 0
    for target, delivered in cp_energy:
        n_cp += 1
        deficit = target - delivered
        total_target += target
        total_deficit += deficit
        if target > 0 and deficit > 0.10 * target:
            n_over += 1
    pct = 100.0 * total_deficit / total_target if total_target > 0 else 0.0
    frac = n_over / n_cp if n_cp else 0.0
    return total_target, total_deficit, pct, frac


def speed_histogram_counts(
    rel_speeds: Sequence[float], bins: int = 100
) -> np.ndarray:
    """Raw integer bin counts of relative speeds in [0, 1]; summing counts
    across charge points is exact in any order."""
    counts, _ = np.histogram(
        np.asarray(rel_speeds, dtype=np.float64), bins=bins, range=(0.0, 1.0)
    )
    return counts
