"""Two-phase charging model: boost at full rate, then low-power charging.

A policy has two parameters: the maximum boost duration in hours and the
slow-rate coefficient (slow power = coefficient * charger max power).

One kernel charges every session of a HistoryArrays.  evaluate_policy_arrays
reduces its output to each history's shortfall and aggregate rate, one row
per charger; simulate_session adds each session's slow phase.  The profile
builders turn any sessions, a batch's too, into one array of power pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .dataset import Sessions


@dataclass(frozen=True)
class ChargingPolicy:
    """The two learned parameters of the charging function.

    t_boost_max_hours: cap on the boost phase duration.
    p_rate: slow-rate coefficient in [0, 1]; slow power is p_rate * p_max.
    """

    t_boost_max_hours: float
    p_rate: float

    def __post_init__(self):
        # stated as what must hold, so a NaN fails it
        if not self.t_boost_max_hours >= 0:
            raise ValueError("t_boost_max_hours must be >= 0")
        if not 0.0 <= self.p_rate <= 1.0:
            raise ValueError("p_rate must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class SessionOutcome:
    """What each session delivered under its policy: every field is an array
    with one entry per session (fields in the online log's column order)."""

    t_boost_hours: np.ndarray
    t_slow_hours: np.ndarray
    e_boost_kwh: np.ndarray
    e_slow_kwh: np.ndarray
    e_total_kwh: np.ndarray
    e_loss_kwh: np.ndarray
    p_eff_kw: np.ndarray

    def __getitem__(self, key) -> SessionOutcome:
        """The outcomes of the sessions key selects (a slice or a mask)."""
        return SessionOutcome(*(getattr(self, f.name)[key] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """Piecewise-constant power over a charger's sessions.

    pieces: (n, 3) array of (start_s, end_s, power_kw) rows in absolute
    seconds, in session order; a session's pieces are contiguous and confined
    to its charging window.  Any sequence of such triples is stored as that
    array.
    """

    pieces: np.ndarray

    def __post_init__(self):
        pieces = np.asarray(self.pieces, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "pieces", pieces)


class HistoryArrays:
    """Sessions as columns, prepared for repeated evaluation: energy targets
    and plugin durations of any shape -- a (k, L) block of k chargers'
    equal-length histories, or one charger's n sessions -- the max power of
    each session's charger (broadcast to that shape), the per-session terms
    no policy changes, and scratch space the evaluations reuse."""

    def __init__(self, e_target: np.ndarray, plugin: np.ndarray, p_max_kw):
        arrays = np.empty((10,) + e_target.shape)
        arrays[0] = e_target
        arrays[1] = plugin
        # stored full width: an operand broadcast from a column costs more
        # per call than a full-width one
        arrays[2] = p_max_kw
        # min(e_target / p_max, plugin), the part of the boost cap no policy
        # changes; min returns one of its operands, so applying the policy's
        # cap last gives the same value
        np.minimum(e_target / arrays[2], plugin, out=arrays[3])
        self._hold(arrays, e_target > 0)

    def _hold(self, arrays: np.ndarray, charged: np.ndarray) -> None:
        """Use arrays' rows: the four per-session columns, then scratch."""
        self._columns = arrays[:4]
        self.e_target, self.plugin, self.p_max_kw, self.boost_cap = self._columns
        self.charged = charged
        self._t_boost, self._e_boost, self._p_eff = arrays[4:7]
        self._p_eff.fill(0.0)
        # rows reduced together: shortfall, delivered energy, p_eff * delivered
        # (the kernel uses the last row as scratch before it holds its term)
        self._terms = arrays[7:]

    def take_rows(self, rows: np.ndarray) -> HistoryArrays:
        """The given rows of this (k, L) block, repeats allowed, as a new
        HistoryArrays, with no column computed again."""
        arrays = np.empty((10, len(rows)) + self.e_target.shape[1:])
        self._columns.take(rows, axis=1, out=arrays[:4], mode="clip")
        taken = HistoryArrays.__new__(HistoryArrays)
        taken._hold(arrays, self.charged.take(rows, axis=0))
        return taken


def history_arrays(
    histories: Sequence[Sessions], p_max_kw: Sequence[float]
) -> HistoryArrays:
    """Equal-length, non-empty histories, one per charger, as (k, L) arrays."""
    if any(len(h) == 0 for h in histories):
        raise ValueError("history must be non-empty")
    return HistoryArrays(
        np.stack([h.energy_kwh for h in histories]),
        np.stack([h.plugin_hours for h in histories]),
        np.array(p_max_kw, dtype=np.float64)[:, None],
    )


def _charge(h: HistoryArrays, t_boost_max_hours, p_rate) -> None:
    """The charging function on every session of h, written to h's scratch
    buffers: t_boost, e_boost, e_total (the middle row of h._terms) and
    p_eff.  The policy parameters broadcast against the sessions."""
    t_boost, e_boost, p_eff = h._t_boost, h._e_boost, h._p_eff
    _, e_total, scratch = h._terms
    # t_boost = min(e_target / p_max, t_boost_max, plugin)
    np.minimum(h.boost_cap, t_boost_max_hours, out=t_boost)
    # e_boost = min(t_boost * p_max, e_target)
    np.multiply(t_boost, h.p_max_kw, out=e_boost)
    np.minimum(e_boost, h.e_target, out=e_boost)
    # e_total = min(e_target, p_max * (t_boost + (plugin - t_boost) * p_rate))
    np.subtract(h.plugin, t_boost, out=e_total)
    np.multiply(e_total, p_rate, out=e_total)
    np.add(t_boost, e_total, out=e_total)
    np.multiply(h.p_max_kw, e_total, out=e_total)
    np.minimum(h.e_target, e_total, out=e_total)
    # p_eff = (e_boost + p_rate * (e_total - e_boost)) * p_max / e_target,
    # 0 for sessions without energy (never written, so still 0)
    np.subtract(e_total, e_boost, out=scratch)
    np.multiply(p_rate, scratch, out=scratch)
    np.add(e_boost, scratch, out=scratch)
    np.multiply(scratch, h.p_max_kw, out=scratch)
    np.divide(scratch, h.e_target, out=p_eff, where=h.charged)


def evaluate_policy_arrays(
    h: HistoryArrays, t_boost_max_hours, p_rate
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one policy per history: the parameters are (k, 1) columns
    (or scalars for all rows).  Returns each row's total shortfall and
    energy-weighted aggregate rate as (k,) arrays; the sums reduce the last
    axis of each row on its own, so a row's result does not depend on the
    other rows.  Zero-energy sessions carry zero weight."""
    _charge(h, t_boost_max_hours, p_rate)
    shortfall, e_total, rate_energy = h._terms
    np.subtract(h.e_target, e_total, out=shortfall)
    np.multiply(h._p_eff, e_total, out=rate_energy)
    e_loss, delivered, weighted = np.add.reduce(h._terms, axis=-1)
    # a history that delivers nothing has an aggregate rate of 0
    p_aggr = np.divide(
        weighted, delivered, out=np.zeros(delivered.shape), where=delivered > 0.0
    )
    return e_loss, p_aggr


def simulate_session(
    sessions: HistoryArrays, t_boost_max_hours, p_rate
) -> SessionOutcome:
    """Charge every session under its policy; the parameters are scalars
    for all sessions or arrays with one value per session.

    Boost runs at p_max for up to t_boost_max hours (never more than the
    raw charge needs or the session lasts), then the remainder of the
    session charges at p_rate * p_max.  Delivered energy is capped at the
    session's target.
    """
    # stated as what must hold, so a NaN fails it
    if not (sessions.p_max_kw > 0).all():
        raise ValueError("p_max_kw must be positive")
    _charge(sessions, t_boost_max_hours, p_rate)
    e_total = sessions._terms[1].copy()
    e_boost = sessions._e_boost.copy()
    e_slow = e_total - e_boost
    slow = e_slow > 0.0
    e_slow[~slow] = 0.0
    # at a rate of 0 kW (p_max * p_rate may underflow to 0 while the slow
    # phase still delivers energy) the slow phase runs to the session's end
    rate = sessions.p_max_kw * p_rate
    t_slow = np.where(slow, sessions.plugin - sessions._t_boost, 0.0)
    np.divide(e_slow, rate, out=t_slow, where=slow & (rate > 0.0))
    return SessionOutcome(
        t_boost_hours=sessions._t_boost.copy(),
        e_boost_kwh=e_boost,
        e_total_kwh=e_total,
        e_slow_kwh=e_slow,
        t_slow_hours=t_slow,
        p_eff_kw=sessions._p_eff.copy(),
        e_loss_kwh=sessions.e_target - e_total,
    )


def _pieces(*columns) -> np.ndarray:
    """(n, 3) rows from three columns, each an array or a scalar."""
    return np.column_stack(np.broadcast_arrays(*columns))


def raw_profile(start, e_target, plugin, p_max_kw: float | np.ndarray) -> PowerProfile:
    """Uncontrolled charging: full rate from plugin until the target is met
    or the session ends, then idle.  One piece per session with energy;
    start holds the plugin instants in absolute seconds, e_target the
    targets in kWh, plugin the durations in hours and p_max_kw the full rate."""
    # stated as what must hold, so a NaN fails it
    if not (np.asarray(p_max_kw) > 0).all():
        raise ValueError("p_max_kw must be positive")
    charged = e_target > 0
    t0 = np.asarray(start, dtype=np.float64)[charged]
    p_max_kw = np.broadcast_to(p_max_kw, e_target.shape)[charged]
    duration_s = np.minimum(
        e_target[charged] / p_max_kw * 3600.0, plugin[charged] * 3600.0
    )
    return PowerProfile(_pieces(t0, t0 + duration_s, p_max_kw))


def oracle_profile(start, e_target, plugin) -> PowerProfile:
    """Hypothetical ideal charging: each target spread evenly over its
    whole session.  Requires knowing the session duration up front, so it
    is a baseline, not an implementable strategy; its rate is not capped at
    the charger's max power."""
    # stated as what must hold, so a NaN fails it
    if not (plugin > 0).all():
        raise ValueError("plugin_hours must be positive")
    charged = e_target > 0
    t0 = np.asarray(start, dtype=np.float64)[charged]
    hours = plugin[charged]
    return PowerProfile(_pieces(t0, t0 + hours * 3600.0, e_target[charged] / hours))


def adaptive_profile(
    start, outcome: SessionOutcome, p_max_kw: float | np.ndarray, p_rate
) -> PowerProfile:
    """Power pieces of simulated sessions: each session's boost piece, then
    its slow piece at p_rate * p_max (p_max_kw and p_rate each a scalar or
    one value per session).  A phase that does not run has no piece."""
    t0 = np.asarray(start, dtype=np.float64)
    t1 = t0 + outcome.t_boost_hours * 3600.0
    boost = outcome.t_boost_hours > 0
    slow_t0 = np.where(boost, t1, t0)
    pieces = np.stack(
        [
            _pieces(t0, t1, p_max_kw),
            _pieces(slow_t0, slow_t0 + outcome.t_slow_hours * 3600.0, p_rate * p_max_kw),
        ],
        axis=1,
    )
    return PowerProfile(pieces[np.column_stack((boost, outcome.t_slow_hours > 0))])
