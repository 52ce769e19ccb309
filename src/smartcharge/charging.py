"""Two-phase charging model: boost at full rate, then low-power charging.

A policy has two parameters: the maximum boost duration in hours and the
slow-rate coefficient (slow power = coefficient * charger max power).
Simulating a session yields how much energy each phase delivered, the
session's effective charging rate and the energy shortfall; evaluating a
whole history yields the total shortfall and the energy-weighted aggregate
charging rate the reward is built on.  History evaluation runs on equal-length
histories of many chargers at once, one row per charger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Session


@dataclass(frozen=True)
class ChargingPolicy:
    """The two learned parameters of the charging function.

    t_boost_max_hours: cap on the boost phase duration.
    p_rate: slow-rate coefficient in [0, 1]; slow power is p_rate * p_max.
    """

    t_boost_max_hours: float
    p_rate: float

    def __post_init__(self):
        if self.t_boost_max_hours < 0:
            raise ValueError("t_boost_max_hours must be >= 0")
        if not 0.0 <= self.p_rate <= 1.0:
            raise ValueError("p_rate must be in [0, 1]")


@dataclass(frozen=True)
class SessionOutcome:
    """What one session delivered under a policy."""

    t_boost_hours: float
    e_boost_kwh: float
    e_total_kwh: float
    e_slow_kwh: float
    t_slow_hours: float
    p_eff_kw: float
    e_loss_kwh: float


@dataclass(frozen=True)
class PolicyEvaluation:
    """History-level result: total energy shortfall and the aggregate rate."""

    e_loss_kwh: float
    p_aggr_kw: float


@dataclass(frozen=True)
class PowerProfile:
    """Piecewise-constant power over one session.

    pieces: (start_s, end_s, power_kw) in absolute seconds, contiguous and
    confined to the session's charging window.
    """

    pieces: tuple[tuple[float, float, float], ...]

    def energy_kwh(self) -> float:
        return sum(kw * (t1 - t0) / 3600.0 for t0, t1, kw in self.pieces)

    def peak_kw(self) -> float:
        return max((kw for _, _, kw in self.pieces), default=0.0)


def simulate_session(
    session: Session, policy: ChargingPolicy, p_max_kw: float
) -> SessionOutcome:
    """Charge one session under the policy.

    Boost runs at p_max for up to t_boost_max hours (never more than the
    raw charge needs or the session lasts), then the remainder of the
    session charges at p_rate * p_max.  Delivered energy is capped at the
    session's target.
    """
    if p_max_kw <= 0:
        raise ValueError("p_max_kw must be positive")
    e_target = session.energy_kwh
    plugin = session.plugin_hours
    p_rate = policy.p_rate

    t_boost = min(e_target / p_max_kw, policy.t_boost_max_hours, plugin)
    e_boost = min(t_boost * p_max_kw, e_target)
    e_total = min(e_target, p_max_kw * (t_boost + (plugin - t_boost) * p_rate))
    e_slow = e_total - e_boost
    if e_slow <= 0.0:
        e_slow = 0.0
        t_slow = 0.0
    else:
        t_slow = e_slow / (p_max_kw * p_rate)
    if e_target > 0.0:
        p_eff = (e_boost + p_rate * (e_total - e_boost)) * p_max_kw / e_target
    else:
        p_eff = 0.0
    return SessionOutcome(
        t_boost_hours=t_boost,
        e_boost_kwh=e_boost,
        e_total_kwh=e_total,
        e_slow_kwh=e_slow,
        t_slow_hours=t_slow,
        p_eff_kw=p_eff,
        e_loss_kwh=e_target - e_total,
    )


class HistoryArrays:
    """Session histories of k chargers, all of one length L, prepared for
    repeated evaluation: (k, L) energy targets and plugin durations, each
    charger's max power (given as a (k, 1) column), the per-session terms no
    policy changes, and scratch space the evaluations reuse."""

    def __init__(
        self, e_target: np.ndarray, plugin: np.ndarray, p_max_kw: np.ndarray
    ):
        self.e_target = e_target
        self.plugin = plugin
        # stored full width: an operand broadcast from a column costs more
        # per call than a full-width one
        self.p_max_kw = np.broadcast_to(p_max_kw, e_target.shape).copy()
        # min(e_target / p_max, plugin), the part of the boost cap no policy
        # changes; min returns one of its operands, so applying the policy's
        # cap last gives the same value
        self.boost_cap = np.minimum(e_target / self.p_max_kw, plugin)
        self.charged = e_target > 0
        self._t_boost = np.empty_like(e_target)
        self._e_boost = np.empty_like(e_target)
        # rows reduced together: shortfall, delivered energy, p_eff * delivered
        self._terms = np.empty((3,) + e_target.shape)
        self._p_eff = np.zeros_like(e_target)


def history_arrays(
    histories: Sequence[Sequence[Session]], p_max_kw: Sequence[float]
) -> HistoryArrays:
    """Equal-length histories, one per charger, as arrays for evaluation."""
    return HistoryArrays(
        np.array([[s.energy_kwh for s in h] for h in histories], dtype=np.float64),
        np.array([[s.plugin_hours for s in h] for h in histories], dtype=np.float64),
        np.array(p_max_kw, dtype=np.float64)[:, None],
    )


def evaluate_policy_arrays(
    h: HistoryArrays, t_boost_max_hours, p_rate
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one policy per history: the parameters are (k, 1) columns
    (or scalars for all rows).  Returns each row's total shortfall and
    aggregate rate as (k,) arrays; the sums reduce the last axis of each row
    on its own, so a row's result does not depend on the other rows."""
    t_boost, e_boost, p_eff = h._t_boost, h._e_boost, h._p_eff
    shortfall, e_total, rate_energy = h._terms
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
    np.subtract(h.e_target, e_total, out=shortfall)
    # p_eff = (e_boost + p_rate * (e_total - e_boost)) * p_max / e_target,
    # 0 for sessions without energy (never written, so still 0)
    np.subtract(e_total, e_boost, out=t_boost)
    np.multiply(p_rate, t_boost, out=t_boost)
    np.add(e_boost, t_boost, out=t_boost)
    np.multiply(t_boost, h.p_max_kw, out=t_boost)
    np.divide(t_boost, h.e_target, out=p_eff, where=h.charged)
    np.multiply(p_eff, e_total, out=rate_energy)
    e_loss, delivered, weighted = np.add.reduce(h._terms, axis=-1)
    # a history that delivers nothing has an aggregate rate of 0
    p_aggr = np.divide(
        weighted, delivered, out=np.zeros(delivered.shape), where=delivered > 0.0
    )
    return e_loss, p_aggr


def evaluate_policy(
    history: Sequence[Session], policy: ChargingPolicy, p_max_kw: float
) -> PolicyEvaluation:
    """Total energy shortfall and energy-weighted aggregate charging rate
    of a policy replayed over a session history.

    Zero-energy sessions carry zero weight; a history that delivers nothing
    has an aggregate rate of 0 by definition.
    """
    if len(history) == 0:
        raise ValueError("history must be non-empty")
    if p_max_kw <= 0:
        raise ValueError("p_max_kw must be positive")
    e_loss, p_aggr = evaluate_policy_arrays(
        history_arrays([history], [p_max_kw]), policy.t_boost_max_hours, policy.p_rate
    )
    return PolicyEvaluation(e_loss_kwh=float(e_loss[0]), p_aggr_kw=float(p_aggr[0]))


def raw_profile(session: Session, p_max_kw: float) -> PowerProfile:
    """Uncontrolled charging: full rate from plugin until the target is met.

    Delivered energy equals the target by definition; the charger then sits
    idle for the rest of the session.
    """
    if p_max_kw <= 0:
        raise ValueError("p_max_kw must be positive")
    if session.energy_kwh <= 0:
        return PowerProfile(())
    duration_s = min(
        session.energy_kwh / p_max_kw * 3600.0, session.plugin_hours * 3600.0
    )
    t0 = float(session.start)
    return PowerProfile(((t0, t0 + duration_s, p_max_kw),))


def oracle_profile(session: Session) -> PowerProfile:
    """Hypothetical ideal charging: target energy spread evenly over the
    whole session.  Requires knowing the session duration up front, so it is
    a baseline, not an implementable strategy."""
    if session.plugin_hours <= 0:
        raise ValueError("plugin_hours must be positive")
    if session.energy_kwh <= 0:
        return PowerProfile(())
    power = session.energy_kwh / session.plugin_hours
    t0 = float(session.start)
    return PowerProfile(((t0, t0 + session.plugin_hours * 3600.0, power),))


def adaptive_profile(
    session: Session,
    outcome: SessionOutcome,
    p_max_kw: float,
    policy: ChargingPolicy,
) -> PowerProfile:
    """Power profile of a simulated session: boost piece then slow piece."""
    pieces = []
    t0 = float(session.start)
    if outcome.t_boost_hours > 0:
        t1 = t0 + outcome.t_boost_hours * 3600.0
        pieces.append((t0, t1, p_max_kw))
        t0 = t1
    if outcome.t_slow_hours > 0:
        pieces.append((t0, t0 + outcome.t_slow_hours * 3600.0, policy.p_rate * p_max_kw))
    return PowerProfile(tuple(pieces))
