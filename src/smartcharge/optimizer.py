"""Reward-driven stochastic local search over the two charging parameters.

Each iteration perturbs the incumbent (boost duration, slow-rate
coefficient) by a random step with a random sign, re-evaluates the whole
session history, moves to the candidate when its reward is at least the
incumbent's and remembers the best point visited.  Step sizes vary across a
wide range so the search can escape local optima of the non-concave reward
surface.

learn_policies runs the search for many chargers at once.  Chargers whose
windows have the same length form a bucket, and each iteration evaluates
one candidate per charger of the bucket on a (chargers, window) array;
acceptance and best-point updates are masked per row.  A charger's result
does not depend on its neighbours in the bucket: its random draws come from
its own seeded generator, every elementwise operation is the same as in a
one-charger search, and each sum reduces its own row, in the same pairwise
order as a one-charger sum.  Windows are never zero-padded to a common
length, since padding would change that order.  learn_policy is the
one-charger case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .charging import (
    ChargingPolicy,
    HistoryArrays,
    PolicyEvaluation,
    evaluate_policy_arrays,
    history_arrays,
)
from .dataset import Session


@dataclass(frozen=True)
class RewardParams:
    """Weights of the reward: k1 penalizes energy shortfall (per kWh), k2
    rewards low aggregate charging rate (kW), and any shortfall at or above
    e_max_loss_kwh disqualifies the policy outright."""

    k1: float = 0.1
    k2: float = 10.0
    e_max_loss_kwh: float = 10.0

    def __post_init__(self):
        if self.k1 < 0 or self.k2 <= 0 or self.e_max_loss_kwh <= 0:
            raise ValueError("require k1 >= 0, k2 > 0, e_max_loss_kwh > 0")


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs: iteration count, step bounds and the RNG seed.

    Boost-duration steps are relative (multiplied by the history's mean
    plugin duration); rate steps are absolute.
    """

    n_tries: int = 200
    dx_min: float = 0.01
    dx_max: float = 0.5
    dy_min: float = 0.01
    dy_max: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.dx_min <= self.dx_max):
            raise ValueError("require 0 < dx_min <= dx_max")
        if not (0 < self.dy_min <= self.dy_max <= 1):
            raise ValueError("require 0 < dy_min <= dy_max <= 1")
        if self.n_tries < 1:
            raise ValueError("n_tries must be >= 1")


@dataclass(frozen=True)
class LearnedPolicy:
    """Search result: the chosen policy, its reward and history evaluation."""

    policy: ChargingPolicy
    reward: float
    evaluation: PolicyEvaluation
    feasible: bool


def reward(evaluation: PolicyEvaluation, params: RewardParams) -> float:
    """Reward of an evaluated policy; -inf once the shortfall reaches the
    acceptable-loss threshold, and higher the lower the aggregate rate."""
    if evaluation.e_loss_kwh >= params.e_max_loss_kwh:
        return float("-inf")
    if evaluation.p_aggr_kw <= 0.0:
        # Only possible when the history delivers no energy at all.
        return float("inf")
    return -params.k1 * evaluation.e_loss_kwh + params.k2 / evaluation.p_aggr_kw


def rolling_window(history: Sequence[Session], h: int | None) -> list[Session]:
    """Last h sessions of a chronologically sorted history (all if h is None)."""
    if h is None:
        return list(history)
    if h < 0:
        raise ValueError("history size must be >= 0 or None")
    return list(history[-h:]) if h else []


def per_cp_seed(seed: int, key: str) -> int:
    """Stable 64-bit sub-seed for one charge point (or any string key), so
    per-charger results do not depend on scheduling order."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def learn_policy(
    history: Sequence[Session],
    p_max_kw: float,
    cfg: SearchConfig,
    params: RewardParams,
    init: ChargingPolicy | None = None,
) -> LearnedPolicy:
    """Search for the policy maximizing the reward over a session history.

    Starts from `init` when given (warm start), otherwise from (mean plugin
    duration, 0.5).  The incumbent reward is the evaluated starting point's
    reward, so the search can always make progress even when every feasible
    reward is negative.  If the final incumbent is still infeasible, falls
    back to the raw-equivalent policy (boost cap = longest plugin duration,
    rate 1.0), which delivers every target on a cleaned charge point.
    """
    return learn_policies([history], [p_max_kw], [cfg], params, [init])[0]


def learn_policies(
    histories: Sequence[Sequence[Session]],
    p_max_kw: Sequence[float],
    cfgs: Sequence[SearchConfig],
    params: RewardParams,
    inits: Sequence[ChargingPolicy | None] | None = None,
) -> list[LearnedPolicy]:
    """learn_policy for many chargers at once, one result per history.

    Histories of one length whose configs differ at most in the seed are
    searched in lockstep: every iteration evaluates one candidate per
    charger on a (chargers, window) array.  Lengths are never padded to
    match, because padding would change the order of numpy's pairwise sums.
    Each row draws its own seeded stream and every reduction runs along its
    own row, so a charger's result is bit-identical to searching it alone.
    """
    n = len(histories)
    inits = [None] * n if inits is None else inits
    if not len(p_max_kw) == len(cfgs) == len(inits) == n:
        raise ValueError("need one p_max_kw, config and init per history")
    groups: dict[tuple[int, SearchConfig], list[int]] = {}
    for j, (history, p_max, cfg) in enumerate(zip(histories, p_max_kw, cfgs)):
        if len(history) == 0:
            raise ValueError("history must be non-empty")
        if p_max <= 0:
            raise ValueError("p_max_kw must be positive")
        groups.setdefault((len(history), replace(cfg, seed=0)), []).append(j)

    results: list[LearnedPolicy] = [None] * n  # type: ignore[list-item]
    for (_, knobs), rows in groups.items():
        learned = _search(
            history_arrays([histories[j] for j in rows], [p_max_kw[j] for j in rows]),
            knobs,
            [cfgs[j].seed for j in rows],
            [inits[j] for j in rows],
            params,
        )
        for j, result in zip(rows, learned):
            results[j] = result
    return results


def _rewards(
    e_loss: np.ndarray, p_aggr: np.ndarray, params: RewardParams, out: np.ndarray
) -> np.ndarray:
    """reward() of each row, written to out.  p_aggr is never negative on
    histories of non-negative energy, so a zero rate divides to +inf."""
    np.divide(params.k2, p_aggr, out=out)
    out += -params.k1 * e_loss
    np.copyto(out, -np.inf, where=e_loss >= params.e_max_loss_kwh)
    return out


def _search(
    h: HistoryArrays,
    cfg: SearchConfig,
    seeds: Sequence[int],
    inits: Sequence[ChargingPolicy | None],
    params: RewardParams,
) -> list[LearnedPolicy]:
    """The lockstep search over equal-length histories (see learn_policies)."""
    k = len(seeds)
    t_mean = h.plugin.mean(axis=1)
    t_max = h.plugin.max(axis=1)

    # Rows 0-2 of each state: boost cap, rate, reward.
    inc = np.empty((3, k))
    for j, init in enumerate(inits):
        if init is None:
            inc[0, j], inc[1, j] = t_mean[j], 0.5
        else:
            inc[0, j] = min(max(init.t_boost_max_hours, 0.0), float(t_max[j]))
            inc[1, j] = min(max(init.p_rate, 0.0), 1.0)

    # Each row's draws come up front, in the order a scalar loop takes them
    # from its generator (dx, sign of dx, dy, sign of dy per try);
    # low + (high - low) * u is exactly how Generator.uniform maps a draw.
    u = np.stack(
        [np.random.default_rng(seed).random((cfg.n_tries, 4)) for seed in seeds], axis=-1
    )
    steps = np.empty((cfg.n_tries, 2, k))
    steps[:, 0] = t_mean * (cfg.dx_min + (cfg.dx_max - cfg.dx_min) * u[:, 0])
    steps[:, 1] = cfg.dy_min + (cfg.dy_max - cfg.dy_min) * u[:, 2]
    np.negative(steps, out=steps, where=u[:, 1::2] >= 0.5)
    upper = np.stack([t_max, np.ones(k)])

    cand = np.empty((3, k))
    cand_tp, cand_r = cand[:2], cand[2]
    cand_t, cand_p = cand[0, :, None], cand[1, :, None]
    inc_tp, inc_r = inc[:2], inc[2]
    accept = np.empty(k, dtype=bool)
    better = np.empty(k, dtype=bool)
    with np.errstate(divide="ignore"):
        e_loss, p_aggr = evaluate_policy_arrays(h, inc[0, :, None], inc[1, :, None])
        _rewards(e_loss, p_aggr, params, out=inc_r)
        best = inc.copy()
        best_r = best[2]
        # Equal-reward candidates move the walk (the reward surface has
        # genuinely flat regions, e.g. wherever the boost cap exceeds every
        # session's full charge time; drifting across them is the only way
        # off), while the returned policy is the best point visited.
        for step in steps:
            np.add(inc_tp, step, out=cand_tp)
            np.maximum(cand_tp, 0.0, out=cand_tp)
            np.minimum(cand_tp, upper, out=cand_tp)
            e_loss, p_aggr = evaluate_policy_arrays(h, cand_t, cand_p)
            _rewards(e_loss, p_aggr, params, out=cand_r)
            np.greater_equal(cand_r, inc_r, out=accept)
            np.copyto(inc, cand, where=accept)
            np.greater(cand_r, best_r, out=better)
            np.copyto(best, cand, where=better)

        # The best point's evaluation is recomputed, not carried through the
        # loop: the same row and parameters give the same numbers.
        t, p = best[0], best[1]
        e_loss, p_aggr = evaluate_policy_arrays(h, t[:, None], p[:, None])
        fallback = e_loss >= params.e_max_loss_kwh
        if fallback.any():
            # Never found a feasible point: charge raw rather than undercharge.
            t = np.where(fallback, t_max, t)
            p = np.where(fallback, 1.0, p)
            e_loss, p_aggr = evaluate_policy_arrays(h, t[:, None], p[:, None])
        rewards = _rewards(e_loss, p_aggr, params, out=np.empty(k))

    return [
        LearnedPolicy(
            policy=ChargingPolicy(float(t[j]), float(p[j])),
            reward=float(rewards[j]),
            evaluation=PolicyEvaluation(float(e_loss[j]), float(p_aggr[j])),
            feasible=bool(e_loss[j] < params.e_max_loss_kwh),
        )
        for j in range(k)
    ]
