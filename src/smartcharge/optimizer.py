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

A small bucket, where numpy's cost per call outweighs the arithmetic,
evaluates two tries per call: every step is drawn up front, so the
candidate of try i and both possible candidates of try i+1 (after try i is
accepted or rejected) are known before try i is evaluated, and one call on
three copies of the bucket's rows evaluates all three.  Each row is still
evaluated on its own, so the results are the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charging import (
    ChargingPolicy,
    HistoryArrays,
    evaluate_policy_arrays,
    history_arrays,
)
from .dataset import Sessions


@dataclass(frozen=True)
class RewardParams:
    """Weights of the reward: k1 penalizes energy shortfall (per kWh), k2
    rewards low aggregate charging rate (kW), and any shortfall at or above
    e_max_loss_kwh disqualifies the policy outright."""

    k1: float = 0.1
    k2: float = 10.0
    e_max_loss_kwh: float = 10.0

    def __post_init__(self):
        # NaN fails every comparison, so each rule is stated as what holds;
        # the loss cap alone may be infinite (no cap)
        if not (0 <= self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError("require finite k1 >= 0 and finite k2 > 0")
        if not self.e_max_loss_kwh > 0:
            raise ValueError("require e_max_loss_kwh > 0")


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs: iteration count and step bounds.

    Boost-duration steps are relative (multiplied by the history's mean
    plugin duration); rate steps are absolute.
    """

    n_tries: int = 200
    dx_min: float = 0.01
    dx_max: float = 0.5
    dy_min: float = 0.01
    dy_max: float = 0.25

    def __post_init__(self):
        if not (0 < self.dx_min <= self.dx_max):
            raise ValueError("require 0 < dx_min <= dx_max")
        if not (0 < self.dy_min <= self.dy_max <= 1):
            raise ValueError("require 0 < dy_min <= dy_max <= 1")
        if self.n_tries < 1:
            raise ValueError("n_tries must be >= 1")


@dataclass(frozen=True)
class LearnedPolicy:
    """Search result: the chosen policy, and whether its shortfall over the
    history stays below the loss cap."""

    policy: ChargingPolicy
    feasible: bool


def reward(
    e_loss: np.ndarray,
    p_aggr: np.ndarray,
    params: RewardParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reward of each evaluated policy, from arrays of shortfalls (kWh) and
    aggregate rates (kW) as evaluate_policy_arrays returns them: -inf once
    the shortfall reaches the loss cap, otherwise k2 / p_aggr - k1 * e_loss,
    higher the lower the aggregate rate.  A zero rate (a history that
    delivers no energy) rewards +inf.  Written to out when given."""
    with np.errstate(divide="ignore"):
        out = np.divide(params.k2, p_aggr, out=out)
    out += -params.k1 * e_loss
    np.copyto(out, -np.inf, where=e_loss >= params.e_max_loss_kwh)
    return out


def rolling_window(history: Sessions, h: int | None) -> Sessions:
    """Last h sessions of a chronologically sorted history (all if h is None)."""
    if h is None:
        return history
    if h < 0:
        raise ValueError("history size must be >= 0 or None")
    return history[-h:] if h else history[:0]


def per_cp_seed(seed: int, key: str) -> int:
    """Stable 64-bit sub-seed for one charge point (or any string key), so
    per-charger results do not depend on scheduling order."""
    # imported here: hashlib maps OpenSSL, which a process that draws no
    # seed (a predict run, the parent of a pooled run) need not load
    import hashlib

    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def learn_policy(
    history: Sessions,
    p_max_kw: float,
    cfg: SearchConfig,
    params: RewardParams,
    init: ChargingPolicy | None = None,
    seed: int = 0,
) -> LearnedPolicy:
    """Search for the policy maximizing the reward over a session history.

    Starts from `init` when given (warm start), otherwise from (mean plugin
    duration, 0.5), and draws its steps from a generator seeded with `seed`.
    The incumbent reward is the evaluated starting point's reward, so the
    search can always make progress even when every feasible reward is
    negative.  If no point visited is feasible, falls back to the
    raw-equivalent policy (boost cap = longest plugin duration, rate 1.0),
    which delivers every target on a cleaned charge point.
    """
    return learn_policies([history], [p_max_kw], [seed], cfg, params, [init])[0]


def learn_policies(
    histories: Sequence[Sessions],
    p_max_kw: Sequence[float],
    seeds: Sequence[int],
    cfg: SearchConfig,
    params: RewardParams,
    inits: Sequence[ChargingPolicy | None] | None = None,
) -> list[LearnedPolicy]:
    """learn_policy for many chargers at once, one result per history.

    Histories of one length are searched in lockstep: every iteration
    evaluates one candidate per charger on a (chargers, window) array.
    Lengths are never padded to match, because padding would change the
    order of numpy's pairwise sums.  Each row draws its own seeded stream
    and every reduction runs along its own row, so a charger's result is
    bit-identical to searching it alone.  A bucket of at most
    _SPECULATE_MAX_CELLS sessions runs two tries per evaluation call (see
    _search), with the same results.
    """
    n = len(histories)
    inits = [None] * n if inits is None else inits
    if not len(p_max_kw) == len(seeds) == len(inits) == n:
        raise ValueError("need one p_max_kw, seed and init per history")
    groups: dict[int, list[int]] = {}
    for j, (history, p_max) in enumerate(zip(histories, p_max_kw)):
        if len(history) == 0:
            raise ValueError("history must be non-empty")
        if p_max <= 0:
            raise ValueError("p_max_kw must be positive")
        groups.setdefault(len(history), []).append(j)

    results: list[LearnedPolicy] = [None] * n  # type: ignore[list-item]
    for rows in groups.values():
        learned = _search(
            history_arrays([histories[j] for j in rows], [p_max_kw[j] for j in rows]),
            cfg,
            [seeds[j] for j in rows],
            [inits[j] for j in rows],
            params,
        )
        for j, result in zip(rows, learned):
            results[j] = result
    return results


# Buckets of at most this many sessions (rows x window) evaluate two tries
# per kernel call.  Up to this size numpy's cost per call outweighs the
# half row more per try that speculation evaluates (three rows per two
# tries); it is the largest size at which no measured shape got slower.
_SPECULATE_MAX_CELLS = 512


def _search(
    h: HistoryArrays,
    cfg: SearchConfig,
    seeds: Sequence[int],
    inits: Sequence[ChargingPolicy | None],
    params: RewardParams,
) -> list[LearnedPolicy]:
    """The lockstep search over equal-length histories (see learn_policies).

    A small bucket runs its tries in pairs, speculatively: with every step
    drawn up front, try i's candidate A = clip(inc + s_i) fixes try i+1's
    two possible candidates, B = clip(A + s_i+1) if A is accepted and
    C = clip(inc + s_i+1) if not.  One call on three copies of the bucket
    evaluates A, B and C; try i is then applied with A, and try i+1 with B
    or C per row, picked by try i's acceptance.  Each row is evaluated on
    its own, with the same operations on the same values, so the result is
    bit-identical to one try per call.
    """
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

    inc_tp, inc_r = inc[:2], inc[2]
    accept = np.empty(k, dtype=bool)
    better = np.empty(k, dtype=bool)
    e_loss, p_aggr = evaluate_policy_arrays(h, inc[0, :, None], inc[1, :, None])
    reward(e_loss, p_aggr, params, out=inc_r)
    best = inc.copy()
    best_r = best[2]

    def attempt(cand: np.ndarray, cand_r: np.ndarray) -> None:
        """Apply one try per row, the candidates' rewards already in cand_r:
        the incumbent moves to a candidate whose reward is at least its own
        (accept holds that mask afterwards), and the best point to one
        whose reward is higher than the best so far."""
        # Equal-reward candidates move the walk (the reward surface has
        # genuinely flat regions, e.g. wherever the boost cap exceeds every
        # session's full charge time; drifting across them is the only way
        # off), while the returned policy is the best point visited.
        np.greater_equal(cand_r, inc_r, out=accept)
        np.copyto(inc, cand, where=accept)
        np.greater(cand_r, best_r, out=better)
        np.copyto(best, cand, where=better)

    pairs = cfg.n_tries // 2 if h.e_target.size <= _SPECULATE_MAX_CELLS else 0
    if pairs:
        h3 = HistoryArrays(*(np.tile(x, (3, 1)) for x in (h.e_target, h.plugin, h.p_max_kw)))
        # columns: A, B and C, k each
        spec = np.empty((3, 3 * k))
        spec_t, spec_p, spec_r = spec[0, :, None], spec[1, :, None], spec[2]
        a, b, c = spec[:, :k], spec[:, k : 2 * k], spec[:, 2 * k :]
        a_tp, b_tp, c_tp, bc_tp = a[:2], b[:2], c[:2], spec[:2, k:]
        a_r, c_r = a[2], c[2]
        upper_bc = np.tile(upper, 2)
    for i in range(0, 2 * pairs, 2):
        np.add(inc_tp, steps[i], out=a_tp)
        _clip(a_tp, upper)
        np.add(a_tp, steps[i + 1], out=b_tp)
        np.add(inc_tp, steps[i + 1], out=c_tp)
        _clip(bc_tp, upper_bc)
        e_loss, p_aggr = evaluate_policy_arrays(h3, spec_t, spec_p)
        reward(e_loss, p_aggr, params, out=spec_r)
        attempt(a, a_r)
        np.copyto(c, b, where=accept)
        attempt(c, c_r)

    cand = np.empty((3, k))
    cand_tp, cand_t, cand_p, cand_r = cand[:2], cand[0, :, None], cand[1, :, None], cand[2]
    for step in steps[2 * pairs :]:
        np.add(inc_tp, step, out=cand_tp)
        _clip(cand_tp, upper)
        e_loss, p_aggr = evaluate_policy_arrays(h, cand_t, cand_p)
        reward(e_loss, p_aggr, params, out=cand_r)
        attempt(cand, cand_r)

    # Finite weights give -inf only at or above the loss cap (unless
    # k1 * e_loss overflows a float), so a row whose best reward is -inf
    # visited no feasible point: it charges raw rather than undercharge, and
    # only then is the bucket evaluated again, to tell if raw is feasible.
    t, p = best[0], best[1]
    fallback = best_r == -np.inf
    feasible = ~fallback
    if fallback.any():
        t = np.where(fallback, t_max, t)
        p = np.where(fallback, 1.0, p)
        e_loss, _ = evaluate_policy_arrays(h, t[:, None], p[:, None])
        feasible = e_loss < params.e_max_loss_kwh
    return [
        LearnedPolicy(ChargingPolicy(float(t[j]), float(p[j])), bool(feasible[j]))
        for j in range(k)
    ]


def _clip(tp: np.ndarray, upper: np.ndarray) -> None:
    """Clamp (boost cap, rate) rows in place into [0, upper]."""
    np.maximum(tp, 0.0, out=tp)
    np.minimum(tp, upper, out=tp)
