"""Reward-driven stochastic local search over the two charging parameters.

Each iteration perturbs the incumbent (boost duration, slow-rate
coefficient) by a random step with a random sign, re-evaluates the whole
session history, moves to the candidate when its reward is at least the
incumbent's and remembers the best point visited.  Step sizes vary across a
wide range so the search can escape local optima of the non-concave reward
surface.

learn_policies runs the search for many chargers at once.  Chargers whose
windows have the same length form a bucket, evaluated on a (chargers,
window) array.  A charger's result does not depend on its neighbours in
the bucket: its random draws come from its own seeded generator, every
elementwise operation is the same as in a one-charger search, and each sum
reduces its own row, in the same pairwise order as a one-charger sum.
Windows are never zero-padded to a common length, since padding would
change that order.  learn_policy is the one-charger case.

A bucket's rows start in lockstep, each call evaluating every row's next
try, until _LOCKSTEP_QUIET_CALLS calls in a row see no row accept.  Then
each call evaluates every unfinished row's next run of tries, all from its
incumbent (the steps are drawn up front), and the row moves to the run's
first accepted try, or past the run if none was accepted: a rejected try
changes neither the incumbent nor the best point (whose reward is always
the incumbent's), so each row walks the one-try-at-a-time path, bit for
bit.  A run doubles after a run with no acceptance and drops to one try
after an acceptance.  Warm-started re-learns reject almost every try, so
they take few calls; while some row accepts at every call, a bucket needs
a call per try anyway, and lockstep makes it with no per-row bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charging import ChargingPolicy, HistoryArrays, evaluate_policy_arrays, history_arrays
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
    start = None if init is None else [[init.t_boost_max_hours], [init.p_rate]]
    t, p, feasible = learn_policies([history], [p_max_kw], [seed], cfg, params, start)
    return LearnedPolicy(ChargingPolicy(float(t[0]), float(p[0])), bool(feasible[0]))


def learn_policies(
    histories: Sequence[Sessions],
    p_max_kw: Sequence[float],
    seeds: Sequence[int],
    cfg: SearchConfig,
    params: RewardParams,
    inits: np.ndarray | Sequence[Sequence[float]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """learn_policy for many chargers at once, in columns: inits is a
    (2, n) array-like of starts (boost cap, rate; a start holding a NaN
    starts cold).  Returns the boost caps, rates and feasibility (float64,
    float64, bool) in input order, each row bit-identical to searching that
    charger alone: histories of one length are searched together, in
    lockstep and then in runs of tries (see the module docstring)."""
    n = len(histories)
    inits = np.full((2, n), math.nan) if inits is None else np.asarray(inits, dtype=np.float64)
    p_max = np.asarray(p_max_kw, dtype=np.float64)
    if not (p_max.shape == (len(seeds),) == (n,) and inits.shape == (2, n)):
        raise ValueError("need one p_max_kw, seed and init per history")
    # stated as what must hold, so a NaN fails it
    if not (p_max > 0).all():
        raise ValueError("p_max_kw must be positive")
    groups: dict[int, list[int]] = {}
    for j, history in enumerate(histories):
        groups.setdefault(len(history), []).append(j)

    t, p = np.empty((2, n))
    feasible = np.empty(n, dtype=bool)
    for rows in groups.values():
        h = history_arrays([histories[j] for j in rows], p_max[rows])
        t[rows], p[rows], feasible[rows] = _search(
            h, cfg, [seeds[j] for j in rows], inits[:, rows], params
        )
    return t, p, feasible


# The most sessions (rows x window) a call of the runs covers, if one try
# per unfinished row fits; its arrays then fit a 2 MB L2 cache.  16,384 ran
# online re-learns 10% faster on a quiet 2-core host, 25-35% slower on a busy one.
_RUN_MAX_CELLS = 8192
# Ending lockstep after one quiet call made 32-charger offline buckets of
# cold starts, which accept in bursts, 8% slower; after three, no slower.
_LOCKSTEP_QUIET_CALLS = 3


def _search(
    h: HistoryArrays,
    cfg: SearchConfig,
    seeds: Sequence[int],
    inits: np.ndarray,
    params: RewardParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The search over a bucket of equal-length histories, in lockstep and
    then in runs of tries (see the module docstring), from the (2, k) start
    columns inits (a start holding a NaN starts cold).  Returns the bucket's
    boost caps, rates and feasibility."""
    k, n = len(seeds), cfg.n_tries
    t_mean, t_max = h.plugin.mean(axis=1), h.plugin.max(axis=1)

    # Rows of the state, one column per charger: the incumbent's boost cap,
    # rate and reward, the upper bounds of boost cap and rate, a row for a
    # call's candidate rewards, and the best point visited.
    state = np.empty((8, k))
    state[0], state[1], state[3], state[4] = t_mean, 0.5, t_max, 1.0
    # each start clamped into [0, upper] as min(max(x, 0.0), upper) clamps a
    # Python float, which keeps a -0.0 start (np.maximum would not)
    start = np.where(0.0 > inits, 0.0, inits)
    start = np.where(state[3:5] < start, state[3:5], start)
    np.copyto(state[:2], start, where=~np.isnan(inits).any(axis=0))

    # Each row's draws come up front, in the order a scalar loop takes them
    # from its generator (dx, sign of dx, dy, sign of dy per try);
    # low + (high - low) * u is exactly how Generator.uniform maps a draw.
    u = np.stack([np.random.default_rng(seed).random((n, 4)) for seed in seeds], axis=-1)
    steps = np.empty((n, 2, k))
    steps[:, 0] = t_mean * (cfg.dx_min + (cfg.dx_max - cfg.dx_min) * u[:, 0])
    steps[:, 1] = cfg.dy_min + (cfg.dy_max - cfg.dy_min) * u[:, 2]
    np.negative(steps, out=steps, where=u[:, 1::2] >= 0.5)

    e_loss, p_aggr = evaluate_policy_arrays(h, state[0, :, None], state[1, :, None])
    reward(e_loss, p_aggr, params, out=state[2])
    state[6:] = state[:2]
    # Equal-reward candidates move the walk (the reward surface has genuinely
    # flat regions, e.g. wherever the boost cap exceeds every session's full
    # charge time; drifting across them is the only way off), while the
    # returned policy is the best point visited.
    inc, inc_tp, inc_r, upper, best = state[:3], state[:2], state[2], state[3:5], state[6:]
    cand = np.empty((3, k))
    cand_tp, cand_r, cand_t, cand_p = cand[:2], cand[2], cand[0, :, None], cand[1, :, None]
    accepted, better = np.empty((2, k), dtype=bool)
    quiet = 0  # calls in a row in which no row accepted
    for i, step in enumerate(steps):
        np.add(inc_tp, step, out=cand_tp)
        _clip(cand_tp, upper)
        e_loss, p_aggr = evaluate_policy_arrays(h, cand_t, cand_p)
        reward(e_loss, p_aggr, params, out=cand_r)
        np.greater(cand_r, inc_r, out=better)
        np.copyto(best, cand_tp, where=better)
        np.greater_equal(cand_r, inc_r, out=accepted)
        np.copyto(inc, cand, where=accepted)
        quiet = 0 if np.count_nonzero(accepted) else quiet + 1
        if quiet == _LOCKSTEP_QUIET_CALLS:
            break

    # the rows with tries left: their state (written back to state when they
    # end), and their chargers, next tries, ends of tries (charger j's try i
    # is column j * n + i) and run lengths
    live = state
    rows = np.arange(k)
    pos = np.stack([rows, rows * n + i + 1, rows * n + n, np.full(k, 2)])
    rows, nxt, stop, run = pos
    steps = steps.transpose(1, 2, 0).reshape(2, k * n)
    while True:
        left = stop - nxt
        if np.count_nonzero(left) < rows.size:
            keep = left > 0
            state[:, rows[~keep]] = live[:, ~keep]
            live, pos, left = live[:, keep], pos[:, keep], left[keep]
            rows, nxt, stop, run = pos
            if not rows.size:
                break
        size = np.minimum(run, left, out=left)
        np.minimum(size, max(1, _RUN_MAX_CELLS // (rows.size * h.plugin.shape[1])), out=size)
        # the call's slots: each row's run of tries in a block
        ends = np.add.accumulate(size)
        firsts = ends - size
        index = np.arange(ends[-1])
        slot_step = (nxt - firsts).repeat(size) + index
        cand = live[:6].repeat(size, axis=1)
        cand[:2] += steps.take(slot_step, axis=1)
        _clip(cand[:2], cand[3:5])
        # no name holds the taken rows, so that they go before the next call's
        e_loss, p_aggr = evaluate_policy_arrays(
            h.take_rows(rows.repeat(size)), cand[0, :, None], cand[1, :, None]
        )
        reward(e_loss, p_aggr, params, out=cand[5])
        # each row's last try: its run's first accepted one, or its last
        hit = np.where(cand[5] >= cand[2], index, index.size)
        last = np.minimum(np.minimum.reduceat(hit, firsts), ends - 1)
        picked = cand.take(last, axis=1)
        accepted = picked[5] >= picked[2]
        better = picked[5] > picked[2]
        picked[2] = picked[5]
        np.copyto(live[:3], picked[:3], where=accepted)
        np.copyto(live[6:], picked[:2], where=better)
        np.add(slot_step.take(last), 1, out=nxt)
        np.multiply(size, 2, out=run)
        np.copyto(run, 1, where=accepted)

    # Finite weights give -inf only at or above the loss cap (unless
    # k1 * e_loss overflows a float), so a row whose best reward is -inf
    # visited no feasible point: it charges raw rather than undercharge, and
    # only then is the bucket evaluated again, to tell if raw is feasible.
    t, p = state[6:]
    fallback = state[2] == -np.inf
    feasible = ~fallback
    if fallback.any():
        t = np.where(fallback, t_max, t)
        p = np.where(fallback, 1.0, p)
        e_loss, _ = evaluate_policy_arrays(h, t[:, None], p[:, None])
        feasible = e_loss < params.e_max_loss_kwh
    return t, p, feasible


def _clip(tp: np.ndarray, upper: np.ndarray) -> None:
    """Clamp (boost cap, rate) rows in place into [0, upper]."""
    np.maximum(tp, 0.0, out=tp)
    np.minimum(tp, upper, out=tp)
