"""Experiment orchestration and report emission.

Three run modes over a cleaned chargepoint dataset:

offline -- per charge point, learn one policy on the chronologically first
           80% of sessions and replay the last 20% under the raw, ideal and
           learned strategies.
online  -- replay each charge point session by session, charging raw during
           a warmup and re-learning the policy after every session.
predict -- per-charge-point cross-validated duration regression.

Every mode's batches return per-charger columns by name, and _run joins
them into one table per run, a row per charger (the results' columns,
cp_id first).  Offline and online both return SUMMARY_COLUMNS (_simulate)
and report the same fleet summary from them (SimulatedResults,
_summary_lines): aggregate daily profiles, deficits, phase hours and
relative speed, over the test split offline and over every session
online.  Per-charger figures are in policies.csv offline and outcomes.csv
online.

Charge points are the unit of parallel work.  Work is cut into fixed-size
batches processed in sorted order and folded back in batch order, so every
report is byte-identical for any worker count.  Predict cuts its batches
from the chargers ordered by session count, so that chargers of equal
length share a batch and cross_validate stacks them, and puts its table
back in charger order.  Within a batch, policy searches run together
through optimizer.learn_policies: offline learns all of the batch's
chargers in one call, and online replays the batch in lockstep by session
index, re-learning after session i every charger that needs it in one call.
learn_policies takes starts and returns policies as columns, each charger's
as it would be alone, so a charger's reports do not depend on which
chargers share its batch.  Then, in both modes, _simulate charges all the
batch's sessions in one call, builds each profile's pieces in one call per
strategy, and sums every charger's summary columns in one pass; offline
bins the batch's speeds once.

A batch returns (columns, pieces, kept).  Its profiles are power pieces,
not day-length slot arrays, so its result stays small, and _run folds
each key's pieces, in batch order, into that key's daily profile: one
aggregation.accumulate call whenever the held pieces reach _FOLD_ROWS
rows, and one at the end.  kept is what else the mode reduces, one value
per batch in batch order: offline sums the speed counts, online keeps
each batch's session log as it came, and predict keeps nothing.

Each mode maps its report names to chunks of text for _write_reports, so
the long reports (profiles and the online outcome log) stream to disk and
never exist whole, as a list of rows or as one string.  A chunk of a
profile costs one repr per run of equal values in a column and one string
operation per run of equal rows; at paper scale nearly every second
differs, so the reprs dominate.  A table is formatted a column at a time.

run starts one worker pool for the whole run when --workers is above 1:
min(--workers, usable CPUs) processes, shut down after the last report is
written or when a stage raises.  Three stages map their calls on it through
_ordered_map, in order: the parse (byte ranges of the input,
dataset.parse_sessions_path) and the profile CSVs' chunks with at most two
per worker in flight, the batches all submitted at once.  Clean, the folds
and the other reports stay in the parent.  With one worker there is no
pool, and each stage maps the same functions in this process.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat, starmap
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import aggregation
from .aggregation import DailyProfile, StrategyMetrics, deficit_stats, total
from .charging import (
    HistoryArrays,
    PowerProfile,
    adaptive_profile,
    oracle_profile,
    raw_profile,
    simulate_session,
)
from .dataset import (
    MAX_HOURS,
    MIN_SESSIONS,
    ChargePoint,
    CleaningReport,
    ParseError,
    clean_sessions,
    parse_sessions_path,
)
from .optimizer import (
    RewardParams,
    SearchConfig,
    learn_policies,
    learn_policy,  # not called here; the benchmark's tracer wraps this name
    per_cp_seed,
    rolling_window,
)
from .predictor import PredictionMetrics, cross_validate, pool_metrics

BATCH_SIZE = 32
# the rows of pieces a profile key holds before _run folds them.  A fold
# pays for its day-length arrays once per this many rows; on a fleet of
# 309k sessions at 1 worker, the batch stage's resident set peaked at 70 MB
# with 2**14 and 75 MB with 2**15, against the clean stage's 76 MB
_FOLD_ROWS = 2**14
_PROFILE_CHUNK_ROWS = 4096
STRATEGIES = ("raw", "oracle", "rl")
# every report a run of some mode writes, besides cleaning_report.txt
REPORTS = (
    ("parse_errors.csv", "metrics.txt", "profiles.csv")
    + ("profiles_all_sessions.csv", "policies.csv", "speed_histogram.csv")  # offline
    + ("outcomes.csv",)  # online
    + ("prediction_per_cp.csv", "prediction_report.txt")  # predict
)
# a simulated run's summary columns: each charger's session count and its
# count of counted sessions (see _simulate), both integers, then its sums
# over them
SUMMARY_COLUMNS = (
    "n_sessions", "n_outcomes", "target_kwh", "delivered_kwh", "raw_delivered_kwh",
    "boost_hours_sum", "slow_hours_sum", "rel_speed_sum", "raw_effective_hours_sum",
)
# the types an ExperimentConfig field accepts, by its annotation
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


class HarnessError(Exception):
    """Fatal experiment error (bad input, nothing to simulate)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults follow the published experiment
    setup where one exists (80/20 split, 100-session online warmup, and the
    search, reward and cleaning defaults of SearchConfig, RewardParams and
    dataset).

    Each field is one option: the CLI's flag --<name> (with - for _) and
    its config file key <name>.  max_loss is RewardParams.e_max_loss_kwh;
    cp restricts the run to those charge points; out_dir is the report
    directory."""

    input: str
    mode: str = "offline"
    history: int | None = 30
    min_sessions: int = MIN_SESSIONS
    max_hours: float = MAX_HOURS
    seed: int = 0
    n_tries: int = SearchConfig.n_tries
    k1: float = RewardParams.k1
    k2: float = RewardParams.k2
    max_loss: float = RewardParams.e_max_loss_kwh
    dx_min: float = SearchConfig.dx_min
    dx_max: float = SearchConfig.dx_max
    dy_min: float = SearchConfig.dy_min
    dy_max: float = SearchConfig.dy_max
    warmup: int = 100
    train_fraction: float = 0.8
    out_dir: str = "out"
    workers: int = 1
    cp: tuple[str, ...] = ()
    emit_resolution: int = 1
    cold_start: bool = False
    p_max_percentile: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if kind == "tuple[str, ...]":
                ok = isinstance(value, tuple) and all(isinstance(v, str) for v in value)
            else:
                # bool is an int subclass, but True is no count and no rate
                ok = isinstance(value, _FIELD_TYPES[kind]) and (
                    kind == "bool" or not isinstance(value, bool)
                )
            if not ok:
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if self.emit_resolution < 1 or aggregation.SECONDS_PER_DAY % self.emit_resolution:
            raise ValueError("emit_resolution must divide 86400")
        percentile = self.p_max_percentile
        for ok, rule in (
            (0.0 < self.train_fraction < 1.0, "train_fraction must be in (0, 1)"),
            (self.mode in ("offline", "online", "predict"), f"unknown mode {self.mode!r}"),
            (self.history is None or self.history >= 1, "history must be >= 1 or unlimited"),
            (self.workers >= 1, "workers must be >= 1"),
            (self.warmup >= 0, "warmup must be >= 0"),
            (self.min_sessions >= 1, "min_sessions must be >= 1"),
            (self.max_hours > 0, "max_hours must be > 0"),
            (self.max_loss > 0, "max_loss must be > 0"),
            (percentile is None or 0 < percentile <= 100, "p_max_percentile must be in (0, 100]"),
        ):
            if not ok:
                raise ValueError(rule)
        # the search's own checks, made before any work starts
        self.reward_params()
        self.search_config()

    def reward_params(self) -> RewardParams:
        return RewardParams(k1=self.k1, k2=self.k2, e_max_loss_kwh=self.max_loss)

    def search_config(self) -> SearchConfig:
        # each SearchConfig field has a field of the same name here
        return SearchConfig(**{f.name: getattr(self, f.name) for f in fields(SearchConfig)})


# ---------------------------------------------------------------------------
# shared plumbing


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a new file beside path, then rename it to path,
    so a rerun never leaves a half-written report.  The file gets the mode
    open() would give it: 0o666 less the umask.  Reports are UTF-8 whatever
    the locale."""
    tmp = os.path.join(os.path.dirname(path), f".tmp-report-{os.urandom(8).hex()}")
    # O_EXCL: never write into a file that already exists (mkstemp would
    # ensure that too, but creates the file with mode 0o600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_rows(columns: Iterable[Iterable]) -> str:
    """The CSV lines of the columns' rows.  A column is a numpy array or an
    iterable of Python str, int and float values; each value is written as
    str() gives it, which for a float is its shortest round-trip repr."""
    rows = zip(*(map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns))
    return "\n".join([*map(",".join, rows), ""])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int) -> int:
    """A run's worker count: --workers, at most one per usable CPU."""
    return min(workers, _usable_cpus())


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A process pool of _pool_size(workers) workers, or None when that is
    1.  On exit the pool cancels its queued calls and shuts down, waiting
    for its workers, whether the block ended or raised."""
    size = _pool_size(workers)
    if size <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=size)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _ordered_map(pool, fn, calls: Iterable[tuple], in_flight: int) -> Iterator:
    """fn(*args) for each args of calls, in order: in this process without
    a pool, else on it with at most in_flight calls submitted and not yet
    taken.  Executor.map would submit every call at once and hold every
    finished result here.  When a call raises, or the generator is closed
    early, the calls still queued are cancelled and the running ones waited
    for."""
    if pool is None:
        yield from starmap(fn, calls)
        return
    pending = deque()
    try:
        for args in calls:
            pending.append(pool.submit(fn, *args))
            if len(pending) >= in_flight:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _map_batches(fn, items: Sequence, map_calls) -> Iterator:
    """Apply fn to fixed-size batches of items through map_calls (the run's
    _ordered_map), all in flight at once, yielding results in batch order
    regardless of worker count (the determinism contract)."""
    # as Executor.map submits them, so no worker waits behind a slow batch
    starts = range(0, len(items), BATCH_SIZE)
    return map_calls(fn, ((items[i : i + BATCH_SIZE],) for i in starts), in_flight=len(starts))


def _run(batch_fn, cfg: ExperimentConfig, usable_only: bool, pool, by_length: bool = False):
    """Parse and clean the input, keep the chargers the run covers (the --cp
    selection, usable ones only if asked) in clean_sessions' order, and run
    batch_fn(batch, cfg) over their batches: in that order, or if by_length
    by session count, most first and ties in that order, so that chargers
    of equal length share a batch.  Both stages map their calls on the
    pool; without one, a run of several workers starts its own.

    Each batch returns (columns, pieces, kept): its per-charger columns as
    {name: array}, its profiles' power pieces as {key: (n, 3) array} and
    one value for the mode to reduce.  Each column name is joined in batch
    order after cp_id, the chargers run.  A key's pieces are held in batch
    order and folded into its running daily profile by one
    aggregation.accumulate call whenever they reach _FOLD_ROWS rows, and
    once at the end, so the folds, like the batches, do not depend on the
    worker count.  Returns the RunResults fields (the columns' rows in
    clean_sessions' order), the chargers run in that order, each profile's
    slots by key and the kept values in batch order.
    """
    workers = _pool_size(cfg.workers)
    if pool is None and workers > 1:
        with _worker_pool(cfg.workers) as pool:
            return _run(batch_fn, cfg, usable_only, pool)
    map_calls = partial(_ordered_map, pool, in_flight=2 * workers)
    sessions, parse_errors = parse_sessions_path(cfg.input, map_calls, workers)
    charge_points, cleaning = clean_sessions(
        sessions,
        min_sessions=cfg.min_sessions,
        max_hours=cfg.max_hours,
        p_max_percentile=cfg.p_max_percentile,
    )
    if cfg.cp:
        wanted = set(cfg.cp)
        missing = wanted - {cp.cp_id for cp in charge_points}
        if missing:
            raise HarnessError(f"charge point(s) not in cleaned dataset: {sorted(missing)}")
        charge_points = [cp for cp in charge_points if cp.cp_id in wanted]
    if usable_only:
        unusable = [cp for cp in charge_points if not cp.usable]
        capped = [cp.cp_id for cp in unusable if cp.sessions.energy_kwh.any()]
        if capped:
            rule = f"p_max_percentile {cfg.p_max_percentile!r}"
            raise HarnessError(f"{rule} caps charge point(s) with energy at 0 kW: {capped}")
        if cfg.cp and unusable:
            empty = [cp.cp_id for cp in unusable]
            raise HarnessError(f"charge point(s) with no energy to simulate: {empty}")
        charge_points = [cp for cp in charge_points if cp.usable]
    if not charge_points:
        raise HarnessError(f"no {'usable ' if usable_only else ''}charge points after cleaning")

    parts, totals, kept = {}, {}, []
    held = {}  # each key's pieces not yet folded, in batch order

    def fold(key):
        profile = aggregation.accumulate(PowerProfile(np.concatenate(held.pop(key))))
        totals[key] = totals.get(key, 0) + profile.slots

    order = list(range(len(charge_points)))
    if by_length:
        order.sort(key=lambda j: -len(charge_points[j].sessions))
    batched = [charge_points[j] for j in order]
    batches = _map_batches(partial(batch_fn, cfg=cfg), batched, map_calls)
    for batch_columns, batch_pieces, batch_kept in batches:
        for name, array in batch_columns.items():
            parts.setdefault(name, []).append(array)
        kept.append(batch_kept)
        for key, pieces in batch_pieces.items():
            held.setdefault(key, []).append(pieces)
            if sum(map(len, held[key])) >= _FOLD_ROWS:
                fold(key)
    for key in list(held):
        fold(key)
    columns = {"cp_id": np.array([cp.cp_id for cp in charge_points], dtype=object)}
    back = np.empty(len(order), dtype=np.intp)  # each charger's row in batch order
    back[order] = np.arange(len(order))
    for name in list(parts):
        columns[name] = np.concatenate(parts.pop(name))[back]
    common = dict(cfg=cfg, cleaning=cleaning, parse_errors=parse_errors, columns=columns)
    return common, charge_points, totals, kept


def _profiles(totals: dict, scope: str) -> dict[str, DailyProfile]:
    """Each strategy's summed daily profile over the scope's sessions."""
    return {s: DailyProfile(totals[scope, s]) for s in STRATEGIES}


def _simulate(batch: Sequence[ChargePoint], t_boost_max_hours, p_rate, firsts: dict, learned):
    """Simulate the batch's sessions (each charger's in turn) in one call,
    each under its policy: the parameters hold one value per session.  For
    each scope of firsts (each charger's first session in it), build each
    strategy's pieces of the scope's sessions.

    Returns the outcomes, each charger's SUMMARY_COLUMNS over its sessions
    in the first scope (a dict), the relative speeds it sums (of the
    sessions with energy that learned, a mask or True, marks), and the
    pieces by (scope, strategy).  n_sessions and the raw effective hours
    cover every session."""
    counts = [len(cp.sessions) for cp in batch]
    offsets = np.cumsum(counts) - counts  # each charger's first session
    start, e, plugin = (
        np.concatenate([getattr(cp.sessions, name) for cp in batch])
        for name in ("start", "energy_kwh", "plugin_hours")
    )
    p_max = np.repeat([cp.p_max_kw for cp in batch], counts)
    outcome = simulate_session(HistoryArrays(e, plugin, p_max), t_boost_max_hours, p_rate)
    pieces, scopes = {}, []
    for scope, first in firsts.items():
        kept = np.arange(len(e)) >= np.repeat(offsets + first, counts)
        scopes.append(kept)
        built = (
            raw_profile(start[kept], e[kept], plugin[kept], p_max[kept]),
            oracle_profile(start[kept], e[kept], plugin[kept]),
            adaptive_profile(start[kept], outcome[kept], p_max[kept], p_rate[kept]),
        )
        for s, profile in zip(STRATEGIES, built):
            pieces[scope, s] = profile.pieces

    counted = scopes[0] & (e > 0) & learned
    rel_speeds = outcome.p_eff_kw / p_max
    # raw charging delivers a session's whole target unless p_max_percentile
    # capped the power below the session's rate
    raw_delivered = np.where(e / plugin <= p_max, e, p_max * plugin)
    phases = [outcome.t_boost_hours, outcome.t_slow_hours, rel_speeds]
    # raw charging runs at p_max until the target is met or the session ends
    raw_hours = np.minimum(e / p_max, plugin)
    # the count of counted sessions leads: an exact integer-valued sum
    sums = _segment_sums(
        [counted, e, outcome.e_total_kwh, raw_delivered, *phases, raw_hours],
        [counted] + [scopes[0]] * 3 + [counted] * 3 + [np.ones(len(e), dtype=bool)],
        counts,
    )
    columns = [np.array(counts, dtype=np.int64), sums[:, 0].astype(np.int64), *sums[:, 1:].T]
    summary = dict(zip(SUMMARY_COLUMNS, columns))
    return outcome, summary, rel_speeds[counted], pieces


def _segment_sums(values, masks, counts: Sequence[int]) -> np.ndarray:
    """(chargers, rows): each charger's sums of the rows of values (one
    value per session, counts[j] sessions of charger j in turn) over its
    sessions that the rows of masks mark, added left to right from 0.0 as
    aggregation.total adds: one np.cumsum along a zero-padded (rows,
    chargers, 1 + longest) array.  An unmarked session adds +0.0, which
    changes no sum started from +0.0."""
    row = np.repeat(np.arange(len(counts)), counts)
    column = 1 + np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.zeros((len(values), len(counts), 1 + max(counts)))
    padded[:, row, column] = np.where(masks, values, 0.0)
    return np.cumsum(padded, axis=2)[:, np.arange(len(counts)), counts].T


@dataclass
class RunResults:
    """What every mode reports: its input's parse and clean, and its
    per-charger table, a row per charger run."""

    cfg: ExperimentConfig
    cleaning: CleaningReport
    parse_errors: list[ParseError]
    columns: dict[str, np.ndarray]  # by name: cp_id, then the mode's batch columns


@dataclass
class SimulatedResults(RunResults):
    """An offline or online run's fleet figures: its chargers'
    SUMMARY_COLUMNS, and the daily profiles of the sessions they cover."""

    profiles: dict[str, DailyProfile]

    def metrics(self, strategy: str) -> StrategyMetrics:
        # the oracle is uncapped, so it always delivers its whole target
        delivered = {"raw": "raw_delivered_kwh", "oracle": "target_kwh", "rl": "delivered_kwh"}
        s = self.columns
        _, deficit, pct, frac = deficit_stats(s["target_kwh"], s[delivered[strategy]])
        profile = self.profiles[strategy]
        return StrategyMetrics(
            peak_kw=profile.peak_kw(),
            peak_second_of_day=profile.peak_second_of_day(),
            total_energy_kwh=profile.total_energy_kwh(),
            total_deficit_kwh=deficit,
            deficit_percent=pct,
            cp_deficit_over_10pct_fraction=frac,
        )

    def peak_reduction(self, strategy: str) -> float | None:
        """None when the raw profile has no peak to reduce."""
        return aggregation.peak_reduction(self.profiles[strategy], self.profiles["raw"])

    def _mean(self, column: str, count: str = "n_outcomes") -> float:
        n = total(self.columns[count])
        return total(self.columns[column]) / n if n else 0.0

    def mean_boost_hours(self) -> float:
        return self._mean("boost_hours_sum")

    def mean_slow_hours(self) -> float:
        return self._mean("slow_hours_sum")

    def mean_raw_effective_hours(self) -> float:
        return self._mean("raw_effective_hours_sum", "n_sessions")

    def mean_relative_speed(self) -> float:
        return self._mean("rel_speed_sum")


# ---------------------------------------------------------------------------
# offline mode


@dataclass
class OfflineResults(SimulatedResults):
    """Its summary columns, profiles and speed counts cover the test split;
    its columns add each charger's policy and split."""

    profiles_all: dict[str, DailyProfile]
    speed_counts: np.ndarray  # binned relative speeds of the sessions with energy

    def speed_histogram(self) -> np.ndarray:
        s = self.speed_counts.sum()
        return self.speed_counts / s if s else self.speed_counts.astype(np.float64)


def _offline_batch(batch: Sequence[ChargePoint], cfg: ExperimentConfig):
    """Learn each charger's policy on the last `history` sessions with
    energy among its first ceil(train_fraction * n), then simulate the
    batch's sessions, each under its charger's policy.  The sessions after
    the first n are the test split: the summary and the "test" profiles
    cover them, and the "all" profiles every session.  kept is the test
    split's speed counts."""
    splits = [math.ceil(cfg.train_fraction * len(cp.sessions)) for cp in batch]
    trains = [cp.sessions[:n] for cp, n in zip(batch, splits)]
    windows = [rolling_window(t[t.energy_kwh > 0], cfg.history) for t in trains]
    learning = [j for j, window in enumerate(windows) if len(window)]
    # each charger's policy columns; with nothing to learn from, a charger
    # charges raw rather than guess
    t_boost_max = np.array([cp.sessions.plugin_hours.max() for cp in batch])
    p_rate, feasible = np.ones(len(batch)), np.ones(len(batch), dtype=bool)
    t_boost_max[learning], p_rate[learning], feasible[learning] = learn_policies(
        [windows[j] for j in learning],
        [batch[j].p_max_kw for j in learning],
        [per_cp_seed(cfg.seed, batch[j].cp_id) for j in learning],
        cfg.search_config(),
        cfg.reward_params(),
    )
    counts = [len(cp.sessions) for cp in batch]
    per_session = (np.repeat(column, counts) for column in (t_boost_max, p_rate))
    scopes = {"test": splits, "all": 0}
    _, columns, speeds, pieces = _simulate(batch, *per_session, scopes, True)
    columns.update(t_boost_max_hours=t_boost_max, p_rate=p_rate, feasible=feasible)
    columns.update(n_train=np.array(splits), n_test=np.subtract(counts, splits))
    return columns, pieces, aggregation.speed_histogram_counts(speeds)


def run_offline(cfg: ExperimentConfig, pool=None) -> OfflineResults:
    common, _, totals, speed_counts = _run(_offline_batch, cfg, True, pool)
    return OfflineResults(
        **common,
        profiles=_profiles(totals, "test"),
        profiles_all=_profiles(totals, "all"),
        speed_counts=np.sum(speed_counts, axis=0),
    )


# ---------------------------------------------------------------------------
# online mode


@dataclass
class OnlineResults(SimulatedResults):
    """Its summary columns and profiles cover every session (phase hours
    and speeds: adaptive ones).  log[b] is batch b's session log, for
    charge_points[b * BATCH_SIZE : (b + 1) * BATCH_SIZE]: a row per
    session of theirs, in turn, by outcomes.csv's names (adaptive: charged
    under a learned policy, else raw)."""

    charge_points: list[ChargePoint]
    log: list[dict[str, np.ndarray]]


def _online_batch(batch: Sequence[ChargePoint], cfg: ExperimentConfig):
    """Session-by-session replay: raw during warmup, then each session is
    charged with the policy learned from all preceding ones, which is
    re-learned (warm-started) after every session.

    The batch's chargers replay in lockstep by session index, so the
    re-learns of one index run as one learn_policies call; each charger
    still gets exactly the policies it would get replayed alone.  Learning
    reads the sessions, never their outcomes, so the replay only records
    each session's policy, and the batch is simulated once after it.
    kept is the batch's session log.
    """
    sessions = [cp.sessions for cp in batch]
    counts = [len(s) for s in sessions]
    # each charger's first session in the batch's arrays
    offsets = (np.cumsum(counts) - counts).tolist()
    # each session's policy, in batch order: raw (boost for the whole
    # session) unless adaptive
    t_boost_max = np.concatenate([s.plugin_hours for s in sessions])
    p_rate = np.ones(len(t_boost_max))
    adaptive = np.zeros(len(t_boost_max), dtype=bool)
    # the sessions with energy, and how many of them sessions 0..i include
    charged = [s[s.energy_kwh > 0] for s in sessions]
    n_charged = [np.cumsum(s.energy_kwh > 0).tolist() for s in sessions]
    # after session i, learn the policy session i + 1 charges with; the
    # warmup's sessions charge raw
    for i in range(max(cfg.warmup - 1, 0), max(counts) - 1):
        relearn = [j for j, n in enumerate(counts) if i + 1 < n and n_charged[j][i]]
        if not relearn:
            continue
        k = np.array([offsets[j] + i for j in relearn])
        # warm start from the policy learned for session i, if any
        warm = adaptive[k] & (not cfg.cold_start)
        t_boost_max[k + 1], p_rate[k + 1], _ = learn_policies(
            [rolling_window(charged[j][: n_charged[j][i]], cfg.history) for j in relearn],
            [batch[j].p_max_kw for j in relearn],
            [per_cp_seed(cfg.seed, f"{batch[j].cp_id}#{i}") for j in relearn],
            cfg.search_config(),
            cfg.reward_params(),
            np.where(warm, [t_boost_max[k], p_rate[k]], np.nan),
        )
        adaptive[k + 1] = True

    outcome, columns, _, pieces = _simulate(batch, t_boost_max, p_rate, {"all": 0}, adaptive)
    log = {"adaptive": adaptive, **vars(outcome)}
    log.update(policy_t_boost_max_hours=t_boost_max, policy_p_rate=p_rate)
    return columns, pieces, log


def run_online(cfg: ExperimentConfig, pool=None) -> OnlineResults:
    common, charge_points, totals, log = _run(_online_batch, cfg, True, pool)
    profiles = _profiles(totals, "all")
    return OnlineResults(**common, profiles=profiles, charge_points=charge_points, log=log)


# ---------------------------------------------------------------------------
# predict mode


@dataclass
class PredictResults(RunResults):
    """Its columns: each charger's row count, whether it had enough rows
    to cross-validate, and its PredictionMetrics fields with and without
    energy (mae_with_energy ... mape_excluded_without_energy)."""

    @property
    def skipped(self) -> int:
        return int(np.count_nonzero(~self.columns["evaluated"]))

    def pooled(self, include_energy: bool) -> PredictionMetrics:
        suffix = "_with_energy" if include_energy else "_without_energy"
        c = self.columns
        values = (c[f.name + suffix][c["evaluated"]].tolist() for f in fields(PredictionMetrics))
        return pool_metrics(list(starmap(PredictionMetrics, zip(*values))))


def _predict_batch(batch: Sequence[ChargePoint], cfg: ExperimentConfig):
    """PredictResults' columns for the batch; a charger with too few rows
    to cross-validate holds NaN and 0 metrics."""
    histories = [cp.sessions for cp in batch]
    columns = {"n_rows": np.array([max(len(s) - 1, 0) for s in histories])}
    blank = PredictionMetrics(mae=np.nan, mape=np.nan, mse=np.nan, n=0)
    for suffix, include_energy in (("with_energy", True), ("without_energy", False)):
        metrics = cross_validate(histories, include_energy=include_energy)
        if include_energy:
            columns["evaluated"] = np.array([m is not None for m in metrics])
        for f in fields(PredictionMetrics):
            columns[f"{f.name}_{suffix}"] = np.array([getattr(m or blank, f.name) for m in metrics])
    return columns, {}, None


def run_predict(cfg: ExperimentConfig, pool=None) -> PredictResults:
    return PredictResults(**_run(_predict_batch, cfg, False, pool, by_length=True)[0])


# ---------------------------------------------------------------------------
# report emission


def _profile_csv(
    profiles: dict[str, DailyProfile], resolution: int, pool=None, workers: int = 1
) -> Iterator[str]:
    """second_of_day,raw_kw,oracle_kw,rl_kw rows, as chunks of text of
    _PROFILE_CHUNK_ROWS rows each; coarser resolutions emit the average
    power over each bucket.  _profile_rows formats each chunk, on the pool
    of that many workers if there is one, with at most two chunks per
    worker in flight."""
    arrays = [profiles[s].power_kw() for s in STRATEGIES]
    if resolution > 1:
        arrays = [
            a.reshape(aggregation.SECONDS_PER_DAY // resolution, resolution).mean(axis=1)
            for a in arrays
        ]
    yield "second_of_day,raw_kw,oracle_kw,rl_kw\n"
    calls = (
        (lo * resolution, resolution, [a[lo : lo + _PROFILE_CHUNK_ROWS] for a in arrays])
        for lo in range(0, len(arrays[0]), _PROFILE_CHUNK_ROWS)
    )
    yield from _ordered_map(pool, _profile_rows, calls, 2 * workers)


def _profile_rows(first_second: int, resolution: int, columns: list[np.ndarray]) -> str:
    """The CSV rows of one chunk of the profile columns, the first at
    first_second, one per resolution seconds.

    A profile is piecewise constant (accumulate sums runs of equal rate),
    so the Python work is done once per run: one repr per run of equal bit
    patterns in a column (0.0 and -0.0 stay apart), and one str.replace per
    run of equal rows, which puts the run's ",raw,oracle,rl" text in place
    of the "," after each of its seconds.  numpy writes the seconds as
    ASCII digits.  At paper scale nearly every second differs, so the reprs
    dominate.
    """
    n = len(columns[0])
    bits = [chunk.view(np.int64) for chunk in columns]
    starts = np.ones((len(bits), n), bool)
    starts[:, 1:] = [b[1:] != b[:-1] for b in bits]
    rows = np.flatnonzero(starts.any(axis=0))
    texts = []
    for chunk, column_starts in zip(columns, starts):
        runs = list(map(repr, chunk[column_starts].tolist()))
        if len(runs) < len(rows):  # a run of this column spans runs of rows
            runs = np.array(runs, dtype=object)[np.cumsum(column_starts)[rows] - 1].tolist()
        texts.append(runs)
    suffixes = list(map(",".join, zip(repeat(""), *texts)))
    del texts  # the suffixes hold copies of the reprs

    # one column per row: five digits, ",", a newline and a NUL, of which
    # keep picks the written ones; each decimal place is one contiguous pass
    seconds = np.arange(first_second, first_second + n * resolution, resolution, np.int32)
    text = np.empty((8, n), np.uint8)
    keep = np.zeros((8, n), bool)
    for i, place in enumerate((10_000, 1_000, 100, 10, 1)):
        text[i] = seconds // place % 10 + ord("0")
        keep[i] = seconds >= place
    text[5:] = np.frombuffer(b",\n\0", np.uint8)[:, None]
    keep[4:7] = True  # the units digit, 0 too, "," and the newline
    keep[7, rows[1:] - 1] = True  # a NUL after each run of rows but the last
    runs_of_seconds = text.T[keep.T].tobytes().decode("ascii").split("\0")
    return "".join(map(str.replace, runs_of_seconds, repeat(","), suffixes))


def _text_report(title: str, cfg: ExperimentConfig, lines: list[str]) -> list[str]:
    """A text report's chunks: its underlined title and the run's
    configuration, then a blank line and the lines."""
    history = "unlimited" if cfg.history is None else str(cfg.history)
    config = (
        f"mode={cfg.mode} history={history} seed={cfg.seed} n_tries={cfg.n_tries} "
        f"k1={cfg.k1!r} k2={cfg.k2!r} e_max_loss={cfg.max_loss!r} "
        f"min_sessions={cfg.min_sessions} train_fraction={cfg.train_fraction!r} "
        f"warmup={cfg.warmup}"
    )
    return ["\n".join([title, "=" * len(title), config, "", *lines]) + "\n"]


def _write_reports(results: RunResults, output_dir: str, reports: dict) -> dict[str, str]:
    """Write a run's report bundle to output_dir; returns each report's path.

    First remove every report an earlier run of any mode may have left
    there, so no old file stays beside the new ones, not even when this run
    fails halfway.  Then write the cleaning report, the rejected input rows
    if there are any, and each {name: chunks} entry of reports in order,
    each atomically, chunk by chunk as its text is made.
    """
    os.makedirs(output_dir, exist_ok=True)
    for name in REPORTS:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(output_dir, name))
    rejected = [f"{e.line_number},{e.reason.replace(',', ';')}\n" for e in results.parse_errors]
    reports = {
        "cleaning_report.txt": [results.cleaning.to_text()],
        **({"parse_errors.csv": ["line_number,reason\n", *rejected]} if rejected else {}),
        **reports,
    }
    for name, chunks in reports.items():
        _atomic_write(os.path.join(output_dir, name), chunks)
    return {name: os.path.join(output_dir, name) for name in reports}


def _summary_lines(results: SimulatedResults, scope: str, learned_label: str) -> list[str]:
    """metrics.txt's fleet summary: each strategy's aggregate daily profile
    and deficits over the scope's sessions, the peak reduction when the raw
    profile has a peak, the mean phase hours and relative speed of the
    learned sessions with energy, and the mean raw effective hours of every
    session of each charger, each figure labelled with the sessions it
    covers."""
    text = [
        f"aggregate daily profiles ({scope})",
        "strategy  peak_kw  peak_second  total_kwh  deficit_kwh  deficit_pct  cp_over_10pct",
    ]
    for name in STRATEGIES:
        m = results.metrics(name)
        text.append(
            f"{name}  {m.peak_kw!r}  {m.peak_second_of_day}  {m.total_energy_kwh!r}  "
            f"{m.total_deficit_kwh!r}  {m.deficit_percent!r}  "
            f"{m.cp_deficit_over_10pct_fraction!r}"
        )
    text.append("")
    rl, oracle = results.peak_reduction("rl"), results.peak_reduction("oracle")
    if rl is not None:
        text.append(f"peak reduction vs raw: rl {rl!r}% | oracle {oracle!r}%")
    return text + [
        "",
        "charge phase durations (mean hours)",
        f"boost {results.mean_boost_hours()!r} | slow {results.mean_slow_hours()!r} "
        f"({learned_label})",
        f"raw effective {results.mean_raw_effective_hours()!r} (all sessions of each charger)",
        "",
        f"mean relative charging speed ({learned_label}): {results.mean_relative_speed()!r}",
    ]


def emit_offline_reports(results: OfflineResults, output_dir: str, pool=None) -> dict[str, str]:
    cfg, c = results.cfg, results.columns
    workers = _pool_size(cfg.workers)
    policies = [c["cp_id"], c["t_boost_max_hours"], c["p_rate"]]
    policies += [c["target_kwh"] - c["delivered_kwh"], c["n_train"], c["n_test"]]
    hist = results.speed_histogram()
    text = [
        f"charge points simulated : {len(c['cp_id'])}",
        f"test sessions           : {c['n_test'].sum()}",
        "",
        *_summary_lines(results, "test split", "rl test sessions"),
    ]
    return _write_reports(results, output_dir, {
        "profiles.csv": _profile_csv(results.profiles, cfg.emit_resolution, pool, workers),
        "profiles_all_sessions.csv": _profile_csv(
            results.profiles_all, cfg.emit_resolution, pool, workers
        ),
        "policies.csv": [
            "cp_id,t_boost_max_hours,p_rate,deficit_kwh,n_train,n_test\n",
            _csv_rows(policies),
        ],
        "speed_histogram.csv": [
            "rel_speed_bin_start,fraction\n",
            _csv_rows([[i / len(hist) for i in range(len(hist))], hist]),
        ],
        "metrics.txt": _text_report("offline experiment report", cfg, text),
    })


def _outcome_chunks(results: OnlineResults) -> Iterator[str]:
    """outcomes.csv, one chunk per charger: a row per session."""
    yield (
        "cp_id,session_index,event_id,start,plugin_hours,energy_kwh,mode,"
        "t_boost_hours,t_slow_hours,e_boost_kwh,e_slow_kwh,e_total_kwh,"
        "e_loss_kwh,p_eff_kw,policy_t_boost_max_hours,policy_p_rate\n"
    )
    for b, log in enumerate(results.log):
        batch = results.charge_points[b * BATCH_SIZE : (b + 1) * BATCH_SIZE]
        counts = [len(cp.sessions) for cp in batch]
        adaptive, *outcomes = log.values()
        for cp, n, end in zip(batch, counts, np.cumsum(counts).tolist()):
            s, rows = cp.sessions, slice(end - n, end)
            yield _csv_rows(
                [[cp.cp_id] * n, range(n), s.event_id, s.start, s.plugin_hours, s.energy_kwh]
                + [np.where(adaptive[rows], "adaptive", "raw")]
                + [column[rows] for column in outcomes]
            )


def emit_online_reports(results: OnlineResults, output_dir: str, pool=None) -> dict[str, str]:
    cfg, adaptive = results.cfg, [log["adaptive"] for log in results.log]
    n_adaptive = sum(map(np.count_nonzero, adaptive))
    text = [
        f"charge points simulated : {len(results.charge_points)}",
        f"sessions (adaptive)     : {sum(map(len, adaptive))} ({n_adaptive})",
        "",
        *_summary_lines(results, "all sessions", "adaptive sessions"),
    ]
    return _write_reports(results, output_dir, {
        "profiles.csv": _profile_csv(
            results.profiles, cfg.emit_resolution, pool, _pool_size(cfg.workers)
        ),
        "outcomes.csv": _outcome_chunks(results),
        "metrics.txt": _text_report("online learning report", cfg, text),
    })


def emit_predict_reports(results: PredictResults, output_dir: str) -> dict[str, str]:
    c, evaluated = results.columns, results.columns["evaluated"]
    names = [f"{m}_{e}_energy" for e in ("with", "without") for m in ("mae", "mape", "mse")]
    # a charger that was not evaluated gets blank cells
    table = [c["cp_id"], c["n_rows"]]
    table += [np.where(evaluated, c[name].astype(object), "") for name in names]
    text = [
        f"charge points evaluated : {np.count_nonzero(evaluated)}",
        f"charge points skipped (too few rows) : {results.skipped}",
        "",
        "pooled metrics (unweighted mean over charge points)",
        "features              MAE_hours        MAPE_pct         MSE",
    ]
    if evaluated.any():
        for label, include in (("with energy", True), ("without energy", False)):
            m = results.pooled(include)
            text.append(f"{label:<21} {m.mae!r}  {m.mape!r}  {m.mse!r}")
            if m.mape_excluded:
                text.append(
                    f"  (rows excluded from MAPE for near-zero duration: {m.mape_excluded})"
                )
    return _write_reports(results, output_dir, {
        "prediction_per_cp.csv": [",".join(["cp_id", "n_rows", *names]) + "\n", _csv_rows(table)],
        "prediction_report.txt": _text_report(
            "session duration prediction report", results.cfg, text
        ),
    })


def run(cfg: ExperimentConfig) -> dict[str, str]:
    """Run the configured experiment and emit its report bundle, with one
    worker pool for the whole run (none at one worker)."""
    with _worker_pool(cfg.workers) as pool:
        if cfg.mode == "offline":
            return emit_offline_reports(run_offline(cfg, pool), cfg.out_dir, pool)
        if cfg.mode == "online":
            return emit_online_reports(run_online(cfg, pool), cfg.out_dir, pool)
        return emit_predict_reports(run_predict(cfg, pool), cfg.out_dir)
