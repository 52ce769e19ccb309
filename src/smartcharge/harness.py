"""Experiment orchestration and report emission.

Three run modes over a cleaned chargepoint dataset:

offline -- per charge point, learn one policy on the chronologically first
           80% of sessions and replay the last 20% under the raw, ideal and
           learned strategies; aggregate daily profiles and deficit stats.
online  -- replay each charge point session by session, charging raw during
           a warmup and re-learning the policy after every session.
predict -- per-charge-point cross-validated duration regression.

Charge points are the unit of parallel work.  Work is cut into fixed-size
batches processed in sorted order and folded back in batch order, so every
report is byte-identical for any worker count.  Within a batch, policy
searches run together through optimizer.learn_policies: offline learns all
of the batch's chargers in one call, and online replays the batch in
lockstep by session index, re-learning after session i every charger that
needs it in one call.  learn_policies gives each charger the result it
would get alone, so a charger's reports do not depend on which chargers
share its batch.  Each charger's sessions are simulated in one call, as
arrays, and each strategy's pieces of them are built in one call per
profile they go into.  Each batch then folds each profile's pieces of all
its chargers into that profile in one aggregation.accumulate call, in
offline and online mode alike.

Reports stream to disk in chunks of text, so the long ones (profiles and
the online outcome log) never exist whole, as a list of rows or as one
string.  A profile is formatted once per run of equal values, and a table
a column at a time.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial, reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import aggregation
from .aggregation import DailyProfile, StrategyMetrics, deficit_stats
from .charging import (
    ChargingPolicy,
    HistoryArrays,
    PowerProfile,
    SessionOutcome,
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
_PROFILE_CHUNK_ROWS = 4096
STRATEGIES = ("raw", "oracle", "rl")
# every report a run of some mode writes, besides cleaning_report.txt
REPORTS = (
    ("parse_errors.csv", "metrics.txt", "profiles.csv")
    + ("profiles_all_sessions.csv", "policies.csv", "speed_histogram.csv")  # offline
    + ("outcomes.csv",)  # online
    + ("prediction_per_cp.csv", "prediction_report.txt")  # predict
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


def _map_batches(fn, items: Sequence, workers: int):
    """Apply fn to fixed-size batches of items, yielding results in batch
    order regardless of worker count (the determinism contract)."""
    batches = [items[i : i + BATCH_SIZE] for i in range(0, len(items), BATCH_SIZE)]
    if workers <= 1 or len(batches) <= 1:
        yield from map(fn, batches)
        return
    # the pool may start all its workers up front: ask for no more than
    # there are batches
    with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
        yield from pool.map(fn, batches)


def _run(batch_fn, cfg: ExperimentConfig, usable_only: bool):
    """Parse and clean the input, keep the chargers the run covers (the --cp
    selection, usable ones only if asked) in clean_sessions' order, and run
    batch_fn(batch, cfg) over their batches.

    Each batch returns its rows and its profiles keyed by (scope, strategy);
    the rows are concatenated and the profiles summed, both in batch order.
    Returns the RunResults fields, the rows, and the profiles as
    {scope: {strategy: profile}}.
    """
    sessions, parse_errors = parse_sessions_path(cfg.input)
    charge_points, cleaning = clean_sessions(
        sessions,
        min_sessions=cfg.min_sessions,
        max_hours=cfg.max_hours,
        p_max_percentile=cfg.p_max_percentile,
    )
    del sessions  # the chargers hold their own copies
    if cfg.cp:
        wanted = set(cfg.cp)
        missing = wanted - {cp.cp_id for cp in charge_points}
        if missing:
            raise HarnessError(f"charge point(s) not in cleaned dataset: {sorted(missing)}")
        charge_points = [cp for cp in charge_points if cp.cp_id in wanted]
        empty = [cp.cp_id for cp in charge_points if usable_only and not cp.usable]
        if empty:
            raise HarnessError(f"charge point(s) with no energy to simulate: {empty}")
    if usable_only:
        charge_points = [cp for cp in charge_points if cp.usable]
    if not charge_points:
        raise HarnessError(
            f"no {'usable ' if usable_only else ''}charge points after cleaning"
        )

    rows: list = []
    totals: defaultdict[tuple[str, str], DailyProfile] = defaultdict(DailyProfile.zeros)
    worker = partial(batch_fn, cfg=cfg)
    for batch_rows, batch_profiles in _map_batches(worker, charge_points, cfg.workers):
        rows.extend(batch_rows)
        for key, profile in batch_profiles.items():
            totals[key].slots += profile.slots
    profiles: dict[str, dict[str, DailyProfile]] = {}
    for (scope, s), profile in totals.items():
        profiles.setdefault(scope, {})[s] = profile
    return {"cfg": cfg, "cleaning": cleaning, "parse_errors": parse_errors}, rows, profiles


def _simulate(
    cp: ChargePoint, t_boost_max_hours, p_rate, firsts: dict[str, int], pieces: defaultdict
) -> SessionOutcome:
    """Simulate the charger's sessions under their policies in one call.
    Then, for each scope of firsts, append each strategy's pieces of the
    sessions from firsts[scope] on to pieces[scope, strategy]."""
    start, e, plugin = cp.sessions.start, cp.sessions.energy_kwh, cp.sessions.plugin_hours
    outcome = simulate_session(HistoryArrays(e, plugin, cp.p_max_kw), t_boost_max_hours, p_rate)
    p_rate = np.broadcast_to(p_rate, e.shape)
    for scope, lo in firsts.items():
        built = (
            raw_profile(start[lo:], e[lo:], plugin[lo:], cp.p_max_kw),
            oracle_profile(start[lo:], e[lo:], plugin[lo:]),
            adaptive_profile(start[lo:], outcome[lo:], cp.p_max_kw, p_rate[lo:]),
        )
        for s, profile in zip(STRATEGIES, built):
            pieces[scope, s].append(profile.pieces)
    return outcome


def _fold(pieces: dict[tuple[str, str], list]) -> dict[tuple[str, str], DailyProfile]:
    """The daily profile of all the pieces collected under each (scope,
    strategy) key."""
    return {
        key: aggregation.accumulate(PowerProfile(np.concatenate(p))) for key, p in pieces.items()
    }


def _sum(values) -> float:
    """Left-to-right sum, the order every report total is added in (np.sum
    adds pairwise, and builtin sum() compensates from Python 3.12 on)."""
    return reduce(operator.add, np.asarray(values, dtype=np.float64).tolist(), 0.0)


@dataclass
class RunResults:
    """What every mode reports besides its own results."""

    cfg: ExperimentConfig
    cleaning: CleaningReport
    parse_errors: list[ParseError]


# ---------------------------------------------------------------------------
# offline mode


@dataclass
class OfflineCpResult:
    """Per-charge-point outcome of the offline experiment."""

    cp_id: str
    p_max_kw: float
    t_boost_max_hours: float
    p_rate: float
    feasible: bool
    n_train: int
    n_test: int
    target_test_kwh: float
    delivered_test_kwh: float
    raw_delivered_test_kwh: float
    boost_hours_sum: float
    slow_hours_sum: float
    n_outcomes: int
    rel_speed_sum: float
    hist_counts: np.ndarray
    raw_effective_hours_sum: float

    @property
    def deficit_kwh(self) -> float:
        return self.target_test_kwh - self.delivered_test_kwh


@dataclass
class OfflineResults(RunResults):
    cp_rows: list[OfflineCpResult]
    profiles_test: dict[str, DailyProfile]
    profiles_all: dict[str, DailyProfile]

    def metrics(self, strategy: str) -> StrategyMetrics:
        """The oracle is uncapped, so it always delivers its whole target."""
        delivered = {
            "raw": "raw_delivered_test_kwh",
            "oracle": "target_test_kwh",
            "rl": "delivered_test_kwh",
        }[strategy]
        _, deficit, pct, frac = deficit_stats(
            (r.target_test_kwh, getattr(r, delivered)) for r in self.cp_rows
        )
        profile = self.profiles_test[strategy]
        return StrategyMetrics(
            peak_kw=profile.peak_kw(),
            peak_second_of_day=profile.peak_second_of_day(),
            total_energy_kwh=profile.total_energy_kwh(),
            total_deficit_kwh=deficit,
            deficit_percent=pct,
            cp_deficit_over_10pct_fraction=frac,
        )

    def peak_reduction(self, strategy: str) -> float | None:
        """None when the raw test profile has no peak to reduce."""
        return aggregation.peak_reduction(
            self.profiles_test[strategy], self.profiles_test["raw"]
        )

    def _mean(self, total: str, count=lambda r: r.n_outcomes) -> float:
        n = sum(count(r) for r in self.cp_rows)
        return _sum([getattr(r, total) for r in self.cp_rows]) / n if n else 0.0

    def mean_boost_hours(self) -> float:
        return self._mean("boost_hours_sum")

    def mean_slow_hours(self) -> float:
        return self._mean("slow_hours_sum")

    def mean_raw_effective_hours(self) -> float:
        return self._mean("raw_effective_hours_sum", lambda r: r.n_train + r.n_test)

    def mean_relative_speed(self) -> float:
        return self._mean("rel_speed_sum")

    def speed_histogram(self) -> np.ndarray:
        total = np.zeros(aggregation.SPEED_BINS, dtype=np.int64)
        for r in self.cp_rows:
            total += r.hist_counts
        s = total.sum()
        return total / s if s else total.astype(np.float64)


def _replay_offline(
    cp: ChargePoint,
    n_train: int,
    policy: ChargingPolicy,
    feasible: bool,
    pieces: defaultdict,
) -> OfflineCpResult:
    """Simulate the charger's sessions under its policy in one call.

    The sessions after the first n_train are the test split: its pieces go
    to the "test" pieces and its outcomes into the result row.  Every
    session's pieces go to the "all" pieces.  Raw charging delivers a
    session's whole target only when the charger's max power covers it
    within the session (always, unless p_max_percentile caps that power).
    """
    p_max = cp.p_max_kw
    outcome = _simulate(
        cp, policy.t_boost_max_hours, policy.p_rate, {"test": n_train, "all": 0}, pieces
    )
    e, plugin = cp.sessions.energy_kwh, cp.sessions.plugin_hours
    test, e_test, plugin_test = outcome[n_train:], e[n_train:], plugin[n_train:]
    charged = e_test > 0
    rel_speeds = test.p_eff_kw[charged] / p_max
    raw_delivered = np.where(e_test / plugin_test <= p_max, e_test, p_max * plugin_test)
    return OfflineCpResult(
        cp_id=cp.cp_id,
        p_max_kw=cp.p_max_kw,
        t_boost_max_hours=policy.t_boost_max_hours,
        p_rate=policy.p_rate,
        feasible=feasible,
        n_train=n_train,
        n_test=len(cp.sessions) - n_train,
        target_test_kwh=_sum(e_test),
        delivered_test_kwh=_sum(test.e_total_kwh),
        raw_delivered_test_kwh=_sum(raw_delivered),
        boost_hours_sum=_sum(test.t_boost_hours[charged]),
        slow_hours_sum=_sum(test.t_slow_hours[charged]),
        n_outcomes=len(rel_speeds),
        rel_speed_sum=_sum(rel_speeds),
        hist_counts=aggregation.speed_histogram_counts(rel_speeds),
        raw_effective_hours_sum=_sum(e / p_max),
    )


def _offline_batch(batch: Sequence[ChargePoint], cfg: ExperimentConfig):
    """Learn each charger's policy on the last `history` sessions with
    energy among its first ceil(train_fraction * n), then replay it."""
    splits = [math.ceil(cfg.train_fraction * len(cp.sessions)) for cp in batch]
    trains = [cp.sessions[:n] for cp, n in zip(batch, splits)]
    windows = [rolling_window(t[t.energy_kwh > 0], cfg.history) for t in trains]
    learning = [j for j, window in enumerate(windows) if len(window)]
    learned = dict(
        zip(
            learning,
            learn_policies(
                [windows[j] for j in learning],
                [batch[j].p_max_kw for j in learning],
                [per_cp_seed(cfg.seed, batch[j].cp_id) for j in learning],
                cfg.search_config(),
                cfg.reward_params(),
            ),
        )
    )
    pieces = defaultdict(list)
    rows = []
    for j, cp in enumerate(batch):
        if j in learned:
            policy, feasible = learned[j].policy, learned[j].feasible
        else:
            # Nothing to learn from: charge raw rather than guess.
            policy = ChargingPolicy(float(cp.sessions.plugin_hours.max()), 1.0)
            feasible = True
        rows.append(_replay_offline(cp, splits[j], policy, feasible, pieces))
    return rows, _fold(pieces)


def run_offline(cfg: ExperimentConfig) -> OfflineResults:
    common, rows, profiles = _run(_offline_batch, cfg, usable_only=True)
    return OfflineResults(
        **common, cp_rows=rows, profiles_test=profiles["test"], profiles_all=profiles["all"]
    )


# ---------------------------------------------------------------------------
# online mode


@dataclass
class OnlineCpResult:
    """One charger's replay: each array holds one entry per session of cp,
    in session order."""

    cp: ChargePoint
    adaptive: np.ndarray  # charged under a learned policy (else raw)
    outcome: SessionOutcome
    policy_t_boost_max: np.ndarray
    policy_p_rate: np.ndarray

    def target_kwh(self) -> float:
        return _sum(self.cp.sessions.energy_kwh)

    def delivered_kwh(self) -> float:
        return _sum(self.outcome.e_total_kwh)

    def deficit_kwh(self) -> float:
        return self.target_kwh() - self.delivered_kwh()

    def deficit_percent(self) -> float:
        return deficit_stats([(self.target_kwh(), self.delivered_kwh())])[2]

    def _adaptive(self, reduce, values: np.ndarray) -> float:
        """reduce() of values over the adaptive sessions with energy; 0.0
        when there are none."""
        values = values[self.adaptive & (self.cp.sessions.energy_kwh > 0)]
        return float(reduce(values)) if len(values) else 0.0

    def mean_p_eff_adaptive(self) -> float:
        return self._adaptive(np.mean, self.outcome.p_eff_kw)

    def mean_relative_speed(self) -> float:
        return self._adaptive(np.mean, self.outcome.p_eff_kw / self.cp.p_max_kw)

    def median_relative_speed(self) -> float:
        return self._adaptive(np.median, self.outcome.p_eff_kw / self.cp.p_max_kw)

    def mean_boost_hours(self) -> float:
        return self._adaptive(np.mean, self.outcome.t_boost_hours)

    def mean_slow_hours(self) -> float:
        return self._adaptive(np.mean, self.outcome.t_slow_hours)


@dataclass
class OnlineResults(RunResults):
    cp_results: list[OnlineCpResult]
    profiles: dict[str, DailyProfile]


def _online_batch(batch: Sequence[ChargePoint], cfg: ExperimentConfig):
    """Session-by-session replay: raw during warmup, then each session is
    charged with the policy learned from all preceding ones, which is
    re-learned (warm-started) after every session.

    The batch's chargers replay in lockstep by session index, so the
    re-learns of one index run as one learn_policies call; each charger
    still gets exactly the policies it would get replayed alone.  Learning
    reads the sessions, never their outcomes, so the replay only records
    each session's policy, and each charger is simulated once after it.
    """
    sessions = [cp.sessions for cp in batch]
    # each session's policy: raw (boost for the whole session) unless adaptive
    t_boost_max = [s.plugin_hours.copy() for s in sessions]
    p_rate = [np.ones(len(s)) for s in sessions]
    adaptive = [np.zeros(len(s), dtype=bool) for s in sessions]
    # the sessions with energy, and how many of them sessions 0..i include
    charged = [s[s.energy_kwh > 0] for s in sessions]
    n_charged = [np.cumsum(s.energy_kwh > 0).tolist() for s in sessions]
    # after session i, learn the policy session i + 1 charges with; the
    # warmup's sessions charge raw
    for i in range(max(cfg.warmup - 1, 0), max(map(len, sessions)) - 1):
        relearn = [j for j, s in enumerate(sessions) if i + 1 < len(s) and n_charged[j][i]]
        if not relearn:
            continue
        results = learn_policies(
            [rolling_window(charged[j][: n_charged[j][i]], cfg.history) for j in relearn],
            [batch[j].p_max_kw for j in relearn],
            [per_cp_seed(cfg.seed, f"{batch[j].cp_id}#{i}") for j in relearn],
            cfg.search_config(),
            cfg.reward_params(),
            [
                # warm start from the policy learned for session i, if any
                ChargingPolicy(float(t_boost_max[j][i]), float(p_rate[j][i]))
                if adaptive[j][i] and not cfg.cold_start
                else None
                for j in relearn
            ],
        )
        for j, result in zip(relearn, results):
            t_boost_max[j][i + 1] = result.policy.t_boost_max_hours
            p_rate[j][i + 1] = result.policy.p_rate
            adaptive[j][i + 1] = True

    pieces = defaultdict(list)
    results = [
        OnlineCpResult(cp, a, _simulate(cp, t, p, {"all": 0}, pieces), t, p)
        for cp, t, p, a in zip(batch, t_boost_max, p_rate, adaptive)
    ]
    return results, _fold(pieces)


def run_online(cfg: ExperimentConfig) -> OnlineResults:
    common, results, profiles = _run(_online_batch, cfg, usable_only=True)
    return OnlineResults(**common, cp_results=results, profiles=profiles["all"])


# ---------------------------------------------------------------------------
# predict mode


@dataclass
class PredictCpRow:
    cp_id: str
    n_rows: int
    with_energy: PredictionMetrics | None
    without_energy: PredictionMetrics | None


@dataclass
class PredictResults(RunResults):
    cp_rows: list[PredictCpRow]

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.cp_rows if r.with_energy is None)

    def pooled(self, include_energy: bool) -> PredictionMetrics:
        key = "with_energy" if include_energy else "without_energy"
        metrics = [getattr(r, key) for r in self.cp_rows if getattr(r, key)]
        return pool_metrics(metrics)


def _predict_batch(batch: Sequence[ChargePoint], cfg: ExperimentConfig):
    rows = [
        PredictCpRow(
            cp_id=cp.cp_id,
            n_rows=max(len(cp.sessions) - 1, 0),
            with_energy=cross_validate(cp.sessions, include_energy=True),
            without_energy=cross_validate(cp.sessions, include_energy=False),
        )
        for cp in batch
    ]
    return rows, {}


def run_predict(cfg: ExperimentConfig) -> PredictResults:
    common, rows, _ = _run(_predict_batch, cfg, usable_only=False)
    return PredictResults(**common, cp_rows=rows)


# ---------------------------------------------------------------------------
# report emission


def _profile_csv(profiles: dict[str, DailyProfile], resolution: int) -> Iterator[str]:
    """second_of_day,raw_kw,oracle_kw,rl_kw rows, as chunks of text;
    coarser resolutions emit the average power over each bucket.

    A profile is piecewise constant (accumulate sums runs of equal rate),
    so within a chunk each column's value is formatted once per run of
    equal bit patterns (0.0 and -0.0 stay apart), and each row picks up its
    run's text.  Only one chunk's texts exist at a time.
    """
    arrays = [profiles[s].power_kw() for s in STRATEGIES]
    if resolution > 1:
        arrays = [
            a.reshape(aggregation.SECONDS_PER_DAY // resolution, resolution).mean(axis=1)
            for a in arrays
        ]
    yield "second_of_day,raw_kw,oracle_kw,rl_kw\n"
    for lo in range(0, len(arrays[0]), _PROFILE_CHUNK_ROWS):
        hi = lo + _PROFILE_CHUNK_ROWS
        columns = [range(lo * resolution, hi * resolution, resolution)]
        for a in arrays:
            chunk = a[lo:hi]
            bits = chunk.view(np.int64)
            starts = np.concatenate(([True], bits[1:] != bits[:-1]))
            texts = np.array(list(map(repr, chunk[starts].tolist())), dtype=object)
            columns.append(texts[np.cumsum(starts) - 1])
        yield _csv_rows(columns)


def _peak_reduction_lines(profiles: dict[str, DailyProfile]) -> list[str]:
    """The peak reduction line, when the raw profile has a peak to reduce."""
    raw = profiles["raw"]
    rl, oracle = (aggregation.peak_reduction(profiles[s], raw) for s in ("rl", "oracle"))
    if rl is None:
        return []
    return [f"peak reduction vs raw: rl {rl!r}% | oracle {oracle!r}%"]


def _report_head(title: str, cfg: ExperimentConfig) -> list[str]:
    """A text report's first lines: its underlined title and the run's
    configuration, then a blank line."""
    history = "unlimited" if cfg.history is None else str(cfg.history)
    return [
        title,
        "=" * len(title),
        f"mode={cfg.mode} history={history} seed={cfg.seed} n_tries={cfg.n_tries} "
        f"k1={cfg.k1!r} k2={cfg.k2!r} e_max_loss={cfg.max_loss!r} "
        f"min_sessions={cfg.min_sessions} train_fraction={cfg.train_fraction!r} "
        f"warmup={cfg.warmup}",
        "",
    ]


class _Bundle:
    """A run's report bundle in output_dir.

    Opening it removes every report an earlier run of any mode may have left
    there, so no old file stays beside the new ones, not even when this run
    fails halfway; then it writes the cleaning report and the rejected input
    rows.  Each report is written atomically, chunk by chunk as its text is
    made.
    """

    def __init__(self, results: RunResults, output_dir: str):
        os.makedirs(output_dir, exist_ok=True)
        self.output_dir = output_dir
        self.paths: dict[str, str] = {}
        for name in REPORTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(output_dir, name))
        self.write("cleaning_report.txt", [results.cleaning.to_text()])
        if results.parse_errors:
            self.write_lines(
                "parse_errors.csv",
                ["line_number,reason"]
                + [
                    f"{e.line_number},{e.reason.replace(',', ';')}"
                    for e in results.parse_errors
                ],
            )

    def write(self, name: str, chunks: Iterable[str]) -> None:
        path = os.path.join(self.output_dir, name)
        _atomic_write(path, chunks)
        self.paths[name] = path

    def write_lines(self, name: str, lines: list[str]) -> None:
        self.write(name, ["\n".join(lines) + "\n"])

    def write_csv(self, name: str, header: str, columns: Iterable[Iterable]) -> None:
        self.write(name, [header + "\n", _csv_rows(columns)])


def emit_offline_reports(results: OfflineResults, output_dir: str) -> dict[str, str]:
    bundle = _Bundle(results, output_dir)
    cfg = results.cfg
    bundle.write("profiles.csv", _profile_csv(results.profiles_test, cfg.emit_resolution))
    bundle.write(
        "profiles_all_sessions.csv",
        _profile_csv(results.profiles_all, cfg.emit_resolution),
    )
    keys = ("cp_id", "t_boost_max_hours", "p_rate", "deficit_kwh", "n_train", "n_test")
    bundle.write_csv(
        "policies.csv", ",".join(keys), [[getattr(r, k) for r in results.cp_rows] for k in keys]
    )
    hist = results.speed_histogram()
    bundle.write_csv(
        "speed_histogram.csv",
        "rel_speed_bin_start,fraction",
        [[i / len(hist) for i in range(len(hist))], hist],
    )

    text = _report_head("offline experiment report", cfg) + [
        f"charge points simulated : {len(results.cp_rows)}",
        f"test sessions           : {sum(r.n_test for r in results.cp_rows)}",
        "",
        "aggregate daily profiles (test split)",
        "strategy  peak_kw  peak_second  total_kwh  deficit_kwh  deficit_pct  cp_over_10pct",
    ]
    for name in ("raw", "oracle", "rl"):
        m = results.metrics(name)
        text.append(
            f"{name}  {m.peak_kw!r}  {m.peak_second_of_day}  {m.total_energy_kwh!r}  "
            f"{m.total_deficit_kwh!r}  {m.deficit_percent!r}  "
            f"{m.cp_deficit_over_10pct_fraction!r}"
        )
    text += ["", *_peak_reduction_lines(results.profiles_test)]
    text += [
        "",
        "charge phase durations (mean hours)",
        f"boost {results.mean_boost_hours()!r} | slow {results.mean_slow_hours()!r} | "
        f"raw effective {results.mean_raw_effective_hours()!r}",
        "",
        f"mean relative charging speed (rl test sessions): "
        f"{results.mean_relative_speed()!r}",
    ]
    bundle.write_lines("metrics.txt", text)
    return bundle.paths


def _outcome_chunks(cp_results: list[OnlineCpResult]) -> Iterator[str]:
    """outcomes.csv, one chunk per charger: a row per session."""
    yield (
        "cp_id,session_index,event_id,start,plugin_hours,energy_kwh,mode,"
        "t_boost_hours,t_slow_hours,e_boost_kwh,e_slow_kwh,e_total_kwh,"
        "e_loss_kwh,p_eff_kw,policy_t_boost_max_hours,policy_p_rate\n"
    )
    for r in cp_results:
        s = r.cp.sessions
        yield _csv_rows(
            [
                [r.cp.cp_id] * len(s),
                range(len(s)),
                s.event_id,
                s.start,
                s.plugin_hours,
                s.energy_kwh,
                np.where(r.adaptive, "adaptive", "raw"),
                *(getattr(r.outcome, f.name) for f in fields(r.outcome)),
                r.policy_t_boost_max,
                r.policy_p_rate,
            ]
        )


def emit_online_reports(results: OnlineResults, output_dir: str) -> dict[str, str]:
    bundle = _Bundle(results, output_dir)
    bundle.write("profiles.csv", _profile_csv(results.profiles, results.cfg.emit_resolution))
    bundle.write("outcomes.csv", _outcome_chunks(results.cp_results))

    text = _report_head("online learning report", results.cfg)
    for r in results.cp_results:
        n_adaptive = int(r.adaptive.sum())
        text += [
            f"charge point {r.cp.cp_id}",
            f"  max power rate        : {r.cp.p_max_kw!r} kW",
            f"  sessions (warmup raw) : {len(r.adaptive)} ({len(r.adaptive) - n_adaptive})",
            f"  adaptive sessions     : {n_adaptive}",
            f"  target energy         : {r.target_kwh()!r} kWh",
            f"  delivered energy      : {r.delivered_kwh()!r} kWh",
            f"  energy deficit        : {r.deficit_kwh()!r} kWh ({r.deficit_percent()!r}%)",
            f"  mean effective speed  : {r.mean_p_eff_adaptive()!r} kW (adaptive sessions)",
            f"  mean / median relative speed : {r.mean_relative_speed()!r} / "
            f"{r.median_relative_speed()!r}",
            f"  mean boost / slow hours      : {r.mean_boost_hours()!r} / "
            f"{r.mean_slow_hours()!r}",
            "",
        ]
    text += _peak_reduction_lines(results.profiles)
    bundle.write_lines("metrics.txt", text)
    return bundle.paths


def emit_predict_reports(results: PredictResults, output_dir: str) -> dict[str, str]:
    bundle = _Bundle(results, output_dir)
    rows = []
    for r in results.cp_rows:
        w, wo = r.with_energy, r.without_energy
        metrics = ("",) * 6 if w is None else (w.mae, w.mape, w.mse, wo.mae, wo.mape, wo.mse)
        rows.append((r.cp_id, r.n_rows, *metrics))
    bundle.write_csv(
        "prediction_per_cp.csv",
        "cp_id,n_rows,mae_with_energy,mape_with_energy,mse_with_energy,"
        "mae_without_energy,mape_without_energy,mse_without_energy",
        zip(*rows),
    )

    usable = [r for r in results.cp_rows if r.with_energy is not None]
    text = _report_head("session duration prediction report", results.cfg) + [
        f"charge points evaluated : {len(usable)}",
        f"charge points skipped (too few rows) : {results.skipped}",
        "",
        "pooled metrics (unweighted mean over charge points)",
        "features              MAE_hours        MAPE_pct         MSE",
    ]
    if usable:
        for label, include in (("with energy", True), ("without energy", False)):
            m = results.pooled(include)
            text.append(f"{label:<21} {m.mae!r}  {m.mape!r}  {m.mse!r}")
            if m.mape_excluded:
                text.append(
                    f"  (rows excluded from MAPE for near-zero duration: {m.mape_excluded})"
                )
    bundle.write_lines("prediction_report.txt", text)
    return bundle.paths


def run(cfg: ExperimentConfig) -> dict[str, str]:
    """Run the configured experiment and emit its report bundle."""
    if cfg.mode == "offline":
        return emit_offline_reports(run_offline(cfg), cfg.out_dir)
    if cfg.mode == "online":
        return emit_online_reports(run_online(cfg), cfg.out_dir)
    if cfg.mode == "predict":
        return emit_predict_reports(run_predict(cfg), cfg.out_dir)
    raise HarnessError(f"unknown mode {cfg.mode!r}")
