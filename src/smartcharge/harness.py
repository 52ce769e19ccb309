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
share its batch.  Each session is simulated once, and its raw, oracle and rl
pieces are built once, in offline and online mode alike.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from . import aggregation
from .aggregation import DailyProfile, StrategyMetrics, strategy_metrics
from .charging import (
    ChargingPolicy,
    PowerProfile,
    SessionOutcome,
    adaptive_profile,
    oracle_profile,
    raw_profile,
    simulate_session,
)
from .dataset import (
    ChargePoint,
    CleaningReport,
    ParseError,
    Session,
    clean_sessions,
    parse_sessions_path,
)
from .optimizer import (
    LearnedPolicy,
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
# the types an ExperimentConfig field accepts, by its annotation
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


class HarnessError(Exception):
    """Fatal experiment error (bad input, nothing to simulate)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults follow the published experiment
    setup where one exists (80/20 split, 200 search steps, 10 kWh loss cap,
    100-session online warmup, at least 10 sessions per charger)."""

    input_path: str
    mode: str = "offline"
    history: int | None = 30
    min_sessions: int = 10
    max_hours: float = 48.0
    seed: int = 0
    n_tries: int = 200
    k1: float = 0.1
    k2: float = 10.0
    e_max_loss: float = 10.0
    dx_min: float = 0.01
    dx_max: float = 0.5
    dy_min: float = 0.01
    dy_max: float = 0.25
    online_warmup: int = 100
    train_fraction: float = 0.8
    output_dir: str = "out"
    workers: int = 1
    cp_filter: tuple[str, ...] = ()
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
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.mode not in ("offline", "online", "predict"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.emit_resolution < 1 or aggregation.SECONDS_PER_DAY % self.emit_resolution:
            raise ValueError("emit_resolution must divide 86400")

    def reward_params(self) -> RewardParams:
        return RewardParams(k1=self.k1, k2=self.k2, e_max_loss_kwh=self.e_max_loss)

    def search_config(self, seed_key: str) -> SearchConfig:
        return SearchConfig(
            n_tries=self.n_tries,
            dx_min=self.dx_min,
            dx_max=self.dx_max,
            dy_min=self.dy_min,
            dy_max=self.dy_max,
            seed=per_cp_seed(self.seed, seed_key),
        )


# ---------------------------------------------------------------------------
# shared plumbing


def _atomic_write(path: str, text: str) -> None:
    """Write-then-rename so a rerun never leaves a half-written report."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_line(values: Iterable) -> str:
    # full-precision, shortest round-trip floats (plain float repr, never a
    # numpy scalar repr)
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def _load_charge_points(
    cfg: ExperimentConfig, usable_only: bool
) -> tuple[list[ChargePoint], CleaningReport, list[ParseError]]:
    """Parse and clean the input, then keep the chargers the run covers
    (usable ones only if asked, and the --cp selection), sorted by id."""
    sessions, parse_errors = parse_sessions_path(cfg.input_path)
    charge_points, report = clean_sessions(
        sessions,
        min_sessions=cfg.min_sessions,
        max_hours=cfg.max_hours,
        p_max_percentile=cfg.p_max_percentile,
    )
    if usable_only:
        charge_points = [cp for cp in charge_points if cp.usable]
    if cfg.cp_filter:
        wanted = set(cfg.cp_filter)
        missing = wanted - {cp.cp_id for cp in charge_points}
        if missing:
            raise HarnessError(f"charge point(s) not in cleaned dataset: {sorted(missing)}")
        charge_points = [cp for cp in charge_points if cp.cp_id in wanted]
    if not charge_points:
        raise HarnessError(
            f"no {'usable ' if usable_only else ''}charge points after cleaning"
        )
    charge_points.sort(key=lambda cp: cp.cp_id)
    return charge_points, report, parse_errors


def _map_batches(fn, items: Sequence, workers: int):
    """Apply fn to fixed-size batches of items, yielding results in batch
    order regardless of worker count (the determinism contract)."""
    batches = [items[i : i + BATCH_SIZE] for i in range(0, len(items), BATCH_SIZE)]
    if workers <= 1 or len(batches) <= 1:
        yield from map(fn, batches)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, batches)


def _zero_profiles() -> dict[str, DailyProfile]:
    return {s: DailyProfile.zeros() for s in STRATEGIES}


def _run_batches(
    batch_fn, cfg: ExperimentConfig, charge_points: list[ChargePoint], scopes=()
):
    """Run batch_fn(batch, cfg) over the chargers' batches.  Each batch
    returns its rows and, for each of the scopes, the strategies' profiles;
    the rows are concatenated and the profiles summed, both in batch order."""
    rows: list = []
    totals = {scope: _zero_profiles() for scope in scopes}
    worker = partial(batch_fn, cfg=cfg)
    for batch_rows, batch_profiles in _map_batches(worker, charge_points, cfg.workers):
        rows.extend(batch_rows)
        for scope, profiles in batch_profiles.items():
            for s, profile in profiles.items():
                totals[scope][s].slots += profile.slots
    return rows, totals


def _session_pieces(
    s: Session, outcome: SessionOutcome, p_max_kw: float, policy: ChargingPolicy
) -> tuple[tuple, tuple, tuple]:
    """One session's power pieces under each strategy, in STRATEGIES order."""
    return (
        raw_profile(s, p_max_kw).pieces,
        oracle_profile(s).pieces,
        adaptive_profile(s, outcome, p_max_kw, policy).pieces,
    )


def _accumulate(
    session_pieces: Sequence[tuple[tuple, tuple, tuple]],
    into: dict[str, DailyProfile],
) -> None:
    """Fold sessions' pieces into the strategies' profiles, one accumulate
    call per strategy with the pieces in session order."""
    for k, s in enumerate(STRATEGIES):
        pieces = tuple(p for per_session in session_pieces for p in per_session[k])
        aggregation.accumulate(PowerProfile(pieces), into=into[s])


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
        if strategy == "rl":
            energy = [(r.target_test_kwh, r.delivered_test_kwh) for r in self.cp_rows]
        else:
            energy = [(r.target_test_kwh, r.target_test_kwh) for r in self.cp_rows]
        return strategy_metrics(self.profiles_test[strategy], energy)

    def peak_reduction(self, strategy: str) -> float:
        return aggregation.peak_reduction(
            self.profiles_test[strategy], self.profiles_test["raw"]
        )

    def mean_boost_hours(self) -> float:
        n = sum(r.n_outcomes for r in self.cp_rows)
        return sum(r.boost_hours_sum for r in self.cp_rows) / n if n else 0.0

    def mean_slow_hours(self) -> float:
        n = sum(r.n_outcomes for r in self.cp_rows)
        return sum(r.slow_hours_sum for r in self.cp_rows) / n if n else 0.0

    def mean_raw_effective_hours(self) -> float:
        n = sum(r.n_train + r.n_test for r in self.cp_rows)
        return sum(r.raw_effective_hours_sum for r in self.cp_rows) / n if n else 0.0

    def mean_relative_speed(self) -> float:
        n = sum(r.n_outcomes for r in self.cp_rows)
        return sum(r.rel_speed_sum for r in self.cp_rows) / n if n else 0.0

    def speed_histogram(self) -> np.ndarray:
        total = np.zeros(100, dtype=np.int64)
        for r in self.cp_rows:
            total += r.hist_counts
        s = total.sum()
        return total / s if s else total.astype(np.float64)


def _replay_offline(
    cp: ChargePoint,
    n_train: int,
    policy: ChargingPolicy,
    feasible: bool,
    profiles: dict[str, dict[str, DailyProfile]],
) -> OfflineCpResult:
    """Simulate each of the charger's sessions once under its policy.

    The sessions after the first n_train are the test split: its pieces go
    into the "test" profiles and its outcomes into the result row.  Every
    session's pieces go into the "all" profiles.
    """
    outcomes = [simulate_session(s, policy, cp.p_max_kw) for s in cp.sessions]
    pieces = [
        _session_pieces(s, outcome, cp.p_max_kw, policy)
        for s, outcome in zip(cp.sessions, outcomes)
    ]
    _accumulate(pieces[n_train:], profiles["test"])
    _accumulate(pieces, profiles["all"])

    target = delivered = boost_sum = slow_sum = rel_sum = 0.0
    rel_speeds: list[float] = []
    for s, outcome in zip(cp.sessions[n_train:], outcomes[n_train:]):
        target += s.energy_kwh
        delivered += outcome.e_total_kwh
        if s.energy_kwh > 0:
            boost_sum += outcome.t_boost_hours
            slow_sum += outcome.t_slow_hours
            rel = outcome.p_eff_kw / cp.p_max_kw
            rel_sum += rel
            rel_speeds.append(rel)
    raw_eff_sum = 0.0
    for s in cp.sessions:
        raw_eff_sum += s.energy_kwh / cp.p_max_kw

    return OfflineCpResult(
        cp_id=cp.cp_id,
        p_max_kw=cp.p_max_kw,
        t_boost_max_hours=policy.t_boost_max_hours,
        p_rate=policy.p_rate,
        feasible=feasible,
        n_train=n_train,
        n_test=len(cp.sessions) - n_train,
        target_test_kwh=target,
        delivered_test_kwh=delivered,
        boost_hours_sum=boost_sum,
        slow_hours_sum=slow_sum,
        n_outcomes=len(rel_speeds),
        rel_speed_sum=rel_sum,
        hist_counts=aggregation.speed_histogram_counts(rel_speeds),
        raw_effective_hours_sum=raw_eff_sum,
    )


def _offline_batch(batch: Sequence[ChargePoint], cfg: ExperimentConfig):
    """Learn each charger's policy on the last `history` sessions with
    energy among its first ceil(train_fraction * n), then replay it."""
    splits = [math.ceil(cfg.train_fraction * len(cp.sessions)) for cp in batch]
    windows = [
        rolling_window([s for s in cp.sessions[:n] if s.energy_kwh > 0], cfg.history)
        for cp, n in zip(batch, splits)
    ]
    learning = [j for j, window in enumerate(windows) if window]
    learned = dict(
        zip(
            learning,
            learn_policies(
                [windows[j] for j in learning],
                [batch[j].p_max_kw for j in learning],
                [cfg.search_config(batch[j].cp_id) for j in learning],
                cfg.reward_params(),
            ),
        )
    )
    profiles = {"test": _zero_profiles(), "all": _zero_profiles()}
    rows = []
    for j, cp in enumerate(batch):
        if j in learned:
            policy, feasible = learned[j].policy, learned[j].feasible
        else:
            # Nothing to learn from: charge raw rather than guess.
            policy = ChargingPolicy(max(s.plugin_hours for s in cp.sessions), 1.0)
            feasible = True
        rows.append(_replay_offline(cp, splits[j], policy, feasible, profiles))
    return rows, profiles


def run_offline(cfg: ExperimentConfig) -> OfflineResults:
    charge_points, cleaning, parse_errors = _load_charge_points(cfg, usable_only=True)
    rows, profiles = _run_batches(_offline_batch, cfg, charge_points, ("test", "all"))
    return OfflineResults(
        cfg=cfg,
        cleaning=cleaning,
        parse_errors=parse_errors,
        cp_rows=rows,
        profiles_test=profiles["test"],
        profiles_all=profiles["all"],
    )


# ---------------------------------------------------------------------------
# online mode


@dataclass
class OnlineSessionRow:
    """One replayed session in the online log."""

    cp_id: str
    index: int
    event_id: int
    start: int
    plugin_hours: float
    energy_kwh: float
    mode: str
    outcome: SessionOutcome
    policy_t_boost_max: float
    policy_p_rate: float


@dataclass
class OnlineCpResult:
    cp_id: str
    p_max_kw: float
    warmup: int
    rows: list[OnlineSessionRow]

    def target_kwh(self) -> float:
        return sum(r.energy_kwh for r in self.rows)

    def delivered_kwh(self) -> float:
        return sum(r.outcome.e_total_kwh for r in self.rows)

    def deficit_kwh(self) -> float:
        return self.target_kwh() - self.delivered_kwh()

    def deficit_percent(self) -> float:
        target = self.target_kwh()
        return 100.0 * self.deficit_kwh() / target if target > 0 else 0.0

    def _adaptive(self, reduce, value) -> float:
        """reduce() of value(outcome) over the adaptive sessions with
        energy; 0.0 when there are none."""
        values = [
            value(r.outcome) for r in self.rows if r.mode == "adaptive" and r.energy_kwh > 0
        ]
        return float(reduce(values)) if values else 0.0

    def mean_p_eff_adaptive(self) -> float:
        return self._adaptive(np.mean, lambda o: o.p_eff_kw)

    def mean_relative_speed(self) -> float:
        return self._adaptive(np.mean, lambda o: o.p_eff_kw / self.p_max_kw)

    def median_relative_speed(self) -> float:
        return self._adaptive(np.median, lambda o: o.p_eff_kw / self.p_max_kw)

    def mean_boost_hours(self) -> float:
        return self._adaptive(np.mean, lambda o: o.t_boost_hours)

    def mean_slow_hours(self) -> float:
        return self._adaptive(np.mean, lambda o: o.t_slow_hours)


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
    still gets exactly the policies it would get replayed alone.
    """
    rows: list[list[OnlineSessionRow]] = [[] for _ in batch]
    pieces: list[list[tuple[tuple, tuple, tuple]]] = [[] for _ in batch]
    histories: list[list[Session]] = [[] for _ in batch]
    learned: list[LearnedPolicy | None] = [None] * len(batch)

    for i in range(max(len(cp.sessions) for cp in batch)):
        relearn = []
        for j, cp in enumerate(batch):
            if i >= len(cp.sessions):
                continue
            s = cp.sessions[i]
            if i < cfg.online_warmup or learned[j] is None:
                policy = ChargingPolicy(s.plugin_hours, 1.0)
                mode = "raw"
            else:
                policy = learned[j].policy
                mode = "adaptive"
            outcome = simulate_session(s, policy, cp.p_max_kw)
            rows[j].append(
                OnlineSessionRow(
                    cp_id=cp.cp_id,
                    index=i,
                    event_id=s.event_id,
                    start=s.start,
                    plugin_hours=s.plugin_hours,
                    energy_kwh=s.energy_kwh,
                    mode=mode,
                    outcome=outcome,
                    policy_t_boost_max=policy.t_boost_max_hours,
                    policy_p_rate=policy.p_rate,
                )
            )
            pieces[j].append(_session_pieces(s, outcome, cp.p_max_kw, policy))
            if s.energy_kwh > 0:
                histories[j].append(s)
            # (the policy learned after a charger's last session would go unused)
            if histories[j] and cfg.online_warmup <= i + 1 < len(cp.sessions):
                relearn.append(j)
        if relearn:
            results = learn_policies(
                [rolling_window(histories[j], cfg.history) for j in relearn],
                [batch[j].p_max_kw for j in relearn],
                [cfg.search_config(f"{batch[j].cp_id}#{i}") for j in relearn],
                cfg.reward_params(),
                [
                    None if (cfg.cold_start or learned[j] is None) else learned[j].policy
                    for j in relearn
                ],
            )
            for j, result in zip(relearn, results):
                learned[j] = result

    profiles = _zero_profiles()
    for cp_pieces in pieces:
        _accumulate(cp_pieces, profiles)
    results = [
        OnlineCpResult(
            cp_id=cp.cp_id, p_max_kw=cp.p_max_kw, warmup=cfg.online_warmup, rows=cp_rows
        )
        for cp, cp_rows in zip(batch, rows)
    ]
    return results, {"all": profiles}


def run_online(cfg: ExperimentConfig) -> OnlineResults:
    charge_points, cleaning, parse_errors = _load_charge_points(cfg, usable_only=True)
    results, profiles = _run_batches(_online_batch, cfg, charge_points, ("all",))
    return OnlineResults(
        cfg=cfg,
        cleaning=cleaning,
        parse_errors=parse_errors,
        cp_results=results,
        profiles=profiles["all"],
    )


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
    charge_points, cleaning, parse_errors = _load_charge_points(cfg, usable_only=False)
    rows, _ = _run_batches(_predict_batch, cfg, charge_points)
    return PredictResults(
        cfg=cfg, cleaning=cleaning, parse_errors=parse_errors, cp_rows=rows
    )


# ---------------------------------------------------------------------------
# report emission


def _profile_csv(profiles: dict[str, DailyProfile], resolution: int) -> str:
    """second_of_day,raw_kw,oracle_kw,rl_kw rows; coarser resolutions emit
    the average power over each bucket."""
    lines = ["second_of_day,raw_kw,oracle_kw,rl_kw"]
    arrays = [profiles[s].power_kw() for s in STRATEGIES]
    if resolution > 1:
        arrays = [
            a.reshape(aggregation.SECONDS_PER_DAY // resolution, resolution).mean(axis=1)
            for a in arrays
        ]
    # Whole-array tolist() would hold every row's floats at once; chunks
    # keep that peak small.
    for lo in range(0, len(arrays[0]), _PROFILE_CHUNK_ROWS):
        chunk = zip(
            range(lo * resolution, (lo + _PROFILE_CHUNK_ROWS) * resolution, resolution),
            *(a[lo : lo + _PROFILE_CHUNK_ROWS].tolist() for a in arrays),
        )
        lines.extend(f"{t},{raw!r},{oracle!r},{rl!r}" for t, raw, oracle, rl in chunk)
    return "\n".join(lines) + "\n"


def _config_lines(cfg: ExperimentConfig) -> str:
    history = "unlimited" if cfg.history is None else str(cfg.history)
    return (
        f"mode={cfg.mode} history={history} seed={cfg.seed} n_tries={cfg.n_tries} "
        f"k1={cfg.k1!r} k2={cfg.k2!r} e_max_loss={cfg.e_max_loss!r} "
        f"min_sessions={cfg.min_sessions} train_fraction={cfg.train_fraction!r} "
        f"warmup={cfg.online_warmup}"
    )


class _Bundle:
    """A run's report bundle in output_dir.

    Opening it writes the cleaning report and the rejected input rows; a
    parse_errors.csv left by an earlier run is removed when this run rejected
    none.  Each report is written atomically as soon as its text exists.
    """

    def __init__(self, results: RunResults, output_dir: str):
        os.makedirs(output_dir, exist_ok=True)
        self.output_dir = output_dir
        self.paths: dict[str, str] = {}
        self.write("cleaning_report.txt", results.cleaning.to_text())
        if results.parse_errors:
            self.write_lines(
                "parse_errors.csv",
                ["line_number,reason"]
                + [
                    f"{e.line_number},{e.reason.replace(',', ';')}"
                    for e in results.parse_errors
                ],
            )
        else:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(output_dir, "parse_errors.csv"))

    def write(self, name: str, text: str) -> None:
        path = os.path.join(self.output_dir, name)
        _atomic_write(path, text)
        self.paths[name] = path

    def write_lines(self, name: str, lines: list[str]) -> None:
        self.write(name, "\n".join(lines) + "\n")


def emit_offline_reports(results: OfflineResults, output_dir: str) -> dict[str, str]:
    bundle = _Bundle(results, output_dir)
    cfg = results.cfg
    bundle.write("profiles.csv", _profile_csv(results.profiles_test, cfg.emit_resolution))
    bundle.write(
        "profiles_all_sessions.csv",
        _profile_csv(results.profiles_all, cfg.emit_resolution),
    )
    bundle.write_lines(
        "policies.csv",
        ["cp_id,t_boost_max_hours,p_rate,deficit_kwh,n_train,n_test"]
        + [
            _csv_line(
                [r.cp_id, r.t_boost_max_hours, r.p_rate, r.deficit_kwh, r.n_train, r.n_test]
            )
            for r in results.cp_rows
        ],
    )
    hist = results.speed_histogram()
    bundle.write_lines(
        "speed_histogram.csv",
        ["rel_speed_bin_start,fraction"]
        + [_csv_line([i / len(hist), float(frac)]) for i, frac in enumerate(hist)],
    )

    text = [
        "offline experiment report",
        "=========================",
        _config_lines(cfg),
        "",
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
    text += [
        "",
        f"peak reduction vs raw: rl {results.peak_reduction('rl')!r}% | "
        f"oracle {results.peak_reduction('oracle')!r}%",
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


def emit_online_reports(results: OnlineResults, output_dir: str) -> dict[str, str]:
    bundle = _Bundle(results, output_dir)
    bundle.write("profiles.csv", _profile_csv(results.profiles, results.cfg.emit_resolution))

    lines = [
        "cp_id,session_index,event_id,start,plugin_hours,energy_kwh,mode,"
        "t_boost_hours,t_slow_hours,e_boost_kwh,e_slow_kwh,e_total_kwh,"
        "e_loss_kwh,p_eff_kw,policy_t_boost_max_hours,policy_p_rate"
    ]
    for cp in results.cp_results:
        for r in cp.rows:
            o = r.outcome
            lines.append(
                _csv_line(
                    [
                        r.cp_id,
                        r.index,
                        r.event_id,
                        r.start,
                        r.plugin_hours,
                        r.energy_kwh,
                        r.mode,
                        o.t_boost_hours,
                        o.t_slow_hours,
                        o.e_boost_kwh,
                        o.e_slow_kwh,
                        o.e_total_kwh,
                        o.e_loss_kwh,
                        o.p_eff_kw,
                        r.policy_t_boost_max,
                        r.policy_p_rate,
                    ]
                )
            )
    bundle.write_lines("outcomes.csv", lines)

    text = [
        "online learning report",
        "======================",
        _config_lines(results.cfg),
        "",
    ]
    for cp in results.cp_results:
        adaptive = [r for r in cp.rows if r.mode == "adaptive"]
        text += [
            f"charge point {cp.cp_id}",
            f"  max power rate        : {cp.p_max_kw!r} kW",
            f"  sessions (warmup raw) : {len(cp.rows)} ({sum(1 for r in cp.rows if r.mode == 'raw')})",
            f"  adaptive sessions     : {len(adaptive)}",
            f"  target energy         : {cp.target_kwh()!r} kWh",
            f"  delivered energy      : {cp.delivered_kwh()!r} kWh",
            f"  energy deficit        : {cp.deficit_kwh()!r} kWh ({cp.deficit_percent()!r}%)",
            f"  mean effective speed  : {cp.mean_p_eff_adaptive()!r} kW (adaptive sessions)",
            f"  mean / median relative speed : {cp.mean_relative_speed()!r} / "
            f"{cp.median_relative_speed()!r}",
            f"  mean boost / slow hours      : {cp.mean_boost_hours()!r} / "
            f"{cp.mean_slow_hours()!r}",
            "",
        ]
    profiles = results.profiles
    if profiles["raw"].peak_kw() > 0:
        text.append(
            f"peak reduction vs raw: rl "
            f"{aggregation.peak_reduction(profiles['rl'], profiles['raw'])!r}% | "
            f"oracle "
            f"{aggregation.peak_reduction(profiles['oracle'], profiles['raw'])!r}%"
        )
    bundle.write_lines("metrics.txt", text)
    return bundle.paths


def emit_predict_reports(results: PredictResults, output_dir: str) -> dict[str, str]:
    bundle = _Bundle(results, output_dir)
    lines = [
        "cp_id,n_rows,mae_with_energy,mape_with_energy,mse_with_energy,"
        "mae_without_energy,mape_without_energy,mse_without_energy"
    ]
    for r in results.cp_rows:
        if r.with_energy is None:
            lines.append(_csv_line([r.cp_id, r.n_rows, "", "", "", "", "", ""]))
        else:
            w, wo = r.with_energy, r.without_energy
            lines.append(
                _csv_line(
                    [r.cp_id, r.n_rows, w.mae, w.mape, w.mse, wo.mae, wo.mape, wo.mse]
                )
            )
    bundle.write_lines("prediction_per_cp.csv", lines)

    usable = [r for r in results.cp_rows if r.with_energy is not None]
    text = [
        "session duration prediction report",
        "==================================",
        _config_lines(results.cfg),
        "",
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
        return emit_offline_reports(run_offline(cfg), cfg.output_dir)
    if cfg.mode == "online":
        return emit_online_reports(run_online(cfg), cfg.output_dir)
    if cfg.mode == "predict":
        return emit_predict_reports(run_predict(cfg), cfg.output_dir)
    raise HarnessError(f"unknown mode {cfg.mode!r}")
