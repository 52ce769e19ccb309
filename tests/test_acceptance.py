"""Acceptance criteria.

Criteria 1-6 run on synthetic data and must always pass.  Criteria 7-11
reproduce the published dataset results and need the public UK domestic
chargepoint 2017 CSV; point SMARTCHARGE_DATASET at the file to enable them
(they re-run the full experiments and take correspondingly long).

Each criterion prints one PASS/FAIL line (visible with pytest -s, or in the
captured output of a failing run).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from smartcharge.charging import (
    HistoryArrays,
    evaluate_policy_arrays,
    history_arrays,
    simulate_session,
)
from smartcharge.dataset import derive_p_max
from smartcharge.harness import (
    ExperimentConfig,
    emit_offline_reports,
    run_offline,
    run_online,
    run_predict,
)
from smartcharge.optimizer import RewardParams, SearchConfig, learn_policy, reward
from smartcharge.predictor import fit_ols

from conftest import BASE_EPOCH, make_session, synth_fleet_csv, table

DATASET_ENV = "SMARTCHARGE_DATASET"
DATASET = os.environ.get(DATASET_ENV)

needs_dataset = pytest.mark.skipif(
    not DATASET, reason=f"set {DATASET_ENV} to the UK chargepoint CSV to run"
)


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rel_err(a, b):
    return abs(a - b) / max(1e-300, abs(b))


# ---------------------------------------------------------------------------
# criterion 1: per-session simulation matches an independent transcription


def transcribed_session_rules(e_target, plugin, p_max, t_maxboost, p_rate):
    """Line-by-line scalar re-coding of the per-session charging rules,
    kept independent of the library implementation."""
    t_boost = min(e_target / p_max, t_maxboost)
    t_boost = min(t_boost, plugin)
    e_boost = min(t_boost * p_max, e_target)
    e_total = p_max * (t_boost + (plugin - t_boost) * p_rate)
    e_total = min(e_target, e_total)
    e_slow = e_total - e_boost
    if e_slow > 0:
        # a slow rate that underflows to 0 kW charges until the session ends
        rate = p_max * p_rate
        t_slow = e_slow / rate if rate > 0 else plugin - t_boost
    else:
        e_slow = 0.0
        t_slow = 0.0
    if e_target > 0:
        p_eff = (e_boost + p_rate * (e_total - e_boost)) * p_max / e_target
    else:
        p_eff = 0.0
    e_loss = e_target - e_total
    return t_boost, e_boost, e_total, e_slow, t_slow, p_eff, e_loss


def test_criterion_1_simulation_conformance():
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = []
    for i in range(1000):
        plugin = float(rng.uniform(0.05, 48.0))
        p_max = float(rng.uniform(0.5, 60.0))
        # mix ordinary, zero-energy and boundary-heavy cases
        u = rng.random()
        if u < 0.05:
            energy = 0.0
        elif u < 0.15:
            energy = p_max * plugin
        else:
            energy = float(rng.uniform(0.0, p_max * plugin))
        t_maxboost = float(rng.uniform(0.0, 2.0 * plugin))
        p_rate = float(rng.choice([0.0, 1.0])) if rng.random() < 0.1 else float(
            rng.uniform(0.0, 1.0)
        )
        cases.append((energy, plugin, p_max, t_maxboost, p_rate))
    # all sessions in one call, each with its own charger power and policy
    energy, plugin, p_max, t_maxboost, p_rate = (np.array(c) for c in zip(*cases))
    o = simulate_session(HistoryArrays(energy, plugin, p_max), t_maxboost, p_rate)
    got = zip(
        o.t_boost_hours.tolist(),
        o.e_boost_kwh.tolist(),
        o.e_total_kwh.tolist(),
        o.e_slow_kwh.tolist(),
        o.t_slow_hours.tolist(),
        o.p_eff_kw.tolist(),
        o.e_loss_kwh.tolist(),
    )
    for case, session_got in zip(cases, got):
        for g, e in zip(session_got, transcribed_session_rules(*case)):
            err = abs(g - e) / max(1.0, abs(e))
            worst = max(worst, err)
    report(1, worst <= 1e-12, f"1000 random sessions, worst relative gap {worst:.3g}")


# ---------------------------------------------------------------------------
# criterion 2: search reward vs brute-force grid oracle


def grid_oracle_best(history, p_max, params):
    """Reward maximum over the 481 x 101 grid, via an independent
    vectorized coding of the charging rules."""
    e = history.energy_kwh[None, None, :]
    pl = history.plugin_hours[None, None, :]
    T = np.linspace(0.0, 24.0, 481)[:, None, None]
    P = np.linspace(0.0, 1.0, 101)[None, :, None]
    t_boost = np.minimum(np.minimum(e / p_max, T), pl)
    e_boost = np.minimum(t_boost * p_max, e)
    e_total = np.minimum(e, p_max * (t_boost + (pl - t_boost) * P))
    e_loss = (e - e_total).sum(axis=2)
    weighted = e_boost + P * (e_total - e_boost)
    p_eff = np.divide(weighted * p_max, e, out=np.zeros(e_total.shape), where=e > 0)
    delivered = e_total.sum(axis=2)
    p_aggr = np.divide(
        (p_eff * e_total).sum(axis=2),
        delivered,
        out=np.zeros_like(delivered),
        where=delivered > 0,
    )
    with np.errstate(divide="ignore"):
        r = np.where(
            e_loss >= params.e_max_loss_kwh,
            -np.inf,
            -params.k1 * e_loss + np.where(p_aggr > 0, params.k2 / p_aggr, np.inf),
        )
    return float(r.max())


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    params = RewardParams()
    outer = np.random.default_rng(202)
    learned_rewards = []
    best_rewards = []
    for h in range(50):
        n = int(outer.integers(3, 21))
        rate_kw = float(outer.uniform(3.0, 10.0))
        history = []
        t = BASE_EPOCH
        for i in range(n):
            plugin = float(outer.uniform(1.0, 24.0))
            charge_h = plugin * float(outer.uniform(0.1, 1.0))
            history.append(
                make_session(
                    start=t,
                    plugin_hours=plugin,
                    energy_kwh=charge_h * rate_kw,
                    event_id=i,
                )
            )
            t += round(plugin * 3600) + 3600
        history = table(history)
        p_max = derive_p_max(history)
        best_rewards.append(grid_oracle_best(history, p_max, params))
        policy = learn_policy(history, p_max, SearchConfig(), params, seed=h).policy
        e_loss, p_aggr = evaluate_policy_arrays(
            history_arrays([history], [p_max]), policy.t_boost_max_hours, policy.p_rate
        )
        learned_rewards.append(reward(e_loss, p_aggr, params).item())
    elapsed = time.time() - t0
    mean_learned = float(np.mean(learned_rewards))
    mean_best = float(np.mean(best_rewards))
    ok = mean_learned >= 0.95 * mean_best and elapsed < 60.0
    report(
        2,
        ok,
        f"50 histories: mean learned {mean_learned:.4f} vs 0.95 x mean grid best "
        f"{0.95 * mean_best:.4f}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 3-4: baselines and profile energy conservation on random inputs


def _offline_on_synthetic(tmp_path, seed, **cfg_kw):
    path = tmp_path / f"synth{seed}.csv"
    path.write_text(
        synth_fleet_csv(n_cps=5, sessions_per_cp=14, seed=seed, zero_energy_prob=0.05)
    )
    defaults = dict(
        input=str(path),
        min_sessions=5,
        history=10,
        n_tries=50,
        seed=seed,
        out_dir=str(tmp_path / f"out{seed}"),
    )
    defaults.update(cfg_kw)
    return run_offline(ExperimentConfig(**defaults))


def test_criterion_3_zero_deficit_baselines(tmp_path):
    worst = 0.0
    for seed in (1, 2, 3):
        results = _offline_on_synthetic(tmp_path, seed)
        for strategy in ("raw", "oracle"):
            m = results.metrics(strategy)
            worst = max(
                worst,
                abs(m.total_deficit_kwh),
                abs(m.deficit_percent),
                abs(m.cp_deficit_over_10pct_fraction),
            )
    report(3, worst == 0.0, f"raw/oracle deficits exactly zero (worst {worst!r})")


def test_criterion_4_energy_conservation(tmp_path):
    worst = 0.0
    for seed in (4, 5, 6):
        results = _offline_on_synthetic(tmp_path, seed)
        target = results.columns["target_kwh"].sum()
        delivered = results.columns["delivered_kwh"].sum()
        worst = max(worst, rel_err(results.profiles["raw"].total_energy_kwh(), target))
        worst = max(worst, rel_err(results.profiles["oracle"].total_energy_kwh(), target))
        worst = max(worst, rel_err(results.profiles["rl"].total_energy_kwh(), delivered))
    report(4, worst <= 1e-6, f"profile totals vs delivered, worst rel err {worst:.3g}")


# ---------------------------------------------------------------------------
# criterion 5: byte-identical reports for any worker count


def test_criterion_5_worker_determinism(tmp_path):
    # 70 charge points span several work batches, so 4 and 8 workers really
    # do process them in different interleavings
    path = tmp_path / "det.csv"
    path.write_text(synth_fleet_csv(n_cps=70, sessions_per_cp=10, seed=50))
    bundles = {}
    for workers in (1, 4, 8):
        out = str(tmp_path / f"det-w{workers}")
        cfg = ExperimentConfig(
            input=str(path),
            min_sessions=5,
            history=8,
            n_tries=40,
            seed=99,
            workers=workers,
            out_dir=out,
        )
        emit_offline_reports(run_offline(cfg), out)
        bundles[workers] = {
            name: Path(out, name).read_bytes()
            for name in sorted(os.listdir(out))
        }
    ok = bundles[1] == bundles[4] == bundles[8]
    report(5, ok, f"reports byte-identical for workers 1/4/8 ({len(bundles[1])} files)")


# ---------------------------------------------------------------------------
# criterion 6: regression fit exactness


def test_criterion_6_ols_properties():
    rng = np.random.default_rng(606)
    worst = 0.0
    # exact recovery
    x = rng.normal(size=(60, 4))
    beta_true = np.array([1.5, -2.0, 0.25, 4.0])
    y = 3.0 + x @ beta_true
    model = fit_ols(x, y)
    got = np.array([model.intercept, *model.coefficients])
    worst = max(worst, float(np.max(np.abs(got - np.array([3.0, *beta_true])))))
    # residual orthogonality on noisy data
    y_noisy = y + rng.normal(size=60)
    model = fit_ols(x, y_noisy)
    resid = y_noisy - model.predict(x)
    worst = max(worst, abs(float(resid.sum())) / len(y))
    for j in range(4):
        worst = max(
            worst,
            abs(float(resid @ x[:, j])) / float(np.linalg.norm(x[:, j]) * len(y)),
        )
    report(6, worst <= 1e-8, f"exact recovery + orthogonality, worst gap {worst:.3g}")


# ---------------------------------------------------------------------------
# criteria 7-11: published-dataset reproduction (needs the real CSV)


def dataset_cfg(**kw):
    # results are worker-count independent (criterion 5), so the heavy
    # reproduction runs may be parallelized freely
    defaults = dict(
        input=DATASET,
        out_dir=kw.pop("out_dir", "out"),
        workers=int(os.environ.get("SMARTCHARGE_WORKERS", "1")),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    """Offline runs for history 30 / 60 / unlimited, shared by criteria 8-9."""
    out = tmp_path_factory.mktemp("sweep")
    runs = {}
    for label, history in (("30", 30), ("60", 60), ("all", None)):
        runs[label] = run_offline(
            dataset_cfg(history=history, out_dir=str(out / label))
        )
    return runs


@needs_dataset
def test_criterion_7_cleaning_statistics():
    from smartcharge.dataset import clean_sessions, parse_sessions_path

    sessions, _ = parse_sessions_path(DATASET)
    _, rep = clean_sessions(sessions)
    overlap_pct = 100.0 * rep.removed_overlapping / rep.total_records
    long_pct = 100.0 * rep.removed_over_max_hours / rep.total_records
    ok = (
        abs(overlap_pct - 1.7) <= 0.5
        and abs(long_pct - 1.8) <= 0.5
        and abs(rep.retained_charge_points - 22_731) <= 500
    )
    report(
        7,
        ok,
        f"overlap {overlap_pct:.2f}% (1.7 +/- 0.5), >48h {long_pct:.2f}% "
        f"(1.8 +/- 0.5), charge points {rep.retained_charge_points} (22731 +/- 500)",
    )


@needs_dataset
def test_criterion_8_history_sweep(sweep_results):
    expected = {
        "30": (31.0, 5.0, 16.0),
        "60": (21.0, 2.8, 8.9),
        "all": (12.3, 1.4, 7.2),
    }
    details = []
    ok = True
    for label, (peak_exp, deficit_exp, frac_exp) in expected.items():
        r = sweep_results[label]
        peak = r.peak_reduction("rl")
        m = r.metrics("rl")
        frac = 100.0 * m.cp_deficit_over_10pct_fraction
        ok &= abs(peak - peak_exp) <= 5.0
        ok &= abs(m.deficit_percent - deficit_exp) <= 1.5
        ok &= abs(frac - frac_exp) <= 4.0
        details.append(
            f"h{label}: peak {peak:.1f}% (exp {peak_exp}), deficit "
            f"{m.deficit_percent:.1f}% (exp {deficit_exp}), frac {frac:.1f}% (exp {frac_exp})"
        )
    report(8, ok, "; ".join(details))


@needs_dataset
def test_criterion_9_phase_durations(sweep_results):
    expected = {"30": (0.30, 3.47), "60": (0.40, 2.92), "all": (0.49, 2.55)}
    ok = True
    details = []
    for label, (boost_exp, slow_exp) in expected.items():
        r = sweep_results[label]
        boost, slow = r.mean_boost_hours(), r.mean_slow_hours()
        ok &= abs(boost - boost_exp) <= 0.30 * boost_exp
        ok &= abs(slow - slow_exp) <= 0.30 * slow_exp
        details.append(f"h{label}: boost {boost:.2f}/{boost_exp}, slow {slow:.2f}/{slow_exp}")
    raw_eff = sweep_results["30"].mean_raw_effective_hours()
    ok &= abs(raw_eff - 1.82) <= 0.02 * 1.82
    details.append(f"raw effective {raw_eff:.3f}/1.82")
    report(9, ok, "; ".join(details))


@needs_dataset
def test_criterion_10_online_case_study(tmp_path):
    cfg = dataset_cfg(
        mode="online",
        history=60,
        cp=("AN15123",),
        out_dir=str(tmp_path / "online"),
    )
    results = run_online(cfg)
    (cp,), (log,) = results.charge_points, results.log
    deficit_pct = results.metrics("rl").deficit_percent
    # the mean effective speed (kW) of the adaptive sessions with energy
    speeds = log["p_eff_kw"][log["adaptive"] & (cp.sessions.energy_kwh > 0)]
    mean_speed = float(np.mean(speeds)) if len(speeds) else 0.0
    ok = abs(deficit_pct - 1.3) <= 1.0 and abs(mean_speed - 18.29) <= 0.20 * 18.29
    report(
        10,
        ok,
        f"AN15123 (p_max {cp.p_max_kw:.1f} kW, {len(cp.sessions)} sessions): deficit "
        f"{deficit_pct:.2f}% (1.3 +/- 1), mean effective speed {mean_speed:.2f} kW "
        f"(18.29 +/- 20%)",
    )


@needs_dataset
def test_criterion_11_predictability(tmp_path):
    cfg = dataset_cfg(mode="predict", out_dir=str(tmp_path / "predict"))
    results = run_predict(cfg)
    pooled = results.pooled(include_energy=True)
    ok = (
        abs(pooled.mae - 14.04) <= 0.15 * 14.04
        and abs(pooled.mse - 11_517.59) <= 0.25 * 11_517.59
        and 100.0 <= pooled.mape <= 1000.0
    )
    report(
        11,
        ok,
        f"MAE {pooled.mae:.2f} (14.04 +/- 15%), MSE {pooled.mse:.0f} "
        f"(11518 +/- 25%), MAPE {pooled.mape:.1f}% (order: hundreds)",
    )
