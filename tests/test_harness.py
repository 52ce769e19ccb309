"""End-to-end experiment runs, report emission and the CLI."""

import io
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import fields, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartcharge import harness
from smartcharge.aggregation import SECONDS_PER_DAY, deficit_stats, total
from smartcharge.cli import build_config, main
from smartcharge.dataset import ChargePoint, Sessions
from smartcharge.harness import (
    ExperimentConfig,
    HarnessError,
    emit_offline_reports,
    emit_online_reports,
    emit_predict_reports,
    run_offline,
    run_online,
    run_predict,
)
from smartcharge.optimizer import learn_policy, per_cp_seed

from conftest import CSV_HEADER, csv_row, synth_fleet_csv, BASE_EPOCH, brute_force_profile
from test_reports import prediction_csv_reference

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def flat_test_split_csv(tmp_path):
    """One charger of 10 sessions, the last 2 (the test split) without energy."""
    rows = [CSV_HEADER]
    for i in range(10):
        energy = "0.0" if i >= 8 else f"{3.0 + i:.1f}"
        rows.append(csv_row(i, "CP0", BASE_EPOCH + i * 86400, "6.00", energy))
    return write_csv(tmp_path, "\n".join(rows) + "\n")


def small_cfg(input_path, out_dir, **kw):
    defaults = dict(
        input=input_path,
        min_sessions=5,
        n_tries=60,
        history=10,
        out_dir=out_dir,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def count_kernel_calls(monkeypatch):
    """Count the harness's simulate_session calls (the session count of
    each, in a list) and its calls of each profile builder (a dict)."""
    simulated = []
    profiles = {"raw_profile": 0, "oracle_profile": 0, "adaptive_profile": 0}
    simulate_session = harness.simulate_session

    def simulate(sessions, *args):
        simulated.append(len(sessions.e_target))
        return simulate_session(sessions, *args)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            profiles[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    monkeypatch.setattr(harness, "simulate_session", simulate)
    for name in profiles:
        counting(name, getattr(harness, name))
    return simulated, profiles


def charger_logs(results):
    """Each charger of an online run, with its rows of its batch's session
    log: log b covers charge points b * BATCH_SIZE to (b + 1) * BATCH_SIZE."""
    for b, log in enumerate(results.log):
        batch = results.charge_points[b * harness.BATCH_SIZE : (b + 1) * harness.BATCH_SIZE]
        ends = np.cumsum([len(cp.sessions) for cp in batch]).tolist()
        for cp, end in zip(batch, ends, strict=True):
            rows = slice(end - len(cp.sessions), end)
            yield cp, {name: column[rows] for name, column in log.items()}


def count_folds(monkeypatch):
    """Record the piece count of each aggregation.accumulate call made in
    this process."""
    calls = []
    accumulate = harness.aggregation.accumulate

    def counting(profile):
        calls.append(len(profile.pieces))
        return accumulate(profile)

    monkeypatch.setattr(harness.aggregation, "accumulate", counting)
    return calls


class TestOffline:
    def test_report_bundle(self, tmp_path, fleet_csv):
        cfg = small_cfg(fleet_csv, str(tmp_path / "out"))
        results = run_offline(cfg)
        paths = emit_offline_reports(results, cfg.out_dir)
        for name in (
            "cleaning_report.txt",
            "profiles.csv",
            "profiles_all_sessions.csv",
            "policies.csv",
            "metrics.txt",
            "speed_histogram.csv",
        ):
            assert os.path.exists(paths[name])
        profile_lines = Path(paths["profiles.csv"]).read_text().strip().split("\n")
        assert len(profile_lines) == 86_400 + 1
        assert profile_lines[0] == "second_of_day,raw_kw,oracle_kw,rl_kw"
        policy_lines = Path(paths["policies.csv"]).read_text().strip().split("\n")
        # one table, a row per charger
        c = results.columns
        policy = ["t_boost_max_hours", "p_rate", "feasible", "n_train", "n_test"]
        assert list(c) == ["cp_id", *harness.SUMMARY_COLUMNS, *policy]
        assert {len(column) for column in c.values()} == {len(c["cp_id"])}
        assert len(policy_lines) == len(c["cp_id"]) + 1
        assert (c["n_train"] + c["n_test"] == c["n_sessions"]).all()

    def test_split_80_20(self, tmp_path):
        text = synth_fleet_csv(n_cps=1, sessions_per_cp=10, seed=5)
        cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"))
        results = run_offline(cfg)
        assert results.columns["n_train"].tolist() == [8]
        assert results.columns["n_test"].tolist() == [2]

    def test_zero_deficit_baselines(self, tmp_path, fleet_csv):
        cfg = small_cfg(fleet_csv, str(tmp_path / "out"))
        results = run_offline(cfg)
        for strategy in ("raw", "oracle"):
            m = results.metrics(strategy)
            assert m.total_deficit_kwh == 0.0
            assert m.deficit_percent == 0.0
            assert m.cp_deficit_over_10pct_fraction == 0.0

    def test_energy_conservation(self, tmp_path, fleet_csv):
        cfg = small_cfg(fleet_csv, str(tmp_path / "out"))
        results = run_offline(cfg)
        target = results.columns["target_kwh"].sum()
        delivered = results.columns["delivered_kwh"].sum()
        assert results.profiles["raw"].total_energy_kwh() == pytest.approx(target, rel=1e-6)
        assert results.profiles["oracle"].total_energy_kwh() == pytest.approx(target, rel=1e-6)
        assert results.profiles["rl"].total_energy_kwh() == pytest.approx(delivered, rel=1e-6)

    def test_unlimited_history_equals_full_count(self, tmp_path, fleet_csv):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        r1 = run_offline(small_cfg(fleet_csv, out1, history=None))
        r2 = run_offline(small_cfg(fleet_csv, out2, history=10_000))
        for name in ("cp_id", "t_boost_max_hours", "p_rate"):
            assert r1.columns[name].tolist() == r2.columns[name].tolist()

    def test_empty_test_split_row_present(self, tmp_path):
        # 4 sessions: ceil(0.8 * 4) = 4 -> nothing left to test
        text = synth_fleet_csv(n_cps=1, sessions_per_cp=4, seed=2)
        cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), min_sessions=4)
        results = run_offline(cfg)
        summary = results.columns
        assert summary["n_test"].tolist() == [0]
        assert (summary["target_kwh"] - summary["delivered_kwh"]).tolist() == [0.0]
        # the raw test profile is flat, so there is no peak to reduce
        assert main(["--input", cfg.input, "--min-sessions", "4", "--n-tries", "10"]
                    + ["--out-dir", cfg.out_dir]) == 0
        metrics = Path(cfg.out_dir, "metrics.txt").read_text()
        assert "test sessions           : 0" in metrics
        assert "peak reduction" not in metrics

    def test_zero_energy_test_split_emits(self, tmp_path):
        path = flat_test_split_csv(tmp_path)
        for mode in ("offline", "online"):
            out = tmp_path / mode
            args = ["--input", path, "--mode", mode, "--warmup", "3", "--n-tries", "10"]
            assert main(args + ["--out-dir", str(out)]) == 0
            metrics = (out / "metrics.txt").read_text()
            # online's raw profile covers every session, offline's the test split
            assert ("peak reduction" in metrics) == (mode == "online")

    def test_no_peak_reduction_on_flat_raw_profile(self, tmp_path):
        # the report and the results agree: no raw peak, no peak reduction
        cfg = small_cfg(flat_test_split_csv(tmp_path), str(tmp_path / "out"), n_tries=10)
        results = run_offline(cfg)
        assert results.peak_reduction("rl") is None
        assert results.peak_reduction("oracle") is None
        paths = emit_offline_reports(results, cfg.out_dir)
        assert "peak reduction" not in Path(paths["metrics.txt"]).read_text()

    @pytest.mark.parametrize("mode", ["offline", "online", "predict"])
    def test_negative_zero_energy_same_bundle(self, tmp_path, mode):
        bundles = []
        for zero in ("0.0", "-0.0"):
            rows = [CSV_HEADER]
            for i in range(10):
                energy = zero if i in (4, 9) else f"{3.0 + i:.1f}"
                rows.append(csv_row(i, "CP0", BASE_EPOCH + i * 86400, "6.00", energy))
            path = write_csv(tmp_path, "\n".join(rows) + "\n", f"{zero}.csv")
            out = tmp_path / zero
            args = ["--input", path, "--mode", mode, "--warmup", "3", "--n-tries", "10"]
            assert main(args + ["--out-dir", str(out)]) == 0
            bundles.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert bundles[0] == bundles[1]

    def test_no_usable_cp_fatal(self, tmp_path):
        rows = [CSV_HEADER]
        t = BASE_EPOCH
        for i in range(6):
            rows.append(csv_row(i, "CP0", t, "2.00", "0.0"))
            t += 10 * 3600
        cfg = small_cfg(write_csv(tmp_path, "\n".join(rows) + "\n"), str(tmp_path / "o"))
        with pytest.raises(HarnessError):
            run_offline(cfg)

    def bundles_by_workers(self, tmp_path):
        # enough charge points for multiple batches, so workers=2 really runs
        # in a process pool
        text = synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=9)
        path = write_csv(tmp_path, text)
        outputs = {}
        for workers in (1, 2):
            out = str(tmp_path / f"w{workers}")
            cfg = small_cfg(path, out, workers=workers, seed=7, n_tries=30)
            emit_offline_reports(run_offline(cfg), out)
            outputs[workers] = {
                name: Path(out, name).read_bytes()
                for name in os.listdir(out)
            }
        return outputs

    def test_deterministic_across_workers(self, tmp_path):
        outputs = self.bundles_by_workers(tmp_path)
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize("fold_rows, folds", [(1, 12), (2**62, 6)])
    def test_deterministic_at_any_fold_bound(self, tmp_path, monkeypatch, fold_rows, folds):
        # bound 1 folds each of the 6 profile keys after both batches, 2**62
        # once at the end; at 2 workers too every fold runs in this process
        monkeypatch.setattr(harness, "_FOLD_ROWS", fold_rows)
        calls = count_folds(monkeypatch)
        outputs = self.bundles_by_workers(tmp_path)
        assert outputs[1] == outputs[2]
        assert len(calls) == 2 * folds

    def test_per_cp_energy_sums_to_dataset_total(self, tmp_path, fleet_csv):
        from smartcharge.dataset import clean_sessions, parse_sessions_path

        cfg = small_cfg(fleet_csv, str(tmp_path / "out"))
        results = run_offline(cfg)
        sessions, _ = parse_sessions_path(fleet_csv)
        cps, _ = clean_sessions(sessions, min_sessions=cfg.min_sessions)
        assert results.columns["cp_id"].tolist() == [cp.cp_id for cp in cps]
        # with p_max uncapped, raw_effective_hours_sum is sum(energy)/p_max per
        # charge point
        p_max = np.array([cp.p_max_kw for cp in cps])
        total_from_rows = (results.columns["raw_effective_hours_sum"] * p_max).sum()
        total_energy = sum(e for cp in cps for e in cp.sessions.energy_kwh.tolist())
        assert total_from_rows == pytest.approx(total_energy, rel=1e-9)

    def test_rerun_overwrites(self, tmp_path, fleet_csv):
        out = str(tmp_path / "out")
        cfg = small_cfg(fleet_csv, out)
        results = run_offline(cfg)
        emit_offline_reports(results, out)
        first = Path(out, "metrics.txt").read_text()
        emit_offline_reports(results, out)
        assert Path(out, "metrics.txt").read_text() == first

    def test_each_session_simulated_once(self, tmp_path, monkeypatch):
        # zero-energy sessions are simulated and profiled like any other
        text = synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=8, zero_energy_prob=0.3)
        cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), n_tries=20)
        simulated, profiles = count_kernel_calls(monkeypatch)
        results = run_offline(cfg)
        retained = int((results.columns["n_train"] + results.columns["n_test"]).sum())
        assert retained == results.cleaning.retained_sessions
        # one call per batch, and one profile per strategy and scope per batch
        assert len(results.columns["cp_id"]) == 40 and len(simulated) == 2
        assert sum(simulated) == retained
        assert profiles == dict.fromkeys(profiles, 2 * 2)

    def test_raw_fallback_without_training_energy(self, tmp_path):
        # the 8 training sessions have no energy, so there is no history to
        # learn from: the charger charges raw, boosting for its longest
        # session at the full rate
        rows = [CSV_HEADER]
        for i in range(10):
            energy = "0.0" if i < 8 else f"{3.0 + i:.1f}"
            rows.append(csv_row(i, "CP0", BASE_EPOCH + i * 86400, f"{4.0 + i / 2:.2f}", energy))
        cfg = small_cfg(write_csv(tmp_path, "\n".join(rows) + "\n"), str(tmp_path / "out"))
        paths = emit_offline_reports(run_offline(cfg), cfg.out_dir)
        assert Path(paths["policies.csv"]).read_text().split("\n")[1] == "CP0,8.5,1.0,0.0,8,2"

    def test_raw_deficit_when_p_max_capped(self, tmp_path):
        # at the 50th percentile of session rates, half the sessions need
        # more than the capped max power can give them within the session
        cfg = small_cfg(
            write_csv(tmp_path, synth_fleet_csv(n_cps=6, sessions_per_cp=20, seed=4)),
            str(tmp_path / "out"),
            p_max_percentile=50.0,
            train_fraction=0.5,
        )
        results = run_offline(cfg)
        m = results.metrics("raw")
        target = results.columns["target_kwh"].sum()
        assert m.total_deficit_kwh > 0.05 * target
        assert m.total_deficit_kwh == pytest.approx(
            target - results.profiles["raw"].total_energy_kwh(), rel=1e-9
        )
        assert results.metrics("oracle").total_deficit_kwh == 0.0
        # raw charging stops when the session ends, and so do its hours
        sessions, _ = harness.parse_sessions_path(cfg.input)
        cps, _ = harness.clean_sessions(
            sessions, min_sessions=cfg.min_sessions, p_max_percentile=50.0
        )
        cps = [cp for cp in cps if cp.usable]
        pieces = np.concatenate(
            [
                harness.raw_profile(
                    cp.sessions.start, cp.sessions.energy_kwh, cp.sessions.plugin_hours, cp.p_max_kw
                ).pieces
                for cp in cps
            ]
        )
        hours = (pieces[:, 1] - pieces[:, 0]).sum() / 3600.0
        n_sessions = sum(len(cp.sessions) for cp in cps)
        assert results.mean_raw_effective_hours() == pytest.approx(hours / n_sessions, rel=1e-9)

    def test_emit_resolution_downsamples(self, tmp_path, fleet_csv):
        out = str(tmp_path / "out")
        cfg = small_cfg(fleet_csv, out, emit_resolution=60)
        paths = emit_offline_reports(run_offline(cfg), out)
        lines = Path(paths["profiles.csv"]).read_text().strip().split("\n")
        assert len(lines) == 86_400 // 60 + 1


class TestOnline:
    def make_results(self, tmp_path, **kw):
        text = synth_fleet_csv(n_cps=2, sessions_per_cp=25, seed=3)
        path = write_csv(tmp_path, text)
        cfg = small_cfg(
            path,
            str(tmp_path / "out"),
            mode="online",
            warmup=10,
            n_tries=40,
            **kw,
        )
        return run_online(cfg), cfg

    def test_each_session_simulated_once(self, tmp_path, monkeypatch):
        text = synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=8, zero_energy_prob=0.3)
        cfg = small_cfg(
            write_csv(tmp_path, text), str(tmp_path / "out"), mode="online", warmup=5, n_tries=20
        )
        simulated, profiles = count_kernel_calls(monkeypatch)
        results = run_online(cfg)
        # one call per batch, and one profile per strategy per batch
        assert len(results.columns["cp_id"]) == 40 and len(simulated) == 2
        assert sum(simulated) == results.cleaning.retained_sessions
        assert profiles == dict.fromkeys(profiles, 2)

    def test_warmup_charges_raw(self, tmp_path):
        results, _ = self.make_results(tmp_path)
        for cp, log in charger_logs(results):
            for k in range(10):
                assert not log["adaptive"][k]
                if cp.sessions.energy_kwh[k] > 0:
                    assert log["p_eff_kw"][k] == pytest.approx(cp.p_max_kw, rel=1e-12)
                assert log["e_loss_kwh"][k] == 0.0
            assert log["adaptive"][10:].any()

    def test_outcome_log_and_profiles(self, tmp_path):
        results, cfg = self.make_results(tmp_path)
        paths = emit_online_reports(results, cfg.out_dir)
        lines = Path(paths["outcomes.csv"]).read_text().strip().split("\n")
        assert os.path.exists(paths["profiles.csv"])
        # one table, a row per charger, and a session log per batch named
        # as outcomes.csv's columns
        c = results.columns
        assert list(c) == ["cp_id", *harness.SUMMARY_COLUMNS]
        assert {len(column) for column in c.values()} == {len(c["cp_id"])}
        n_sessions = int(c["n_sessions"].sum())
        assert len(lines) == 1 + n_sessions
        assert sum(len(log["adaptive"]) for log in results.log) == n_sessions
        for log in results.log:
            assert list(log) == ["adaptive", *lines[0].split(",")[7:]]
            assert len({len(column) for column in log.values()}) == 1
        n_adaptive = sum(int(log["adaptive"].sum()) for log in results.log)
        metrics = Path(paths["metrics.txt"]).read_text()
        assert f"\nsessions (adaptive)     : {n_sessions} ({n_adaptive})\n" in metrics

    def test_energy_accounting(self, tmp_path):
        results, _ = self.make_results(tmp_path)
        summary = results.columns
        deficits = summary["target_kwh"] - summary["delivered_kwh"]
        logs = list(charger_logs(results))
        assert len(deficits) == len(logs)
        for deficit, (cp, log) in zip(deficits.tolist(), logs):
            target = sum(cp.sessions.energy_kwh.tolist())
            delivered = sum(log["e_total_kwh"].tolist())
            assert deficit == pytest.approx(target - delivered, abs=1e-9)
            assert deficit >= -1e-9
        total_rl = results.profiles["rl"].total_energy_kwh()
        delivered_all = sum(e for log in results.log for e in log["e_total_kwh"].tolist())
        assert total_rl == pytest.approx(delivered_all, rel=1e-6)

    def test_cp_filter_and_missing(self, tmp_path):
        text = synth_fleet_csv(n_cps=3, sessions_per_cp=12, seed=4)
        path = write_csv(tmp_path, text)
        cfg = small_cfg(
            path, str(tmp_path / "o"), mode="online", cp=("CP001",), n_tries=20
        )
        results = run_online(cfg)
        assert results.columns["cp_id"].tolist() == ["CP001"]
        bad = small_cfg(
            path, str(tmp_path / "o2"), mode="online", cp=("NOPE",), n_tries=20
        )
        with pytest.raises(HarnessError):
            run_online(bad)

    def test_cold_start_differs_from_warm(self, tmp_path):
        warm, _ = self.make_results(tmp_path, seed=11)
        cold, _ = self.make_results(tmp_path, seed=11, cold_start=True)

        def policies(results):
            return [
                (log["policy_t_boost_max_hours"].tolist(), log["policy_p_rate"].tolist())
                for log in results.log
            ]

        assert policies(warm) != policies(cold)

    def lockstep_fleet(self, tmp_path):
        # more chargers than one batch holds, and zero-energy sessions so the
        # chargers' windows differ in length at the same session index
        text = synth_fleet_csv(
            n_cps=40, sessions_per_cp=16, seed=12, zero_energy_prob=0.3
        )
        return write_csv(tmp_path, text)

    def online_bundle(self, path, out, **kw):
        cfg = small_cfg(
            path, out, mode="online", warmup=8, n_tries=20, seed=3, **kw
        )
        emit_online_reports(run_online(cfg), out)
        return {
            name: Path(out, name).read_bytes() for name in os.listdir(out)
        }

    def test_deterministic_across_workers(self, tmp_path):
        path = self.lockstep_fleet(tmp_path)
        bundles = [
            self.online_bundle(path, str(tmp_path / f"w{workers}"), workers=workers)
            for workers in (1, 2)
        ]
        assert bundles[0] == bundles[1]

    @pytest.mark.parametrize("fold_rows, folds", [(1, 6), (2**62, 3)])
    def test_deterministic_at_any_fold_bound(self, tmp_path, monkeypatch, fold_rows, folds):
        monkeypatch.setattr(harness, "_FOLD_ROWS", fold_rows)
        calls = count_folds(monkeypatch)
        path = self.lockstep_fleet(tmp_path)
        bundles = [
            self.online_bundle(path, str(tmp_path / f"w{workers}"), workers=workers)
            for workers in (1, 2)
        ]
        assert bundles[0] == bundles[1]
        assert len(calls) == 2 * folds

    def test_charger_alone_equals_charger_in_fleet(self, tmp_path):
        path = self.lockstep_fleet(tmp_path)
        fleet = self.online_bundle(path, str(tmp_path / "fleet"))
        for cp_id in ("CP000", "CP017", "CP039"):
            alone = self.online_bundle(path, str(tmp_path / cp_id), cp=(cp_id,))

            def rows(bundle):
                lines = bundle["outcomes.csv"].decode().splitlines()
                return [line for line in lines if line.startswith(cp_id + ",")]

            assert len(rows(alone)) == 16
            assert rows(alone) == rows(fleet)

    # a warmup of 0 and 1 learns after the first session; 30 outlasts
    # every charger's 24 sessions
    @pytest.mark.parametrize(
        "warmup, cold_start",
        [pytest.param(w, cold, id=f"{w}-cold" if cold else str(w)) for cold in (False, True)
         for w in (0, 1, 6, 30)],
    )
    def test_replay_matches_per_session_reference(self, tmp_path, warmup, cold_start):
        # each session's policy, restated one session at a time: raw during
        # the warmup, then the policy learned from the last `history`
        # sessions with energy before it, warm-started from the previous one
        # unless every re-learn starts cold
        text = synth_fleet_csv(n_cps=3, sessions_per_cp=24, seed=21, zero_energy_prob=0.3)
        cfg = small_cfg(
            write_csv(tmp_path, text), str(tmp_path / "o"), mode="online",
            warmup=warmup, history=5, n_tries=15, cold_start=cold_start,
        )
        for cp, log in charger_logs(run_online(cfg)):
            s, learned, charged, want = cp.sessions, None, [], []
            for i, (energy, plugin) in enumerate(
                zip(s.energy_kwh.tolist(), s.plugin_hours.tolist())
            ):
                if i >= cfg.warmup and learned is not None:
                    p = learned.policy
                    want.append((p.t_boost_max_hours, p.p_rate, True))
                else:
                    want.append((plugin, 1.0, False))
                if energy > 0:
                    charged.append(i)
                if charged and cfg.warmup <= i + 1 < len(s):
                    learned = learn_policy(
                        s[np.array(charged[-cfg.history:])],
                        cp.p_max_kw,
                        cfg.search_config(),
                        cfg.reward_params(),
                        None if learned is None or cold_start else learned.policy,
                        per_cp_seed(cfg.seed, f"{cp.cp_id}#{i}"),
                    )
            names = ("policy_t_boost_max_hours", "policy_p_rate", "adaptive")
            got = zip(*(log[name].tolist() for name in names))
            assert list(map(repr, got)) == list(map(repr, want))
            assert log["adaptive"].any() == (warmup < len(s))

    def test_one_charger_summary_pins_the_per_charger_figures(self, tmp_path):
        # an online --cp run's fleet summary is that charger's own: its rl
        # deficit bit for bit, and its means within rounding, of the
        # per-charger formulas metrics.txt was written with before
        text = synth_fleet_csv(n_cps=3, sessions_per_cp=30, seed=17, zero_energy_prob=0.2)
        out = str(tmp_path / "o")
        cfg = small_cfg(
            write_csv(tmp_path, text), out, mode="online", warmup=8, n_tries=20, cp=("CP001",)
        )
        results = run_online(cfg)
        ((cp, log),) = charger_logs(results)
        energy = cp.sessions.energy_kwh
        deficit_percent = deficit_stats([total(energy)], [total(log["e_total_kwh"])])[2]
        counted = log["adaptive"] & (energy > 0)
        assert counted.sum() >= 10

        def adaptive_mean(values):
            values = values[counted]
            return float(np.mean(values)) if len(values) else 0.0

        reference = {
            "mean_boost_hours": adaptive_mean(log["t_boost_hours"]),
            "mean_slow_hours": adaptive_mean(log["t_slow_hours"]),
            "mean_relative_speed": adaptive_mean(log["p_eff_kw"] / cp.p_max_kw),
        }
        assert repr(results.metrics("rl").deficit_percent) == repr(deficit_percent)
        for name, want in reference.items():
            assert getattr(results, name)() == pytest.approx(want, rel=1e-12, abs=0.0), name
        metrics = Path(emit_online_reports(results, out)["metrics.txt"]).read_text()
        assert f"  {deficit_percent!r}  " in metrics

    def test_metrics_length_independent_of_fleet_size(self, tmp_path):
        path = write_csv(tmp_path, synth_fleet_csv(n_cps=6, sessions_per_cp=16, seed=19))
        lengths = []
        for cp in ((), ("CP002",)):
            out = str(tmp_path / f"cp{len(cp)}")
            cfg = small_cfg(path, out, mode="online", warmup=8, n_tries=10, cp=cp)
            results = run_online(cfg)
            assert len(results.columns["cp_id"]) == (len(cp) or 6)
            metrics = Path(emit_online_reports(results, out)["metrics.txt"]).read_text()
            lengths.append(len(metrics.splitlines()))
        assert lengths[0] == lengths[1]

    def test_same_seed_reproducible(self, tmp_path):
        a, _ = self.make_results(tmp_path, seed=5)
        b, _ = self.make_results(tmp_path, seed=5)

        def logs(results):
            return [[column.tolist() for column in log.values()] for log in results.log]

        assert logs(a) == logs(b)


class TestPredict:
    def test_linear_cp_near_zero_mae(self, tmp_path):
        rng = np.random.default_rng(15)
        rows = [CSV_HEADER]
        t = BASE_EPOCH
        for i in range(30):
            gap_h = float(rng.uniform(1.0, 20.0))
            energy = float(rng.uniform(1.0, 30.0))
            t += round(gap_h * 3600)
            plugin = 2.0 + 0.1 * energy
            rows.append(csv_row(i, "LIN", t, f"{plugin:.2f}", f"{energy:.3f}"))
            t += round(float(f"{plugin:.2f}") * 3600)
        cfg = small_cfg(
            write_csv(tmp_path, "\n".join(rows) + "\n"),
            str(tmp_path / "out"),
            mode="predict",
        )
        (mae,) = run_predict(cfg).columns["mae_with_energy"].tolist()
        assert mae < 0.02

    def test_skip_counted(self, tmp_path):
        # 4 sessions -> 3 usable rows < 4 folds
        text = synth_fleet_csv(n_cps=1, sessions_per_cp=4, seed=6)
        cfg = small_cfg(
            write_csv(tmp_path, text), str(tmp_path / "o"), mode="predict",
            min_sessions=4,
        )
        results = run_predict(cfg)
        assert results.skipped == 1
        paths = emit_predict_reports(results, cfg.out_dir)
        assert "skipped" in Path(paths["prediction_report.txt"]).read_text()

    def test_near_zero_duration_excluded_from_mape(self, tmp_path):
        # a 1 s session whose Duration column reads 1e-07 h
        rows = [CSV_HEADER]
        for i in range(12):
            duration = "0.0003" if i == 6 else f"{2.0 + i / 4:.2f}"
            row = csv_row(i, "CP0", BASE_EPOCH + i * 86400, duration, f"{3.0 + i:.1f}")
            rows.append(row.replace(",0.0003", ",1e-07") if i == 6 else row)
        cfg = small_cfg(
            write_csv(tmp_path, "\n".join(rows) + "\n"), str(tmp_path / "out"), mode="predict"
        )
        paths = emit_predict_reports(run_predict(cfg), cfg.out_dir)
        report = Path(paths["prediction_report.txt"]).read_text()
        # once per feature set
        assert report.count("  (rows excluded from MAPE for near-zero duration: 1)\n") == 2

    def test_reports(self, tmp_path, fleet_csv):
        cfg = small_cfg(fleet_csv, str(tmp_path / "out"), mode="predict")
        results = run_predict(cfg)
        paths = emit_predict_reports(results, cfg.out_dir)
        per_cp = Path(paths["prediction_per_cp.csv"]).read_text().strip().split("\n")
        assert len(per_cp) == len(results.columns["cp_id"]) + 1
        report = Path(paths["prediction_report.txt"]).read_text()
        assert "with energy" in report and "without energy" in report

    def test_mixed_lengths_batch_by_length_and_report_in_charger_order(
        self, tmp_path, monkeypatch
    ):
        # 70 chargers cut to 5-30 sessions each make three batches, cut from
        # the chargers by session count, most first; prediction_per_cp.csv
        # is the same bytes at 1 and 2 workers, a row per charger in id
        # order, each as that charger cross-validated alone
        header, *body = synth_fleet_csv(n_cps=70, sessions_per_cp=30, seed=21).splitlines()
        counts = iter(np.random.default_rng(21).integers(5, 31, 70).tolist())
        rows = [header]
        for _, lines in itertools.groupby(body, key=lambda line: line.split(",")[1]):
            rows += list(lines)[: next(counts)]
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        batches = []
        validate = harness.cross_validate

        def recording(histories, **kwargs):
            if kwargs["include_energy"]:
                batches.append([len(h) for h in histories])
            return validate(histories, **kwargs)

        monkeypatch.setattr(harness, "cross_validate", recording)
        bundles = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            args = ["--input", path, "--mode", "predict", "--min-sessions", "5"]
            assert main(args + ["--workers", str(workers), "--out-dir", str(out)]) == 0
            bundles.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert bundles[0] == bundles[1]
        lengths = [n for batch in batches for n in batch]
        assert len(batches) == 3 and lengths == sorted(lengths, reverse=True)
        assert len(set(lengths)) > 1
        want = prediction_csv_reference(ExperimentConfig(input=path, min_sessions=5))
        assert bundles[0]["prediction_per_cp.csv"].decode() == want

    def test_run_loads_no_openssl(self, tmp_path, fleet_csv):
        # per_cp_seed imports hashlib, which maps OpenSSL (about 3.6 MB
        # resident), on first use; a predict run draws no seed
        out = str(tmp_path / "out")
        code = (
            "import sys\n"
            "import numpy\n"
            "before = '_hashlib' in sys.modules\n"
            "from smartcharge import cli\n"
            f"rc = cli.main(['--input', {fleet_csv!r}, '--mode', 'predict', '--out-dir', {out!r}])\n"
            "print(rc, before, '_hashlib' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        rc, before, after = result.stdout.split()[-3:]
        if before == "True":
            pytest.skip("numpy loads _hashlib (numpy 1.x does, through numpy.random)")
        assert (rc, after) == ("0", "False")


@pytest.mark.parametrize(
    "run_mode, emit, learned",
    [(run_offline, emit_offline_reports, "rl test sessions"),
     (run_online, emit_online_reports, "adaptive sessions")],
    ids=["offline", "online"],
)
def test_phase_hours_name_the_sessions_they_cover(tmp_path, fleet_csv, run_mode, emit, learned):
    # boost and slow hours cover the learned sessions with energy (offline,
    # the test split's); raw effective hours cover every session
    results = run_mode(small_cfg(fleet_csv, str(tmp_path / "out"), n_tries=10, warmup=5))
    lines = Path(emit(results, str(tmp_path / "out"))["metrics.txt"]).read_text().split("\n")
    heading = lines.index("charge phase durations (mean hours)")
    assert lines[heading + 1 : heading + 3] == [
        f"boost {results.mean_boost_hours()!r} | slow {results.mean_slow_hours()!r} ({learned})",
        f"raw effective {results.mean_raw_effective_hours()!r} (all sessions of each charger)",
    ]


@pytest.mark.parametrize("mode", ["offline", "online", "predict"])
def test_missing_charge_points_reported_sorted(tmp_path, fleet_csv, mode):
    cfg = small_cfg(fleet_csv, str(tmp_path / "o"), mode=mode, cp=("ZZ", "AA", "CP001"))
    with pytest.raises(HarnessError, match=r"\['AA', 'ZZ'\]"):
        {"offline": run_offline, "online": run_online, "predict": run_predict}[mode](cfg)


def test_cp_without_energy_has_its_own_error(tmp_path, capsys):
    # cleaning keeps CP1 (it has enough sessions), but none has energy
    rows = [CSV_HEADER]
    for i in range(20):
        cp_id, energy = ("CP0", "5.0") if i % 2 else ("CP1", "0.0")
        rows.append(csv_row(i, cp_id, BASE_EPOCH + i * 86400, "6.00", energy))
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    args = ["--input", path, "--cp", "CP1", "--out-dir", str(tmp_path / "out")]
    for mode in ("offline", "online"):
        assert main(args + ["--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err == "smartcharge: error: charge point(s) with no energy to simulate: ['CP1']\n"
    # predict needs no power rate
    assert main(args + ["--mode", "predict"]) == 0


def test_p_max_percentile_that_zeroes_a_charger_with_energy_is_fatal(tmp_path, capsys):
    # CPB's first 14 of 20 sessions have no energy, so its median session
    # rate, the 50th-percentile max power, is 0 kW although it has energy
    rows = [CSV_HEADER]
    for i in range(20):
        t = BASE_EPOCH + i * 86400
        rows.append(csv_row(i, "CPA", t, "6.00", f"{10.0 + i:.1f}"))
        rows.append(csv_row(100 + i, "CPB", t, "6.00", "0.0" if i < 14 else f"{5.0 + i:.1f}"))
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    args = ["--input", path, "--p-max-percentile", "50", "--n-tries", "10", "--warmup", "5"]
    args += ["--out-dir", str(tmp_path / "out")]
    message = (
        "smartcharge: error: p_max_percentile 50.0 caps charge point(s) with energy "
        "at 0 kW: ['CPB']\n"
    )
    for mode in ("offline", "online"):
        for cp in ([], ["--cp", "CPB"]):
            assert main(args + ["--mode", mode] + cp) == 1
            assert capsys.readouterr().err == message
        # CPA alone is unaffected
        assert main(args + ["--mode", mode, "--cp", "CPA"]) == 0
    # predict needs no power rate
    assert main(args + ["--mode", "predict"]) == 0


@pytest.mark.parametrize("mode, per_batch", [("offline", 1), ("online", 0)])
def test_one_speed_histogram_per_offline_batch(tmp_path, monkeypatch, mode, per_batch):
    # 40 chargers make two batches; online reports no speed histogram.
    # Some full-power sessions come out one ulp above p_max, and every
    # counted session is binned.
    text = synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=8, zero_energy_prob=0.3)
    cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), mode=mode, n_tries=20)
    binned = []
    counts = harness.aggregation.speed_histogram_counts

    def counting(speeds):
        binned.append(len(speeds))
        return counts(speeds)

    monkeypatch.setattr(harness.aggregation, "speed_histogram_counts", counting)
    results = {"offline": run_offline, "online": run_online}[mode](cfg)
    assert len(results.columns["cp_id"]) == 40 and len(binned) == 2 * per_batch
    if per_batch:
        assert results.speed_counts.sum() == results.columns["n_outcomes"].sum()


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_count_columns_are_integers(tmp_path, mode):
    # n_sessions and n_outcomes are int64 columns: n_sessions adds up to
    # the retained sessions, and n_outcomes to the sessions with energy that
    # a learned policy charged (offline, in the test split: the binned ones)
    text = synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=8, zero_energy_prob=0.3)
    cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), mode=mode, warmup=5)
    results = {"offline": run_offline, "online": run_online}[mode](cfg)
    c = results.columns
    assert c["n_sessions"].dtype == c["n_outcomes"].dtype == np.int64
    assert c["n_sessions"].sum() == results.cleaning.retained_sessions
    if mode == "offline":
        counted = results.speed_counts.sum()
    else:
        counted = sum(
            np.count_nonzero(log["adaptive"] & (cp.sessions.energy_kwh > 0))
            for cp, log in charger_logs(results)
        )
    assert 0 < c["n_outcomes"].sum() == counted


@pytest.mark.parametrize(
    "batch_fn, scopes",
    [(harness._offline_batch, ("test", "all")), (harness._online_batch, ("all",))],
    ids=("offline", "online"),
)
def test_a_batch_ships_pieces_not_slots(tmp_path, batch_fn, scopes):
    # a full batch's fleet arrays stay far smaller than one daily profile
    text = synth_fleet_csv(n_cps=harness.BATCH_SIZE, sessions_per_cp=8, seed=9)
    cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), n_tries=20, warmup=4)
    sessions, _ = harness.parse_sessions_path(cfg.input)
    batch, _ = harness.clean_sessions(sessions, min_sessions=cfg.min_sessions)
    assert len(batch) == harness.BATCH_SIZE
    columns, pieces, kept = batch_fn(batch, cfg)
    logged = kept.values() if isinstance(kept, dict) else [kept]
    assert all(np.size(a) < SECONDS_PER_DAY for a in [*columns.values(), *pieces.values(), *logged])
    assert set(pieces) == {(scope, s) for scope in scopes for s in harness.STRATEGIES}
    for array in pieces.values():
        assert array.ndim == 2 and array.shape[1] == 3 and len(array)


@pytest.mark.parametrize(
    "batch_fn",
    [harness._offline_batch, harness._online_batch, harness._predict_batch],
    ids=("offline", "online", "predict"),
)
def test_a_batch_sends_no_record_back(tmp_path, batch_fn):
    # a batch returns columns of plain values: its result pickles no
    # dataclass instance, and no ChargePoint or Sessions (the parent has
    # the chargers)
    text = synth_fleet_csv(n_cps=harness.BATCH_SIZE, sessions_per_cp=8, seed=9)
    cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), n_tries=20, warmup=4)
    sessions, _ = harness.parse_sessions_path(cfg.input)
    batch, _ = harness.clean_sessions(sessions, min_sessions=cfg.min_sessions)
    pickled = set()

    class Recording(pickle.Pickler):
        def persistent_id(self, obj):
            pickled.add(type(obj))

    Recording(io.BytesIO()).dump(batch_fn(batch, cfg))
    assert not [kind for kind in pickled if is_dataclass(kind)]
    assert not {ChargePoint, Sessions} & pickled


@pytest.mark.parametrize("fold_rows", [1, 2**62])
def test_folded_profiles_match_the_per_second_oracle(tmp_path, monkeypatch, fold_rows):
    # two batches' pieces, folded after each batch or once at the end,
    # give the profiles the per-second oracle makes of them all
    text = synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=9)
    cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), n_tries=20)
    shipped = {}
    offline_batch = harness._offline_batch

    def recording(batch, cfg):
        result = offline_batch(batch, cfg)
        for key, pieces in result[1].items():
            shipped.setdefault(key, []).append(pieces)
        return result

    monkeypatch.setattr(harness, "_offline_batch", recording)
    monkeypatch.setattr(harness, "_FOLD_ROWS", fold_rows)
    results = run_offline(cfg)
    for scope, profiles in (("test", results.profiles), ("all", results.profiles_all)):
        for s in harness.STRATEGIES:
            assert len(shipped[scope, s]) == 2
            want = brute_force_profile(np.concatenate(shipped[scope, s]))
            assert np.abs(profiles[s].slots - want).max() <= 1e-9 * want.max()


class FakePool:
    """An executor that records the pool size asked for and how it was shut
    down, runs each call in this process as it is submitted and starts no
    process."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))

    def submit(self, fn, /, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(FakePool, "sizes", [], raising=False)
    monkeypatch.setattr(FakePool, "shutdowns", [], raising=False)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    return FakePool


@pytest.mark.parametrize(
    "workers, cpus, pool_size", [(64, 3, 3), (2, 3, 2), (3, 3, 3), (1, 3, None), (64, 1, None)]
)
def test_pool_capped_at_the_usable_cpus(monkeypatch, fake_pool, workers, cpus, pool_size):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    with harness._worker_pool(workers) as pool:
        assert (pool is None) == (pool_size is None)
        map_calls = partial(harness._ordered_map, pool, in_flight=2 * harness._pool_size(workers))
        batches = list(harness._map_batches(len, list(range(70)), map_calls))
    assert batches == [32, 32, 6]
    assert FakePool.sizes == ([] if pool_size is None else [pool_size])
    # shut down once, waiting for the workers, with queued calls cancelled
    assert FakePool.shutdowns == ([] if pool_size is None else [(True, True)])


def test_pool_shut_down_when_a_stage_raises(monkeypatch, fake_pool):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    with pytest.raises(HarnessError):
        with harness._worker_pool(2):
            raise HarnessError("a stage failed")
    assert FakePool.shutdowns == [(True, True)]


class _RecordingThreads(ThreadPoolExecutor):
    """A thread pool that keeps each future it hands out."""

    def submit(self, fn, /, *args):
        future = super().submit(fn, *args)
        self.futures.append(future)
        return future


def _slow_after_first(k, fail):
    if k == 0 and fail:
        raise ValueError("the first call fails")
    time.sleep(0.2 * (k > 0))
    return k


@pytest.mark.parametrize("stop", ["a call raises", "closed early", "a batch raises"])
def test_ordered_map_leaves_no_call_running_when_its_consumer_stops(monkeypatch, stop):
    with _RecordingThreads(2) as pool:
        pool.futures = []
        calls = [(k, stop != "closed early") for k in range(8)]
        if stop == "a batch raises":
            # batches of one call each, all submitted at once
            monkeypatch.setattr(harness, "BATCH_SIZE", 1)
            map_calls = partial(harness._ordered_map, pool, in_flight=4)
            mapped = harness._map_batches(
                lambda batch: _slow_after_first(*batch[0]), calls, map_calls
            )
        else:
            mapped = harness._ordered_map(pool, _slow_after_first, calls, 4)
        if stop == "closed early":
            assert next(mapped) == 0
            mapped.close()
        else:
            with pytest.raises(ValueError, match="the first call fails"):
                list(mapped)
        # every call submitted has finished, or was cancelled before it began
        assert len(pool.futures) == (8 if stop == "a batch raises" else 4)
        assert all(future.done() for future in pool.futures)


@pytest.mark.parametrize("source", ["process_cpu_count", "sched_getaffinity", "cpu_count"])
def test_usable_cpus_source(monkeypatch, source):
    # process_cpu_count (Python 3.13+) first, then the affinity mask, then
    # the machine's count
    counts = {
        "process_cpu_count": lambda: 5,
        "sched_getaffinity": lambda pid: {0, 1, 2},
        "cpu_count": lambda: 7,
    }
    for name in counts:
        monkeypatch.delattr(os, name, raising=False)
    order = list(counts)
    for name in order[order.index(source):]:
        monkeypatch.setattr(os, name, counts[name], raising=False)
    expected = {"process_cpu_count": 5, "sched_getaffinity": 3, "cpu_count": 7}
    assert harness._usable_cpus() == expected[source]


class CountingPool(harness.ProcessPoolExecutor):
    """A process pool that counts the calls submitted to it."""

    submitted = 0

    def submit(self, *args, **kwargs):
        CountingPool.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize("cp, rc", [([], 0), (["--cp", "NOPE"], 1)], ids=["ran", "raised"])
def test_no_worker_outlives_a_run(tmp_path, monkeypatch, cp, rc):
    # the unknown charger raises HarnessError after clean, when the parse
    # has already used the pool
    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "submitted", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    path = write_csv(tmp_path, synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=9))
    args = ["--input", path, "--workers", "2", "--n-tries", "10", "--min-sessions", "5"]
    assert main(args + ["--out-dir", str(tmp_path / "out"), *cp]) == rc
    assert CountingPool.submitted > 0
    assert multiprocessing.active_children() == []


def test_spawned_workers_give_the_one_worker_bundles(tmp_path):
    """Workers that inherit nothing through fork (spawn; forkserver is the
    default on Linux from Python 3.14) give the bundles of one worker."""
    path = write_csv(tmp_path, synth_fleet_csv(n_cps=40, sessions_per_cp=8, seed=9))
    modes = {"offline": [], "online": ["--warmup", "4"], "predict": []}

    def args(mode, workers):
        return ["--input", path, "--mode", mode, "--workers", str(workers), "--n-tries", "10",
                "--min-sessions", "5", "--history", "5", *modes[mode],
                "--out-dir", str(tmp_path / f"{mode}-w{workers}")]

    code = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from smartcharge import cli, harness\n"
        "harness._usable_cpus = lambda: 2\n"
        f"sys.exit(max(cli.main(a) for a in {[args(mode, 2) for mode in modes]!r}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    for mode in modes:
        assert main(args(mode, 1)) == 0
        bundles = [
            {f.name: f.read_bytes() for f in (tmp_path / f"{mode}-w{w}").iterdir()} for w in (1, 2)
        ]
        # predict writes three reports, the other modes at least four
        assert len(bundles[0]) >= 4 - (mode == "predict") and bundles[0] == bundles[1], mode


def test_report_totals_add_left_to_right():
    # builtin sum() compensates from Python 3.12 on and would give 1.0
    assert repr(total([1e16, 1.0, -1e16])) == "0.0"
    assert repr(total(np.array([1e16, 1.0, -1e16]))) == "0.0"
    assert repr(total([])) == "0.0"


# a masked term, as a value and whether the sum takes it; magnitudes stay
# below 1e300, so no sum of a few terms overflows
summed_terms = st.tuples(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16, 5e-324, -5e-324, 1e300, -1e300]),
        st.floats(-1e300, 1e300),
    ),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    segments=st.lists(
        st.lists(st.tuples(summed_terms, summed_terms), max_size=8), min_size=1, max_size=6
    )
)
@example(
    segments=[
        [((1e16, True), (-0.0, True)), ((1.0, True), (-0.0, False)), ((-1e16, True), (0.0, True))],
        [],
        [((-0.0, True), (2.0, False))],
    ]
)
def test_segment_sums_add_as_report_totals(segments):
    # two rows of terms over chargers with segments[j] sessions each
    flat = [pair for segment in segments for pair in segment]
    values = np.array([[p[row][0] for p in flat] for row in (0, 1)], dtype=np.float64)
    masks = np.array([[p[row][1] for p in flat] for row in (0, 1)], dtype=bool)
    sums = harness._segment_sums(values, masks, [len(segment) for segment in segments])
    # one [row 0, row 1] pair of sums per charger
    expected = [
        [total([p[row][0] for p in segment if p[row][1]]) for row in (0, 1)]
        for segment in segments
    ]
    assert sums.shape == (len(segments), 2)
    assert repr(sums.tolist()) == repr(expected)


class TestCli:
    def test_config_keys(self):
        # each ExperimentConfig field is one option: its config key, and
        # its flag with - for _; these are today's
        assert [f.name for f in fields(ExperimentConfig)] == [
            "input",
            "mode",
            "history",
            "min_sessions",
            "max_hours",
            "seed",
            "n_tries",
            "k1",
            "k2",
            "max_loss",
            "dx_min",
            "dx_max",
            "dy_min",
            "dy_max",
            "warmup",
            "train_fraction",
            "out_dir",
            "workers",
            "cp",
            "emit_resolution",
            "cold_start",
            "p_max_percentile",
        ]

    # per option: its flag's arguments, and the config value they stand for
    OPTION_SAMPLES = {
        "input": (["--input", "other.csv"], "other.csv"),
        "mode": (["--mode", "online"], "online"),
        "history": (["--history", "7"], 7),
        "min_sessions": (["--min-sessions", "3"], 3),
        "max_hours": (["--max-hours", "30.5"], 30.5),
        "seed": (["--seed", "5"], 5),
        "n_tries": (["--n-tries", "40"], 40),
        "k1": (["--k1", "0.5"], 0.5),
        "k2": (["--k2", "4"], 4.0),
        "max_loss": (["--max-loss", "3"], 3.0),
        "dx_min": (["--dx-min", "0.05"], 0.05),
        "dx_max": (["--dx-max", "0.4"], 0.4),
        "dy_min": (["--dy-min", "0.02"], 0.02),
        "dy_max": (["--dy-max", "0.2"], 0.2),
        "warmup": (["--warmup", "10"], 10),
        "train_fraction": (["--train-fraction", "0.5"], 0.5),
        "out_dir": (["--out-dir", "elsewhere"], "elsewhere"),
        "workers": (["--workers", "2"], 2),
        "cp": (["--cp", "AN1", "--cp", "AN2"], ["AN1", "AN2"]),
        "emit_resolution": (["--emit-resolution", "60"], 60),
        "cold_start": (["--cold-start"], True),
        "p_max_percentile": (["--p-max-percentile", "50"], 50.0),
    }

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_flag_and_config_key_agree(self, tmp_path, name):
        flag_args, value = self.OPTION_SAMPLES[name]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": "data.csv", name: value}))
        from_flag = build_config(["--input", "data.csv", *flag_args])
        assert from_flag == build_config(["--config", str(cfg_path)])
        assert getattr(from_flag, name) != getattr(ExperimentConfig(input="x"), name)

    @pytest.mark.parametrize(
        "args, setting, message",
        [
            ([], {"warmup": "5"}, "warmup must be int, got '5'"),
            ([], {"cp": 5}, "cp must be tuple[str, ...], got 5"),
            (["--warmup", "-3"], {}, "warmup must be >= 0"),
            (["--mode", "bogus"], {}, "unknown mode 'bogus'"),
            (["--workers", "x"], {}, "argument --workers: invalid int value: 'x'"),
            (["--k1", "abc"], {}, "argument --k1: invalid float value: 'abc'"),
            (
                ["--history", "5.5"],
                {},
                "history must be a positive integer or 'unlimited', got '5.5'",
            ),
            (["--max-loss", "0"], {}, "max_loss must be > 0"),
            (["--bogus", "1"], {}, "unrecognized arguments: --bogus 1"),
        ],
    )
    def test_diagnostic_names_the_option(self, tmp_path, capsys, args, setting, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": "data.csv", **setting}))
        assert main(["--config", str(cfg_path), *args]) == 1
        assert capsys.readouterr().err == f"smartcharge: error: {message}\n"

    def test_config_file_and_flag_override(self, tmp_path, fleet_csv):
        config = {
            "input": fleet_csv,
            "mode": "offline",
            "history": 5,
            "seed": 3,
            "min_sessions": 5,
            "n_tries": 10,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        cfg = build_config(["--config", str(cfg_path), "--seed", "99"])
        assert cfg.seed == 99
        assert cfg.history == 5
        assert cfg.input == fleet_csv
        assert cfg.n_tries == 10

    def test_unlimited_history_flag(self, tmp_path, fleet_csv):
        cfg = build_config(["--input", fleet_csv, "--history", "unlimited"])
        assert cfg.history is None

    def test_config_only_keys(self, tmp_path, fleet_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"input": fleet_csv, "p_max_percentile": 99.0, "dy_max": 0.2})
        )
        cfg = build_config(["--config", str(cfg_path)])
        assert cfg.p_max_percentile == 99.0
        assert cfg.dy_max == 0.2

    def test_unknown_config_key_rejected(self, tmp_path, fleet_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": fleet_csv, "typo_key": 1}))
        with pytest.raises(ValueError):
            build_config(["--config", str(cfg_path)])

    @pytest.mark.parametrize("content", ["5", "null", '"x"', "[]", '["input"]'])
    def test_config_file_not_an_object_exits_1(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        assert main(["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == "smartcharge: error: config file must hold a JSON object\n"

    def test_missing_input_is_error(self):
        with pytest.raises(ValueError):
            build_config(["--mode", "offline"])

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: smartcharge")

    def test_main_success(self, tmp_path, fleet_csv, capsys):
        rc = main(
            [
                "--input", fleet_csv,
                "--mode", "offline",
                "--min-sessions", "5",
                "--n-tries", "10",
                "--history", "5",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics.txt" in out
        assert os.path.exists(tmp_path / "out" / "profiles.csv")

    def test_main_bad_input_nonzero(self, tmp_path, capsys):
        rc = main(["--input", str(tmp_path / "missing.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unreadable_csv_exits_1_with_one_line(self, tmp_path):
        # row 2 opens a quote that is never closed, so the csv module
        # stops on a field past its size limit
        row = "01/06/2017,10:00:00,01/06/2017,12:00:00,5.0,2.0"
        rows = [CSV_HEADER, f'1,"AN1,{row}'] + [f"{i},AN1,{row}" for i in range(3000)]
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        result = subprocess.run(
            [sys.executable, "-m", "smartcharge.cli", "--input", path,
             "--out-dir", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("smartcharge: error: ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_quote_open_at_the_end_exits_1_naming_its_record(self, tmp_path, capsys):
        # a quote opened in line 403's CPID would take in the 1,998 rows
        # after it, well within the csv module's field size limit
        lines = synth_fleet_csv(n_cps=6, sessions_per_cp=400, seed=1).splitlines()
        event_id, cp_id, rest = lines[402].split(",", 2)
        lines[402] = f'{event_id},"{cp_id},{rest}'
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        assert main(["--input", path, "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "smartcharge: error: unreadable CSV in lines 403-2401: a quote is never closed\n"
        )

    def test_main_unknown_cp_nonzero(self, tmp_path, fleet_csv, capsys):
        rc = main(
            [
                "--input", fleet_csv,
                "--mode", "online",
                "--min-sessions", "5",
                "--cp", "UNKNOWN",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 1

    def test_other_modes_reports_removed(self, tmp_path, fleet_csv):
        out = tmp_path / "out"
        args = ["--input", fleet_csv, "--min-sessions", "5", "--n-tries", "10"]
        args += ["--out-dir", str(out)]
        assert main(args + ["--mode", "offline"]) == 0
        assert main(args + ["--mode", "predict"]) == 0
        assert sorted(os.listdir(out)) == [
            "cleaning_report.txt", "prediction_per_cp.csv", "prediction_report.txt"
        ]
        assert main(args + ["--mode", "online", "--warmup", "5"]) == 0
        assert sorted(os.listdir(out)) == [
            "cleaning_report.txt", "metrics.txt", "outcomes.csv", "profiles.csv"
        ]

    def test_rerun_removes_stale_parse_errors(self, tmp_path, fleet_csv):
        out = tmp_path / "out"
        bad = write_csv(tmp_path, Path(fleet_csv).read_text() + "1,CP9,bad,row\n", "bad.csv")
        args = ["--mode", "predict", "--min-sessions", "5", "--out-dir", str(out)]
        assert main(["--input", bad] + args) == 0
        assert (out / "parse_errors.csv").read_text() == (
            "line_number,reason\n86,expected 8 fields; got 4\n"
        )
        assert main(["--input", fleet_csv] + args) == 0
        assert not (out / "parse_errors.csv").exists()

    @pytest.mark.parametrize("mode", ["offline", "online", "predict"])
    def test_reports_lists_every_file_a_mode_writes(self, tmp_path, fleet_csv, mode):
        # a rerun removes the reports REPORTS names, so a report missing
        # there would outlive the run that wrote it
        bad = write_csv(tmp_path, Path(fleet_csv).read_text() + "1,CP9,bad,row\n", "bad.csv")
        cfg = small_cfg(bad, str(tmp_path / "out"), mode=mode, warmup=5, n_tries=10)
        paths = harness.run(cfg)
        assert "parse_errors.csv" in paths
        assert set(paths) - {"cleaning_report.txt"} <= set(harness.REPORTS)
        assert sorted(os.listdir(cfg.out_dir)) == sorted(paths)

    @pytest.mark.parametrize(
        "setting",
        [
            {"workers": "2"},
            {"workers": True},
            {"n_tries": "5"},
            {"n_tries": 5.0},
            {"k1": "0.1"},
            {"emit_resolution": "60"},
            {"train_fraction": "0.5"},
            {"seed": "x"},
            {"history": 5.5},
            {"history": True},
            {"history": [5]},
            {"p_max_percentile": "99"},
            {"cold_start": "yes"},
            {"out_dir": 3},
            {"cp": 5},
            {"cp": ["CP001", 2]},
            # out of range
            {"history": 0},
            {"warmup": -3},
            {"workers": -2},
            {"workers": 0},
            {"min_sessions": -4},
            {"max_hours": 0},
            {"n_tries": -5},
            {"n_tries": 0},
            {"k1": -1},
            {"max_loss": 0},
            {"k1": float("nan")},
            {"k2": float("nan")},
            {"max_loss": float("nan")},
            {"k1": float("inf")},
            {"k2": float("inf")},
            {"dx_min": 0.6},
            {"dy_max": 2.0},
            {"p_max_percentile": 0},
            {"p_max_percentile": 101},
            {"emit_resolution": 7},
        ],
        ids=str,
    )
    def test_badly_typed_config_value_exits_1(self, tmp_path, fleet_csv, capsys, setting):
        cfg_path = tmp_path / "cfg.json"
        out = str(tmp_path / "out")
        cfg_path.write_text(json.dumps({"input": fleet_csv, "out_dir": out, **setting}))
        assert main(["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("smartcharge: error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bundle_independent_of_locale(self, tmp_path, fleet_csv):
        # a non-ASCII charger id, read and written under an ASCII locale
        path = tmp_path / "data.csv"
        path.write_bytes(Path(fleet_csv).read_text().replace("CP001", "CPé01").encode("utf-8"))
        args = ["--input", str(path), "--min-sessions", "5", "--n-tries", "10"]
        bundles = []
        for locale_env in ({"PYTHONUTF8": "1"}, {"PYTHONUTF8": "0", "LC_ALL": "C"}):
            out = tmp_path / f"out{len(bundles)}"
            env = {**os.environ, "PYTHONPATH": SRC, **locale_env}
            result = subprocess.run(
                [sys.executable, "-m", "smartcharge.cli", *args, "--out-dir", str(out)],
                env=env, capture_output=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            bundles.append({name: (out / name).read_bytes() for name in os.listdir(out)})
        assert bundles[0] == bundles[1]
        assert "CPé01".encode("utf-8") in bundles[0]["policies.csv"]

    def test_float_fields_accept_ints(self, tmp_path, fleet_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"input": fleet_csv, "k1": 1, "max_hours": 40, "p_max_percentile": 99})
        )
        cfg = build_config(["--config", str(cfg_path)])
        assert (cfg.k1, cfg.max_hours, cfg.p_max_percentile) == (1, 40, 99)
