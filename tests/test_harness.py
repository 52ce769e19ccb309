"""End-to-end experiment runs, report emission and the CLI."""

import json
import os

import numpy as np
import pytest

from smartcharge import harness
from smartcharge.cli import build_config, main
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

from conftest import CSV_HEADER, csv_row, synth_fleet_csv, BASE_EPOCH


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def small_cfg(input_path, out_dir, **kw):
    defaults = dict(
        input_path=input_path,
        min_sessions=5,
        n_tries=60,
        history=10,
        output_dir=out_dir,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestOffline:
    def test_report_bundle(self, tmp_path, fleet_csv):
        cfg = small_cfg(fleet_csv, str(tmp_path / "out"))
        results = run_offline(cfg)
        paths = emit_offline_reports(results, cfg.output_dir)
        for name in (
            "cleaning_report.txt",
            "profiles.csv",
            "profiles_all_sessions.csv",
            "policies.csv",
            "metrics.txt",
            "speed_histogram.csv",
        ):
            assert os.path.exists(paths[name])
        profile_lines = open(paths["profiles.csv"]).read().strip().split("\n")
        assert len(profile_lines) == 86_400 + 1
        assert profile_lines[0] == "second_of_day,raw_kw,oracle_kw,rl_kw"
        policy_lines = open(paths["policies.csv"]).read().strip().split("\n")
        assert len(policy_lines) == len(results.cp_rows) + 1

    def test_split_80_20(self, tmp_path):
        text = synth_fleet_csv(n_cps=1, sessions_per_cp=10, seed=5)
        cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"))
        results = run_offline(cfg)
        (row,) = results.cp_rows
        assert row.n_train == 8
        assert row.n_test == 2

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
        target = sum(r.target_test_kwh for r in results.cp_rows)
        delivered = sum(r.delivered_test_kwh for r in results.cp_rows)
        assert results.profiles_test["raw"].total_energy_kwh() == pytest.approx(
            target, rel=1e-6
        )
        assert results.profiles_test["oracle"].total_energy_kwh() == pytest.approx(
            target, rel=1e-6
        )
        assert results.profiles_test["rl"].total_energy_kwh() == pytest.approx(
            delivered, rel=1e-6
        )

    def test_unlimited_history_equals_full_count(self, tmp_path, fleet_csv):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        r1 = run_offline(small_cfg(fleet_csv, out1, history=None))
        r2 = run_offline(small_cfg(fleet_csv, out2, history=10_000))
        for a, b in zip(r1.cp_rows, r2.cp_rows):
            assert a.t_boost_max_hours == b.t_boost_max_hours
            assert a.p_rate == b.p_rate

    def test_empty_test_split_row_present(self, tmp_path):
        # 4 sessions: ceil(0.8 * 4) = 4 -> nothing left to test
        text = synth_fleet_csv(n_cps=1, sessions_per_cp=4, seed=2)
        cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"), min_sessions=4)
        results = run_offline(cfg)
        (row,) = results.cp_rows
        assert row.n_test == 0
        assert row.deficit_kwh == 0.0

    def test_no_usable_cp_fatal(self, tmp_path):
        rows = [CSV_HEADER]
        t = BASE_EPOCH
        for i in range(6):
            rows.append(csv_row(i, "CP0", t, "2.00", "0.0"))
            t += 10 * 3600
        cfg = small_cfg(write_csv(tmp_path, "\n".join(rows) + "\n"), str(tmp_path / "o"))
        with pytest.raises(HarnessError):
            run_offline(cfg)

    def test_deterministic_across_workers(self, tmp_path):
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
                name: open(os.path.join(out, name), "rb").read()
                for name in os.listdir(out)
            }
        assert outputs[1] == outputs[2]

    def test_per_cp_energy_sums_to_dataset_total(self, tmp_path, fleet_csv):
        from smartcharge.dataset import clean_sessions, parse_sessions_path

        cfg = small_cfg(fleet_csv, str(tmp_path / "out"))
        results = run_offline(cfg)
        # raw_effective_hours_sum is sum(energy)/p_max per charge point
        total_from_rows = sum(
            r.raw_effective_hours_sum * r.p_max_kw for r in results.cp_rows
        )
        sessions, _ = parse_sessions_path(fleet_csv)
        cps, _ = clean_sessions(sessions, min_sessions=cfg.min_sessions)
        total_energy = sum(s.energy_kwh for cp in cps for s in cp.sessions)
        assert total_from_rows == pytest.approx(total_energy, rel=1e-9)

    def test_rerun_overwrites(self, tmp_path, fleet_csv):
        out = str(tmp_path / "out")
        cfg = small_cfg(fleet_csv, out)
        results = run_offline(cfg)
        emit_offline_reports(results, out)
        first = open(os.path.join(out, "metrics.txt")).read()
        emit_offline_reports(results, out)
        assert open(os.path.join(out, "metrics.txt")).read() == first

    def test_each_session_simulated_once(self, tmp_path, monkeypatch):
        # zero-energy sessions are simulated and profiled like any other
        text = synth_fleet_csv(n_cps=5, sessions_per_cp=12, seed=8, zero_energy_prob=0.3)
        cfg = small_cfg(write_csv(tmp_path, text), str(tmp_path / "out"))
        calls = {"simulate": 0, "profile": 0}

        def counting(name, fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(harness, name, wrapper)

        counting("simulate_session", harness.simulate_session, "simulate")
        for name in ("raw_profile", "oracle_profile", "adaptive_profile"):
            counting(name, getattr(harness, name), "profile")
        results = run_offline(cfg)
        retained = sum(r.n_train + r.n_test for r in results.cp_rows)
        assert retained == results.cleaning.retained_sessions
        assert calls == {"simulate": retained, "profile": 3 * retained}

    def test_emit_resolution_downsamples(self, tmp_path, fleet_csv):
        out = str(tmp_path / "out")
        cfg = small_cfg(fleet_csv, out, emit_resolution=60)
        paths = emit_offline_reports(run_offline(cfg), out)
        lines = open(paths["profiles.csv"]).read().strip().split("\n")
        assert len(lines) == 86_400 // 60 + 1


class TestOnline:
    def make_results(self, tmp_path, **kw):
        text = synth_fleet_csv(n_cps=2, sessions_per_cp=25, seed=3)
        path = write_csv(tmp_path, text)
        cfg = small_cfg(
            path,
            str(tmp_path / "out"),
            mode="online",
            online_warmup=10,
            n_tries=40,
            **kw,
        )
        return run_online(cfg), cfg

    def test_warmup_charges_raw(self, tmp_path):
        results, _ = self.make_results(tmp_path)
        for cp in results.cp_results:
            for row in cp.rows[:10]:
                assert row.mode == "raw"
                if row.energy_kwh > 0:
                    assert row.outcome.p_eff_kw == pytest.approx(cp.p_max_kw, rel=1e-12)
                assert row.outcome.e_loss_kwh == 0.0
            assert any(r.mode == "adaptive" for r in cp.rows[10:])

    def test_outcome_log_and_profiles(self, tmp_path):
        results, cfg = self.make_results(tmp_path)
        paths = emit_online_reports(results, cfg.output_dir)
        lines = open(paths["outcomes.csv"]).read().strip().split("\n")
        assert len(lines) == 1 + sum(len(cp.rows) for cp in results.cp_results)
        assert os.path.exists(paths["profiles.csv"])
        assert os.path.exists(paths["metrics.txt"])

    def test_energy_accounting(self, tmp_path):
        results, _ = self.make_results(tmp_path)
        for cp in results.cp_results:
            delivered = sum(r.outcome.e_total_kwh for r in cp.rows)
            assert cp.deficit_kwh() == pytest.approx(
                cp.target_kwh() - delivered, abs=1e-9
            )
            assert cp.deficit_kwh() >= -1e-9
        total_rl = results.profiles["rl"].total_energy_kwh()
        delivered_all = sum(
            r.outcome.e_total_kwh for cp in results.cp_results for r in cp.rows
        )
        assert total_rl == pytest.approx(delivered_all, rel=1e-6)

    def test_cp_filter_and_missing(self, tmp_path):
        text = synth_fleet_csv(n_cps=3, sessions_per_cp=12, seed=4)
        path = write_csv(tmp_path, text)
        cfg = small_cfg(
            path, str(tmp_path / "o"), mode="online", cp_filter=("CP001",), n_tries=20
        )
        results = run_online(cfg)
        assert [cp.cp_id for cp in results.cp_results] == ["CP001"]
        bad = small_cfg(
            path, str(tmp_path / "o2"), mode="online", cp_filter=("NOPE",), n_tries=20
        )
        with pytest.raises(HarnessError):
            run_online(bad)

    def test_cold_start_differs_from_warm(self, tmp_path):
        warm, _ = self.make_results(tmp_path, seed=11)
        cold, _ = self.make_results(tmp_path, seed=11, cold_start=True)
        warm_policies = [
            (r.policy_t_boost_max, r.policy_p_rate)
            for cp in warm.cp_results
            for r in cp.rows
        ]
        cold_policies = [
            (r.policy_t_boost_max, r.policy_p_rate)
            for cp in cold.cp_results
            for r in cp.rows
        ]
        assert warm_policies != cold_policies

    def lockstep_fleet(self, tmp_path):
        # more chargers than one batch holds, and zero-energy sessions so the
        # chargers' windows differ in length at the same session index
        text = synth_fleet_csv(
            n_cps=40, sessions_per_cp=16, seed=12, zero_energy_prob=0.3
        )
        return write_csv(tmp_path, text)

    def online_bundle(self, path, out, **kw):
        cfg = small_cfg(
            path, out, mode="online", online_warmup=8, n_tries=20, seed=3, **kw
        )
        emit_online_reports(run_online(cfg), out)
        return {
            name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)
        }

    def test_deterministic_across_workers(self, tmp_path):
        path = self.lockstep_fleet(tmp_path)
        bundles = [
            self.online_bundle(path, str(tmp_path / f"w{workers}"), workers=workers)
            for workers in (1, 2)
        ]
        assert bundles[0] == bundles[1]

    def test_charger_alone_equals_charger_in_fleet(self, tmp_path):
        path = self.lockstep_fleet(tmp_path)
        fleet = self.online_bundle(path, str(tmp_path / "fleet"))
        for cp_id in ("CP000", "CP017", "CP039"):
            alone = self.online_bundle(path, str(tmp_path / cp_id), cp_filter=(cp_id,))

            def rows(bundle):
                lines = bundle["outcomes.csv"].decode().splitlines()
                return [line for line in lines if line.startswith(cp_id + ",")]

            assert len(rows(alone)) == 16
            assert rows(alone) == rows(fleet)

    def test_same_seed_reproducible(self, tmp_path):
        a, _ = self.make_results(tmp_path, seed=5)
        b, _ = self.make_results(tmp_path, seed=5)
        assert [
            (r.policy_t_boost_max, r.policy_p_rate, r.outcome)
            for cp in a.cp_results
            for r in cp.rows
        ] == [
            (r.policy_t_boost_max, r.policy_p_rate, r.outcome)
            for cp in b.cp_results
            for r in cp.rows
        ]


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
        results = run_predict(cfg)
        (row,) = results.cp_rows
        assert row.with_energy.mae < 0.02

    def test_skip_counted(self, tmp_path):
        # 4 sessions -> 3 usable rows < 4 folds
        text = synth_fleet_csv(n_cps=1, sessions_per_cp=4, seed=6)
        cfg = small_cfg(
            write_csv(tmp_path, text), str(tmp_path / "o"), mode="predict",
            min_sessions=4,
        )
        results = run_predict(cfg)
        assert results.skipped == 1
        paths = emit_predict_reports(results, cfg.output_dir)
        assert "skipped" in open(paths["prediction_report.txt"]).read()

    def test_reports(self, tmp_path, fleet_csv):
        cfg = small_cfg(fleet_csv, str(tmp_path / "out"), mode="predict")
        results = run_predict(cfg)
        paths = emit_predict_reports(results, cfg.output_dir)
        per_cp = open(paths["prediction_per_cp.csv"]).read().strip().split("\n")
        assert len(per_cp) == len(results.cp_rows) + 1
        report = open(paths["prediction_report.txt"]).read()
        assert "with energy" in report and "without energy" in report


@pytest.mark.parametrize("mode", ["offline", "online", "predict"])
def test_missing_charge_points_reported_sorted(tmp_path, fleet_csv, mode):
    cfg = small_cfg(fleet_csv, str(tmp_path / "o"), mode=mode, cp_filter=("ZZ", "AA", "CP001"))
    with pytest.raises(HarnessError, match=r"\['AA', 'ZZ'\]"):
        {"offline": run_offline, "online": run_online, "predict": run_predict}[mode](cfg)


class TestCli:
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
        assert cfg.input_path == fleet_csv
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

    def test_missing_input_is_error(self):
        with pytest.raises(ValueError):
            build_config(["--mode", "offline"])

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

    def test_rerun_removes_stale_parse_errors(self, tmp_path, fleet_csv):
        out = tmp_path / "out"
        bad = write_csv(tmp_path, open(fleet_csv).read() + "1,CP9,bad,row\n", "bad.csv")
        args = ["--mode", "predict", "--min-sessions", "5", "--out-dir", str(out)]
        assert main(["--input", bad] + args) == 0
        assert (out / "parse_errors.csv").read_text() == (
            "line_number,reason\n86,expected 8 fields; got 4\n"
        )
        assert main(["--input", fleet_csv] + args) == 0
        assert not (out / "parse_errors.csv").exists()

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

    def test_float_fields_accept_ints(self, tmp_path, fleet_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"input": fleet_csv, "k1": 1, "max_hours": 40, "p_max_percentile": 99})
        )
        cfg = build_config(["--config", str(cfg_path)])
        assert (cfg.k1, cfg.max_hours, cfg.p_max_percentile) == (1, 40, 99)
