"""Duration regression: features, least squares and cross-validation."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartcharge.predictor import (
    cross_validate,
    design_matrix,
    extract_features,
    fit_ols,
    pool_metrics,
    prediction_metrics,
)

from conftest import BASE_EPOCH, EPOCH, make_session


def sessions_with_gaps(gaps_hours, plugins, energies, start=BASE_EPOCH):
    sessions = []
    t = start
    for i, (gap, plugin, energy) in enumerate(zip(gaps_hours, plugins, energies)):
        t += round(gap * 3600)
        sessions.append(
            make_session(start=t, plugin_hours=plugin, energy_kwh=energy, event_id=i)
        )
        t = sessions[-1].end
    return sessions


class TestExtractFeatures:
    def test_first_session_excluded(self):
        sessions = sessions_with_gaps([0, 5, 5], [2, 2, 2], [5, 5, 5])
        rows = extract_features(sessions)
        assert len(rows) == 2

    def test_calendar_features(self):
        # 31/12/2017 23:59:23 was a Sunday
        epoch = int(
            (datetime(2017, 12, 31, 23, 59, 23) - datetime(1970, 1, 1)).total_seconds()
        )
        sessions = [
            make_session(start=epoch - 20 * 3600, plugin_hours=1.0, event_id=1),
            make_session(start=epoch, plugin_hours=18.35, event_id=2),
        ]
        (fv, target), = extract_features(sessions)
        assert fv.start_hour == 23
        assert fv.day_of_week == 7
        assert target == 18.35

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-3_000_000_000, max_value=4_000_000_000))
    def test_calendar_features_match_datetime(self, start):
        sessions = [
            make_session(start=start - 7200, plugin_hours=1.0, event_id=1),
            make_session(start=start, plugin_hours=2.0, event_id=2),
        ]
        (fv, _), = extract_features(sessions)
        reference = EPOCH + timedelta(seconds=start)
        assert fv.start_hour == reference.hour
        assert fv.day_of_week == reference.isoweekday()

    def test_back_to_back_zero_gap(self):
        sessions = sessions_with_gaps([0, 0], [2, 3], [5, 5])
        (fv, _), = extract_features(sessions)
        assert fv.hours_since_last == 0.0

    def test_overlapping_sessions_rejected(self):
        # a ValueError, not an assert, so the check survives `python -O`
        first = make_session(plugin_hours=5.0, event_id=1)
        second = make_session(start=first.end - 3600, plugin_hours=2.0, event_id=2)
        with pytest.raises(ValueError, match="overlap"):
            extract_features([first, second])

    def test_energy_toggle(self):
        sessions = sessions_with_gaps([0, 5, 5], [2, 2, 2], [5, 6, 7])
        rows = extract_features(sessions)
        x_with, _ = design_matrix(rows, include_energy=True)
        x_without, _ = design_matrix(rows, include_energy=False)
        assert x_with.shape[1] == 4
        assert x_without.shape[1] == 3


class TestFitOls:
    def test_exact_line(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = 2.0 + 3.0 * x[:, 0]
        model = fit_ols(x, y)
        assert model.intercept == pytest.approx(2.0, abs=1e-10)
        assert model.coefficients[0] == pytest.approx(3.0, abs=1e-10)
        assert np.allclose(model.predict(x), y, atol=1e-10)

    def test_constant_targets(self):
        x = np.random.default_rng(0).normal(size=(30, 3))
        y = np.full(30, 5.5)
        model = fit_ols(x, y)
        assert model.intercept == pytest.approx(5.5, abs=1e-9)
        assert np.allclose(model.coefficients, 0.0, atol=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        model = fit_ols(x, y)
        a = np.column_stack([np.ones(20), x])
        beta = np.linalg.solve(a.T @ a, a.T @ y)
        got = np.array([model.intercept, *model.coefficients])
        assert np.allclose(got, beta, rtol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 4)) * [1, 10, 0.1, 100]
        y = rng.normal(size=50) * 5 + 3
        model = fit_ols(x, y)
        resid = y - model.predict(x)
        scale = np.linalg.norm(y)
        assert abs(resid.sum()) <= 1e-8 * scale * len(y)
        for j in range(4):
            assert abs(resid @ x[:, j]) <= 1e-8 * scale * np.linalg.norm(x[:, j])

    def test_collinear_column_dropped(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(40, 2))
        x = np.column_stack([base, base[:, 0] * 2.0])  # third = 2 * first
        y = 1.0 + base @ [2.0, -1.0]
        model = fit_ols(x, y)
        assert model.coefficients[2] == 0.0
        assert np.allclose(model.predict(x), y, atol=1e-8)

    def test_constant_feature_duplicating_intercept(self):
        x = np.column_stack([np.full(20, 3.0), np.arange(20.0)])
        y = 5.0 + 2.0 * x[:, 1]
        model = fit_ols(x, y)
        assert model.coefficients[0] == 0.0  # collinear with the intercept
        assert np.allclose(model.predict(x), y, atol=1e-8)


class TestMetrics:
    def test_formulas(self):
        m = prediction_metrics(np.array([2.0, 4.0]), np.array([1.0, 4.0]))
        assert m.mae == 0.5
        assert m.mse == 0.5
        assert m.mape == 50.0
        assert m.n == 2

    def test_perfect(self):
        m = prediction_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert (m.mae, m.mape, m.mse) == (0.0, 0.0, 0.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(1, 10, size=50)
        act = rng.uniform(1, 10, size=50)
        m1 = prediction_metrics(pred, act)
        perm = rng.permutation(50)
        m2 = prediction_metrics(pred[perm], act[perm])
        assert m1.mae == pytest.approx(m2.mae, rel=1e-12)
        assert m1.mape == pytest.approx(m2.mape, rel=1e-12)
        assert m1.mse == pytest.approx(m2.mse, rel=1e-12)

    def test_near_zero_actual_excluded_from_mape_only(self):
        m = prediction_metrics(np.array([2.0, 1.0]), np.array([1.0, 1e-9]))
        assert m.mape == 100.0
        assert m.mape_excluded == 1
        assert m.mae == pytest.approx((1.0 + (1.0 - 1e-9)) / 2)
        assert m.n == 2

    def test_pooled_unweighted_mean(self):
        a = prediction_metrics(np.array([2.0]), np.array([1.0]))
        b = prediction_metrics(np.array([1.0, 1.0]), np.array([3.0, 3.0]))
        pooled = pool_metrics([a, b])
        assert pooled.mae == pytest.approx((a.mae + b.mae) / 2)
        assert pooled.n == 3


class TestCrossValidate:
    def test_too_few_rows_skipped(self):
        sessions = sessions_with_gaps([0, 1, 2], [2, 2, 2], [5, 5, 5])
        assert cross_validate(sessions, folds=4) is None

    def test_linear_cp_recovered(self):
        # plugin duration is an exact linear function of the features, so
        # every fold's held-out predictions should be near-perfect
        rng = np.random.default_rng(12)
        sessions = []
        t = BASE_EPOCH
        for i in range(40):
            gap = float(rng.uniform(0.0, 30.0))
            energy = float(rng.uniform(1.0, 50.0))
            t += round(gap * 3600)
            dt = EPOCH + timedelta(seconds=t)
            plugin = 1.0 + 0.05 * dt.hour + 0.1 * dt.isoweekday() + 0.02 * gap + 0.03 * energy
            s = make_session(
                start=t, plugin_hours=plugin, energy_kwh=energy, event_id=i
            )
            sessions.append(s)
            t = s.end
        metrics = cross_validate(sessions, folds=4, include_energy=True)
        assert metrics.n == 39
        assert metrics.mae < 0.02
        assert metrics.mse < 0.01

    def test_without_energy_feature_degrades_linear_fit(self):
        rng = np.random.default_rng(13)
        sessions = []
        t = BASE_EPOCH
        for i in range(60):
            gap = float(rng.uniform(0.0, 10.0))
            energy = float(rng.uniform(1.0, 50.0))
            t += round(gap * 3600)
            plugin = 1.0 + 0.5 * energy
            s = make_session(
                start=t, plugin_hours=plugin, energy_kwh=energy, event_id=i
            )
            sessions.append(s)
            t = s.end
        with_e = cross_validate(sessions, include_energy=True)
        without_e = cross_validate(sessions, include_energy=False)
        assert with_e.mae < 0.05
        assert without_e.mae > 10 * with_e.mae
