"""Duration regression: features, least squares and cross-validation."""

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartcharge.predictor import (
    MAPE_MIN_ACTUAL_HOURS,
    PredictionMetrics,
    RegressionModel,
    _lstsq,
    cross_validate,
    extract_features,
    fit_ols,
    pool_metrics,
    prediction_metrics,
)

from conftest import BASE_EPOCH, EPOCH, Row, make_session, table


def sessions_with_gaps(gaps_hours, plugins, energies, start=BASE_EPOCH):
    sessions = []
    t = start
    for i, (gap, plugin, energy) in enumerate(zip(gaps_hours, plugins, energies)):
        t += round(gap * 3600)
        sessions.append(
            make_session(start=t, plugin_hours=plugin, energy_kwh=energy, event_id=i)
        )
        t = sessions[-1].end
    return table(sessions)


class TestExtractFeatures:
    def test_first_session_excluded(self):
        sessions = sessions_with_gaps([0, 5, 5], [2, 2, 2], [5, 5, 5])
        x, y = extract_features(sessions)
        assert len(x) == len(y) == 2

    def test_calendar_features(self):
        # 31/12/2017 23:59:23 was a Sunday
        epoch = int(
            (datetime(2017, 12, 31, 23, 59, 23) - datetime(1970, 1, 1)).total_seconds()
        )
        sessions = table([
            make_session(start=epoch - 20 * 3600, plugin_hours=1.0, event_id=1),
            make_session(start=epoch, plugin_hours=18.35, event_id=2),
        ])
        x, y = extract_features(sessions)
        (start_hour, day_of_week, _, _), = x.tolist()
        assert start_hour == 23
        assert day_of_week == 7
        assert y.tolist() == [18.35]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-3_000_000_000, max_value=4_000_000_000))
    def test_calendar_features_match_datetime(self, start):
        sessions = table([
            make_session(start=start - 7200, plugin_hours=1.0, event_id=1),
            make_session(start=start, plugin_hours=2.0, event_id=2),
        ])
        (start_hour, day_of_week, _, _), = extract_features(sessions)[0].tolist()
        reference = EPOCH + timedelta(seconds=start)
        assert start_hour == reference.hour
        assert day_of_week == reference.isoweekday()

    def test_back_to_back_zero_gap(self):
        sessions = sessions_with_gaps([0, 0], [2, 3], [5, 5])
        (_, _, hours_since_last, _), = extract_features(sessions)[0].tolist()
        assert hours_since_last == 0.0

    def test_overlapping_sessions_rejected(self):
        # a ValueError, not an assert, so the check survives `python -O`
        first = make_session(plugin_hours=5.0, event_id=1)
        second = make_session(start=first.end - 3600, plugin_hours=2.0, event_id=2)
        with pytest.raises(ValueError, match="overlap"):
            extract_features(table([first, second]))

    def test_energy_toggle(self):
        sessions = sessions_with_gaps([0, 5, 5], [2, 2, 2], [5, 6, 7])
        x_with, _ = extract_features(sessions, include_energy=True)
        x_without, _ = extract_features(sessions, include_energy=False)
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


def greedy_fit(x, y):
    """fit_ols with one rank check per column, kept column by column in
    order, and the kept columns solved by fit_ols's own least squares: the
    reference the single full-rank check must reproduce."""
    a = np.column_stack([np.ones(len(x)), x])
    kept = []
    for j in range(a.shape[1]):
        if np.linalg.matrix_rank(a[:, kept + [j]]) > len(kept):
            kept.append(j)
    beta = np.zeros(a.shape[1])
    beta[kept] = _lstsq(a[:, kept], y)
    return RegressionModel(float(beta[0]), tuple(beta[1:]))


@st.composite
def designs(draw):
    """Random designs with columns that are constant, exact combinations of
    earlier ones, or such combinations plus a small perturbation; and wide
    ones with fewer rows than columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 30))
    columns = [rng.normal(size=n_rows) * 10.0 ** rng.integers(-2, 3)]
    for kind in draw(st.lists(st.sampled_from(["new", "const", "comb", "near"]), max_size=5)):
        if kind == "new":
            columns.append(rng.normal(size=n_rows))
        elif kind == "const":
            columns.append(np.full(n_rows, rng.normal()))
        else:
            col = np.column_stack(columns) @ rng.normal(size=len(columns))
            if kind == "near":
                col = col + rng.normal(size=n_rows) * 10.0 ** rng.integers(-12, -3)
            columns.append(col)
    return np.column_stack(columns), rng.normal(size=n_rows)


class TestFitOlsAgainstGreedy:
    @settings(max_examples=200, deadline=None)
    @given(designs())
    def test_same_columns_and_coefficients(self, design):
        x, y = design
        assert fit_ols(x, y) == greedy_fit(x, y)

    def test_nearly_collinear_column_solves(self):
        # the normal equations square the condition number: on these designs
        # they were singular in floating point although matrix_rank calls
        # the design full rank
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x1 = rng.normal(size=8)
            x = np.column_stack([x1, 2 * x1 + 1e-10 * rng.normal(size=8)])
            y = rng.normal(size=8)
            a = np.column_stack([np.ones(8), x])
            assert np.linalg.matrix_rank(a) == 3
            model = fit_ols(x, y)
            residual = np.linalg.norm(y - model.predict(x))
            want = np.linalg.norm(y - a @ np.linalg.lstsq(a, y, rcond=None)[0])
            # coefficients near 1e10 leave the fitted values a few 1e-6 off
            assert residual <= want + 1e-5


@st.composite
def design_stacks(draw):
    """1 to 6 designs of one shape, each full rank, with a column that
    duplicates another, or with a constant column; a shape with fewer rows
    than columns (intercept included) makes every design in it wide."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 5))
    kinds = draw(
        st.lists(st.sampled_from(["full", "duplicate", "constant"]), min_size=1, max_size=6)
    )
    stack = rng.normal(size=(len(kinds), n_rows, n_cols)) * 10.0 ** rng.integers(-2, 3)
    for x, kind in zip(stack, kinds):
        if kind == "duplicate" and n_cols > 1:
            src, dst = rng.choice(n_cols, 2, replace=False)
            x[:, dst] = x[:, src]
        elif kind == "constant":
            x[:, rng.integers(n_cols)] = rng.normal()
    return stack, rng.normal(size=(len(kinds), n_rows))


class TestFitOlsStack:
    @settings(max_examples=300, deadline=None)
    @given(design_stacks())
    def test_each_design_fits_as_alone(self, stack):
        x, y = stack
        intercepts, coefficients = fit_ols(x, y)
        alone = [fit_ols(design, target) for design, target in zip(x, y)]
        # repr tells -0.0 from 0.0 and shows every bit of each float
        assert repr(intercepts.tolist()) == repr([m.intercept for m in alone])
        coefficients_alone = [[float(c) for c in m.coefficients] for m in alone]
        assert repr(coefficients.tolist()) == repr(coefficients_alone)

    def test_mismatched_targets_rejected(self):
        with pytest.raises(ValueError, match="matching targets"):
            fit_ols(np.ones((2, 5, 3)), np.ones((2, 4)))


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

    def test_rows_of_a_block_as_alone(self):
        # rows keeping all, some and none of their rows for MAPE
        rng = np.random.default_rng(3)
        predicted, actual = rng.uniform(0.5, 20.0, (2, 4, 37))
        actual[1, [3, 30]] = 1e-9
        actual[2] = 0.0
        block = prediction_metrics(predicted, actual)
        assert block == [prediction_metrics(p, a) for p, a in zip(predicted, actual)]
        assert [m.mape_excluded for m in block] == [0, 2, 37, 0] and block[2].mape == 0.0

    def test_pooled_unweighted_mean(self):
        a = prediction_metrics(np.array([2.0]), np.array([1.0]))
        b = prediction_metrics(np.array([1.0, 1.0]), np.array([3.0, 3.0]))
        pooled = pool_metrics([a, b])
        assert pooled.mae == pytest.approx((a.mae + b.mae) / 2)
        assert pooled.n == 3


class TestCrossValidate:
    def test_too_few_rows_skipped(self):
        sessions = sessions_with_gaps([0, 1, 2], [2, 2, 2], [5, 5, 5])
        assert cross_validate([sessions], folds=4) == [None]

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
        (metrics,) = cross_validate([table(sessions)], folds=4, include_energy=True)
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
        (with_e,) = cross_validate([table(sessions)], include_energy=True)
        (without_e,) = cross_validate([table(sessions)], include_energy=False)
        assert with_e.mae < 0.05
        assert without_e.mae > 10 * with_e.mae

    @pytest.mark.parametrize("folds", [1, 0, -1])
    def test_folds_below_two_rejected(self, folds):
        sessions = sessions_with_gaps([0, 1, 2], [2, 2, 2], [5, 5, 5])
        with pytest.raises(ValueError, match="folds"):
            cross_validate([sessions], folds=folds)


def reference_cross_validate(cp_sessions, folds, include_energy):
    """Cross-validation of one charger fold by fold, one fit_ols call per
    fold and metrics from np.mean, as it ran before chargers came in
    batches."""
    x, y = extract_features(cp_sessions, include_energy)
    if len(y) < folds:
        return None
    predicted = np.empty(len(y))
    for fold_idx in np.array_split(np.arange(len(y)), folds):
        mask = np.ones(len(y), dtype=bool)
        mask[fold_idx] = False
        predicted[fold_idx] = fit_ols(x[mask], y[mask]).predict(x[fold_idx])
    err = predicted - y
    ok = y >= MAPE_MIN_ACTUAL_HOURS
    mape = float(np.mean(np.abs(err[ok]) / y[ok]) * 100.0) if ok.any() else 0.0
    return PredictionMetrics(
        mae=float(np.mean(np.abs(err))),
        mape=mape,
        mse=float(np.mean(err**2)),
        n=len(y),
        mape_excluded=int(np.sum(~ok)),
    )


charger_histories = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, 5 * 86400),  # gap before the session, in seconds
            st.integers(1, 30 * 3600),  # its length in seconds
            st.floats(0.0, 60.0),  # energy
            # plugin hours; 1e-9 takes the MAPE-exclusion path
            st.one_of(st.just(1e-9), st.floats(0.01, 30.0)),
        ),
        min_size=1,
        max_size=14,
    ),
    min_size=1,
    max_size=8,
)


class TestCrossValidateBatch:
    """A batch mixes row counts, so several design shapes occur and some
    are shared by several chargers; n % folds != 0 gives a charger two
    training shapes, fewer rows than folds gives None, and short histories
    give designs with fewer rows than columns."""

    @settings(max_examples=200, deadline=None)
    @given(charger_histories, st.integers(2, 5), st.booleans())
    def test_each_charger_validates_as_alone(self, chains, folds, include_energy):
        histories = []
        for k, chain in enumerate(chains):
            rows, t = [], BASE_EPOCH
            for i, (gap, length, energy, plugin) in enumerate(chain):
                t += gap
                rows.append(Row(i, f"CP{k}", t, t + length, energy, plugin))
                t += length
            histories.append(table(rows))
        batch = cross_validate(histories, folds, include_energy)
        assert batch == [cross_validate([h], folds, include_energy)[0] for h in histories]
        assert batch == [reference_cross_validate(h, folds, include_energy) for h in histories]

    @pytest.mark.parametrize("seed", range(4))
    def test_long_histories_validate_as_alone(self, seed):
        # 8-40 chargers of 20-150 sessions, lengths drawn from a few so that
        # blocks of equal length hold several chargers: the stacks reach the
        # row counts at which a stack of items that are not C-contiguous
        # rounded apart from the 2-D products.  Charger 0 has a 1e-9 h
        # session (excluded from MAPE) and charger 1 constant gaps (a
        # rank-deficient design).
        rng = np.random.default_rng(seed)
        lengths = rng.choice(rng.integers(20, 151, size=6), size=int(rng.integers(8, 41)))
        histories = []
        for k, n in enumerate(lengths.tolist()):
            gaps = np.full(n, 7200) if k == 1 else rng.integers(0, 5 * 86400, n)
            seconds = rng.integers(1, 30 * 3600, n)
            plugin = seconds / 3600.0
            plugin[n // 2] = 1e-9 if k == 0 else plugin[n // 2]
            energy = rng.uniform(0.0, 60.0, n)
            ends = BASE_EPOCH + np.cumsum(gaps + seconds)
            columns = zip(ends - seconds, ends, energy.tolist(), plugin.tolist())
            histories.append(table([Row(i, f"CP{k}", *c) for i, c in enumerate(columns)]))
        for folds, include_energy in ((4, True), (4, False), (5, True)):
            batch = cross_validate(histories, folds, include_energy)
            assert batch == [cross_validate([h], folds, include_energy)[0] for h in histories]
            assert batch == [reference_cross_validate(h, folds, include_energy) for h in histories]
            assert batch[0].mape_excluded == 1
        assert len(set(lengths.tolist())) < len(lengths)


# ---------------------------------------------------------------------------
# Reference: the feature rows built one session at a time, as they were
# before sessions became columns.  The column arithmetic must reproduce them.


@dataclass(frozen=True)
class FeatureVector:
    """Predictors for one session (the first session of a charger has no
    predecessor and is excluded)."""

    start_hour: int
    day_of_week: int
    hours_since_last: float
    energy_kwh: float

    def as_array(self, include_energy: bool) -> np.ndarray:
        base = [self.start_hour, self.day_of_week, self.hours_since_last]
        if include_energy:
            base.append(self.energy_kwh)
        return np.array(base, dtype=np.float64)


def reference_extract_features(cp_sessions, include_energy=True):
    rows = []
    prev_end = None
    for s in cp_sessions:
        if prev_end is not None:
            gap_h = (s.start - prev_end) / 3600.0
            if gap_h < 0:
                raise ValueError("sessions overlap; run cleaning first")
            rows.append(
                (
                    FeatureVector(
                        start_hour=s.start // 3600 % 24,
                        # 1970-01-01 was a Thursday, ISO weekday 4
                        day_of_week=(s.start // 86400 + 3) % 7 + 1,
                        hours_since_last=gap_h,
                        energy_kwh=s.energy_kwh,
                    ),
                    s.plugin_hours,
                )
            )
        prev_end = s.end
    return rows


def reference_design_matrix(rows, include_energy):
    x = np.array([fv.as_array(include_energy) for fv, _ in rows], dtype=np.float64)
    y = np.array([target for _, target in rows], dtype=np.float64)
    return x, y


chained_sessions = st.lists(
    st.tuples(
        st.integers(0, 40 * 86400),  # gap before the session, in seconds
        st.integers(1, 60 * 3600),  # its length in seconds
        st.one_of(st.just(0.0), st.floats(0.0, 80.0)),
        st.floats(0.01, 60.0),  # plugin hours
    ),
    min_size=2,
    max_size=30,
)


class TestFeaturesAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3_000_000_000, 4_000_000_000), chained_sessions, st.booleans())
    def test_same_matrix_and_targets(self, t, chain, include_energy):
        sessions = []
        for i, (gap, length, energy, plugin) in enumerate(chain):
            t += gap
            sessions.append(Row(i, "CP", t, t + length, energy, plugin))
            t += length
        x, y = extract_features(table(sessions), include_energy)
        ref_x, ref_y = reference_design_matrix(
            reference_extract_features(sessions), include_energy
        )
        # compared by repr, value by value
        assert list(map(repr, x.ravel().tolist())) == list(map(repr, ref_x.ravel().tolist()))
        assert list(map(repr, y.tolist())) == list(map(repr, ref_y.tolist()))
        assert x.shape == ref_x.shape and x.dtype == ref_x.dtype and y.dtype == ref_y.dtype
