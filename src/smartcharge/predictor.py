"""Plugin-duration prediction by per-charger linear regression.

Features per session: start hour, day of week, hours since the previous
session ended, and optionally the dispensed energy (toggled, because for
top-up sessions that amount is only known once the session ends).  Each
charge point is cross-validated on its own history with chronologically
contiguous folds; dataset-level accuracy is the unweighted mean over
charge points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Session

MAPE_MIN_ACTUAL_HOURS = 1e-6


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


@dataclass(frozen=True)
class RegressionModel:
    intercept: float
    coefficients: tuple[float, ...]

    def predict(self, features: np.ndarray) -> np.ndarray:
        coef = np.asarray(self.coefficients, dtype=np.float64)
        return np.asarray(features, dtype=np.float64) @ coef + self.intercept


@dataclass(frozen=True)
class PredictionMetrics:
    mae: float
    mape: float
    mse: float
    n: int
    mape_excluded: int = 0


def extract_features(
    cp_sessions: Sequence[Session], include_energy: bool = True
) -> list[tuple[FeatureVector, float]]:
    """One (features, plugin_hours) row per session after the first.

    include_energy only affects which columns as_array() later emits; the
    energy value is always carried so both variants can share one pass.
    """
    rows: list[tuple[FeatureVector, float]] = []
    prev_end: int | None = None
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


def design_matrix(
    rows: Sequence[tuple[FeatureVector, float]], include_energy: bool
) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([fv.as_array(include_energy) for fv, _ in rows], dtype=np.float64)
    y = np.array([target for _, target in rows], dtype=np.float64)
    return x, y


def fit_ols(x: np.ndarray, y: np.ndarray) -> RegressionModel:
    """Least-squares fit with an intercept.

    Collinear columns are dropped (their coefficient is 0), chosen greedily
    in column order with the intercept always kept, so a rank-deficient
    design degrades cleanly down to a constant model at the target mean.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y) or len(y) == 0:
        raise ValueError("need a non-empty 2-D design and matching targets")

    a = np.column_stack([np.ones(len(x)), x])
    kept: list[int] = []
    for j in range(a.shape[1]):
        candidate = a[:, kept + [j]]
        if np.linalg.matrix_rank(candidate) > len(kept):
            kept.append(j)

    a_kept = a[:, kept]
    beta_kept = np.linalg.solve(a_kept.T @ a_kept, a_kept.T @ y)
    beta = np.zeros(a.shape[1])
    beta[kept] = beta_kept
    return RegressionModel(intercept=float(beta[0]), coefficients=tuple(beta[1:]))


def prediction_metrics(
    predicted: np.ndarray, actual: np.ndarray
) -> PredictionMetrics:
    """MAE / MAPE / MSE of pooled predictions.  Rows with near-zero actual
    duration are excluded from MAPE only (the ratio is unbounded there) and
    counted separately."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    err = predicted - actual
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err**2))
    ok = actual >= MAPE_MIN_ACTUAL_HOURS
    excluded = int(np.sum(~ok))
    if np.any(ok):
        mape = float(np.mean(np.abs(err[ok]) / actual[ok]) * 100.0)
    else:
        mape = 0.0
    return PredictionMetrics(
        mae=mae, mape=mape, mse=mse, n=len(actual), mape_excluded=excluded
    )


def cross_validate(
    cp_sessions: Sequence[Session],
    folds: int = 4,
    include_energy: bool = True,
) -> PredictionMetrics | None:
    """Chronologically contiguous k-fold cross-validation of one charger.

    Each fold is predicted by a model trained on the remaining rows and the
    metrics are pooled over all rows.  Returns None when the charger has
    fewer usable rows than folds (callers count those as skipped).
    """
    rows = extract_features(cp_sessions)
    if len(rows) < folds:
        return None
    x, y = design_matrix(rows, include_energy)
    predicted = np.empty(len(y))
    for fold_idx in np.array_split(np.arange(len(y)), folds):
        mask = np.ones(len(y), dtype=bool)
        mask[fold_idx] = False
        model = fit_ols(x[mask], y[mask])
        predicted[fold_idx] = model.predict(x[fold_idx])
    return prediction_metrics(predicted, y)


def pool_metrics(per_cp: Sequence[PredictionMetrics]) -> PredictionMetrics:
    """Dataset-level accuracy: unweighted mean over charge points."""
    if not per_cp:
        raise ValueError("no per-charge-point metrics to pool")
    return PredictionMetrics(
        mae=float(np.mean([m.mae for m in per_cp])),
        mape=float(np.mean([m.mape for m in per_cp])),
        mse=float(np.mean([m.mse for m in per_cp])),
        n=int(sum(m.n for m in per_cp)),
        mape_excluded=int(sum(m.mape_excluded for m in per_cp)),
    )
