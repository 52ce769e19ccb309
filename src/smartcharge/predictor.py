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

from .dataset import Sessions

MAPE_MIN_ACTUAL_HOURS = 1e-6


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
    cp_sessions: Sessions, include_energy: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The design matrix and targets: one row per session after the first
    (it has no predecessor), with columns start hour, ISO day of week, hours
    since the previous session ended and, if include_energy, the dispensed
    energy; the target is the plugin duration."""
    start = cp_sessions.start[1:]
    gap_h = (start - cp_sessions.end[:-1]) / 3600.0
    if (gap_h < 0).any():
        raise ValueError("sessions overlap; run cleaning first")
    # 1970-01-01 was a Thursday, ISO weekday 4
    columns = [start // 3600 % 24, (start // 86400 + 3) % 7 + 1, gap_h]
    if include_energy:
        columns.append(cp_sessions.energy_kwh[1:])
    return np.column_stack(columns), cp_sessions.plugin_hours[1:]


def _lstsq(a: np.ndarray, y: np.ndarray) -> tuple[bool, np.ndarray]:
    """One SVD of a: whether a has full column rank, by matrix_rank's
    tolerance, and the least-squares solution of a @ beta = y over the
    singular values above that tolerance."""
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero(sv > sv.max() * max(a.shape) * np.finfo(sv.dtype).eps))
    beta = vt[:rank].T @ (u[:, :rank].T @ y / sv[:rank])
    return rank == a.shape[1], beta


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
    full_rank, beta = _lstsq(a, y)
    # every column subset of a full-rank design is full rank, so the
    # greedy search would keep them all
    if not full_rank:
        kept: list[int] = []
        for j in range(a.shape[1]):
            if np.linalg.matrix_rank(a[:, kept + [j]]) > len(kept):
                kept.append(j)
        beta = np.zeros(a.shape[1])
        beta[kept] = _lstsq(a[:, kept], y)[1]
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
    cp_sessions: Sessions,
    folds: int = 4,
    include_energy: bool = True,
) -> PredictionMetrics | None:
    """Chronologically contiguous k-fold cross-validation of one charger.

    Each fold is predicted by a model trained on the remaining rows and the
    metrics are pooled over all rows.  Returns None when the charger has
    fewer usable rows than folds (callers count those as skipped).
    """
    x, y = extract_features(cp_sessions, include_energy)
    if len(y) < folds:
        return None
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
