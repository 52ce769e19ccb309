"""Plugin-duration prediction by per-charger linear regression.

Features per session: start hour, day of week, hours since the previous
session ended, and optionally the dispensed energy (toggled, because for
top-up sessions that amount is only known once the session ends).  Each
charge point is cross-validated on its own history with chronologically
contiguous folds; dataset-level accuracy is the unweighted mean over
charge points.

Cross-validation takes a batch of chargers.  Their training designs, over
every charger and every fold, are grouped by shape, never padded, and each
group is solved by one stacked SVD; each charger still gets exactly the
metrics it would get alone.
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


def _ranks(sv: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The rank of each design of the given shape from its singular values
    (the last axis of sv), by matrix_rank's tolerance."""
    tol = sv.max(axis=-1, keepdims=True) * max(shape[-2:]) * np.finfo(sv.dtype).eps
    return np.count_nonzero(sv > tol, axis=-1)


def _lstsq(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The least-squares solution of a @ beta = y, from one SVD of a, over
    the singular values above matrix_rank's tolerance."""
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(_ranks(sv, a.shape))
    return vt[:rank].T @ (u[:, :rank].T @ y / sv[:rank])


def _greedy_beta(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The least-squares solution over the columns of a kept greedily in
    column order, each kept only if it raises the rank; the rest get 0."""
    kept: list[int] = []
    for j in range(a.shape[1]):
        if np.linalg.matrix_rank(a[:, kept + [j]]) > len(kept):
            kept.append(j)
    beta = np.zeros(a.shape[1])
    beta[kept] = _lstsq(a[:, kept], y)
    return beta


def _fit_stack(x: np.ndarray, y: np.ndarray) -> list[RegressionModel]:
    """fit_ols over a (k, m, f) stack of designs with (k, m) targets.

    One SVD call factors the whole stack, and LAPACK factors each design
    in it exactly as it would alone.  The products stay per design (2-D @
    1-D), because a stacked matmul may round differently.
    """
    a = np.concatenate([np.ones((*x.shape[:2], 1)), x], axis=2)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    # full rank is a rank equal to the column count: a design with fewer
    # rows than columns has fewer singular values than that
    full_rank = _ranks(sv, a.shape) == a.shape[2]
    models = []
    for i in range(len(a)):
        # every column subset of a full-rank design is full rank, so the
        # greedy search would keep them all
        if full_rank[i]:
            beta = vt[i].T @ (u[i].T @ y[i] / sv[i])
        else:
            beta = _greedy_beta(a[i], y[i])
        models.append(
            RegressionModel(intercept=float(beta[0]), coefficients=tuple(beta[1:]))
        )
    return models


def fit_ols(x: np.ndarray, y: np.ndarray) -> RegressionModel | list[RegressionModel]:
    """Least-squares fit with an intercept: of one (m, f) design with m
    targets, or of each design in a (k, m, f) stack with (k, m) targets,
    which returns one model per design, each the model it gets alone.

    Collinear columns are dropped (their coefficient is 0), chosen greedily
    in column order with the intercept always kept, so a rank-deficient
    design degrades cleanly down to a constant model at the target mean.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim not in (2, 3) or y.shape != x.shape[:-1] or y.shape[-1] == 0:
        raise ValueError(
            "need a non-empty 2-D design, or a stack of them, and matching targets"
        )
    if x.ndim == 2:
        return _fit_stack(x[None], y[None])[0]
    return _fit_stack(x, y)


def prediction_metrics(
    predicted: np.ndarray, actual: np.ndarray
) -> PredictionMetrics:
    """MAE / MAPE / MSE of pooled predictions.  Rows with near-zero actual
    duration are excluded from MAPE only (the ratio is unbounded there) and
    counted separately."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    # sum() / count is np.mean's own arithmetic, without its call overhead
    n = len(actual)
    err = predicted - actual
    mae = float(np.abs(err).sum() / n)
    mse = float((err**2).sum() / n)
    ok = actual >= MAPE_MIN_ACTUAL_HOURS
    kept = int(np.count_nonzero(ok))
    if kept:
        mape = float((np.abs(err[ok]) / actual[ok]).sum() / kept * 100.0)
    else:
        mape = 0.0
    return PredictionMetrics(mae=mae, mape=mape, mse=mse, n=n, mape_excluded=n - kept)


def cross_validate(
    histories: Sequence[Sessions],
    folds: int = 4,
    include_energy: bool = True,
) -> list[PredictionMetrics | None]:
    """Chronologically contiguous k-fold cross-validation of each charger in
    a batch, each exactly as if validated alone.

    Each fold is predicted by a model trained on the remaining rows and the
    metrics are pooled over all the charger's rows.  A charger with fewer
    usable rows than folds gets None (callers count those as skipped).

    Every training design with the same row count, from any charger and any
    fold, is fit in one fit_ols call.
    """
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    features = [extract_features(h, include_energy) for h in histories]
    predicted: list[np.ndarray | None] = [None] * len(features)
    # training rows -> (charger, fold starts, fold size) of the designs with
    # that many, and the designs and targets, stacked in that order
    by_rows: dict[int, tuple[list, list, list]] = {}
    for c, (x, y) in enumerate(features):
        n = len(y)
        if n < folds:
            continue
        predicted[c] = np.empty(n)
        # np.array_split's folds: the first n % folds hold one row more
        q, r = divmod(n, folds)
        starts = np.arange(folds) * q + np.minimum(np.arange(folds), r)
        for size in (q + 1, q) if r else (q,):
            los = starts[:r] if size > q else starts[r:]
            # training row j of the fold at lo is row j, or j + size past lo
            m = n - size
            train = np.arange(m)
            idx = train + size * (train >= los[:, None])
            owners, xs, ys = by_rows.setdefault(m, ([], [], []))
            owners.append((c, los, size))
            xs.append(x[idx])
            ys.append(y[idx])

    for owners, xs, ys in by_rows.values():
        models = iter(fit_ols(np.concatenate(xs), np.concatenate(ys)))
        for c, los, size in owners:
            x = features[c][0]
            for lo in los:
                predicted[c][lo:lo + size] = next(models).predict(x[lo:lo + size])

    return [
        None if p is None else prediction_metrics(p, y)
        for p, (_, y) in zip(predicted, features)
    ]


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
