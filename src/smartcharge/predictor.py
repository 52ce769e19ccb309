"""Plugin-duration prediction by per-charger linear regression.

Features per session: start hour, day of week, hours since the previous
session ended, and optionally the dispensed energy (toggled, because for
top-up sessions that amount is only known once the session ends).  Each
charge point is cross-validated on its own history with chronologically
contiguous folds; dataset-level accuracy is the unweighted mean over
charge points.

Cross-validation takes a batch of chargers, and no step of it runs once
per fold (see cross_validate); each charger still gets exactly the metrics
it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace
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
    energy; the target is the plugin duration.  Any object with those
    Sessions columns will do: (k, n) columns, k chargers' histories, give a
    (k, n - 1, f) stack and (k, n - 1) targets."""
    start = cp_sessions.start[..., 1:]
    gap_h = (start - cp_sessions.end[..., :-1]) / 3600.0
    if (gap_h < 0).any():
        raise ValueError("sessions overlap; run cleaning first")
    # 1970-01-01 was a Thursday, ISO weekday 4
    columns = [start // 3600 % 24, (start // 86400 + 3) % 7 + 1, gap_h]
    if include_energy:
        columns.append(cp_sessions.energy_kwh[..., 1:])
    return np.stack(columns, axis=-1), cp_sessions.plugin_hours[..., 1:]


def _ranks(sv: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The rank of each design of the given shape from its singular values
    (the last axis of sv), by matrix_rank's tolerance."""
    tol = sv.max(axis=-1, keepdims=True) * max(shape[-2:]) * np.finfo(sv.dtype).eps
    return (sv > tol).sum(axis=-1)


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


def _fit_stack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fit_ols's (k, 1 + f) intercepts and coefficients of a (k, m, f) stack:
    one SVD call factors each design as LAPACK factors it alone, and a matmul
    over a stack runs each item's own 2-D @ 1-D gemv only when every item is
    C-contiguous (or its transpose); else numpy may skip BLAS and round apart."""
    a = np.concatenate([np.ones((*x.shape[:2], 1)), x], axis=2)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    # full rank is a rank equal to the column count: a design with fewer
    # rows than columns has fewer singular values than that
    full = _ranks(sv, a.shape) == a.shape[2]
    beta = np.empty((len(a), a.shape[2]))
    # every column subset of a full-rank design is full rank, so the
    # greedy search would keep them all; a slice takes them all uncopied
    rows = slice(None) if full.all() else full
    w = np.matmul(u[rows].swapaxes(1, 2), y[rows, :, None]) / sv[rows, :, None]
    beta[rows] = np.matmul(vt[rows].swapaxes(1, 2), w)[..., 0]
    for i in (~full).nonzero()[0]:
        beta[i] = _greedy_beta(a[i], y[i])
    return beta


def fit_ols(x: np.ndarray, y: np.ndarray) -> RegressionModel | tuple[np.ndarray, np.ndarray]:
    """Least-squares fit with an intercept: of one (m, f) design with m
    targets, or of each design in a (k, m, f) stack with (k, m) targets as
    columns, (k,) intercepts and (k, f) coefficients, each as it fits alone.

    Collinear columns are dropped (their coefficient is 0), chosen greedily
    in column order with the intercept always kept, so a rank-deficient
    design degrades cleanly down to a constant model at the target mean.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim not in (2, 3) or y.shape != x.shape[:-1] or y.shape[-1] == 0:
        raise ValueError(
            "need a non-empty 2-D design, or a stack of them, and matching targets"
        )
    beta = _fit_stack(x[None], y[None]) if x.ndim == 2 else _fit_stack(x, y)
    if x.ndim == 3:
        return beta[:, 0], beta[:, 1:]
    return RegressionModel(intercept=float(beta[0, 0]), coefficients=tuple(beta[0, 1:]))


def prediction_metrics(
    predicted: np.ndarray, actual: np.ndarray
) -> PredictionMetrics | list[PredictionMetrics]:
    """MAE / MAPE / MSE of pooled (n,) predictions, or of each row of (k, n)
    blocks, as a list.  Rows with near-zero actual duration are excluded
    from MAPE only (the ratio is unbounded there) and counted separately."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if actual.ndim == 1:
        return prediction_metrics(predicted[None], actual[None])[0]
    # sum() / count is np.mean's own arithmetic, without its call overhead,
    # and a sum along the last axis adds each row as that row adds alone
    n = actual.shape[1]
    err = predicted - actual
    abs_err = np.abs(err)
    ok = actual >= MAPE_MIN_ACTUAL_HOURS
    kept = ok.sum(axis=1)
    ratio = np.divide(abs_err, actual, out=np.zeros(err.shape), where=ok)
    mape = ratio.sum(axis=1) / n * 100.0
    # a row that keeps only some of its rows (none: a MAPE of 0) sums those
    for i in ((kept > 0) & (kept < n)).nonzero()[0]:
        mape[i] = ratio[i, ok[i]].sum() / kept[i] * 100.0
    mae, mse = abs_err.sum(axis=1) / n, (err**2).sum(axis=1) / n
    columns = (mae.tolist(), mape.tolist(), mse.tolist(), [n] * len(err), (n - kept).tolist())
    return list(map(PredictionMetrics, *columns))


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

    Chargers of equal length are a block, with one extract_features and one
    prediction_metrics call.  Training designs of equal row count, from any
    block and fold, are stacked and fit in one fit_ols call, whose models
    predict each block's held-out folds of one size in one matmul; the stack
    is built only when its turn comes, and dropped after it.
    """
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    by_length: dict[int, list[int]] = {}
    for c, h in enumerate(histories):
        by_length.setdefault(len(h), []).append(c)
    blocks = []  # (chargers, predictions, targets) of each block
    # training rows -> (features, targets, predictions, training rows, first
    # held-out row) of each block's folds of one size that train on that many
    by_rows: dict[int, list[tuple]] = {}
    for group in by_length.values():
        # the block's (k, length) stack of each column extract_features reads
        block = {
            name: np.array([getattr(histories[c], name) for c in group])
            for name in ("start", "end", "energy_kwh", "plugin_hours")
        }
        x, y = extract_features(SimpleNamespace(**block), include_energy)
        n = y.shape[1]
        if n < folds:
            continue
        blocks.append((group, np.empty(y.shape), y))
        # np.array_split's folds: the first n % folds hold one row more
        q, r = divmod(n, folds)
        starts = np.arange(folds) * q + np.minimum(np.arange(folds), r)
        for size in (q + 1, q) if r else (q,):
            los = starts[:r] if size > q else starts[r:]
            # training row j of the fold at lo is row j, or j + size past lo
            m = n - size
            train = np.arange(m) + size * (np.arange(m) >= los[:, None])
            by_rows.setdefault(m, []).append((x, y, blocks[-1][1], train, los[0]))

    for m in list(by_rows):
        entries = by_rows.pop(m)
        # the stacks, built only now and C-contiguous: take fills each
        # entry's (charger, fold) designs in turn (clip, unlike the default
        # raise, writes out unbuffered; every index is in range)
        ends = list(accumulate(len(x) * len(train) for x, _, _, train, _ in entries))
        xs = np.empty((ends[-1], m, entries[0][0].shape[2]))
        ys = np.empty((ends[-1], m))
        for (x, y, _, train, _), start, end in zip(entries, [0] + ends, ends):
            into = xs[start:end].reshape(len(x), len(train), m, -1)
            x.take(train, axis=1, out=into, mode="clip")
            y.take(train, axis=1, out=ys[start:end].reshape(into.shape[:3]), mode="clip")
        intercepts, coefficients = fit_ols(xs, ys)
        del xs, ys
        for (x, _, predicted, train, lo), start, end in zip(entries, [0] + ends, ends):
            # the held-out folds are adjacent rows from lo, which reshape
            # stacks C-contiguous in (charger, fold) order
            size = x.shape[1] - m
            hi = lo + size * len(train)
            x_held = x[:, lo:hi].reshape(-1, size, x.shape[2])
            fitted = np.matmul(x_held, coefficients[start:end, :, None])[..., 0]
            predicted[:, lo:hi] = (fitted + intercepts[start:end, None]).reshape(len(x), -1)

    done = {c: m for g, p, y in blocks for c, m in zip(g, prediction_metrics(p, y))}
    return [done.get(c) for c in range(len(histories))]


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
