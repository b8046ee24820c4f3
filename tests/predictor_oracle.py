"""Reference per-run predictor harness, kept as an oracle for
``metrics.run_predictor_experiments``.

This is the harness as it ran before runs were fitted in chunks from
downdated Gram statistics: every run builds its training rows, fits the
least-squares model with ``fit_mra`` on them, fits the Bayesian ridge with
one linear solve per evidence iteration (the iteration below is the one
``fit_bayesian_ridge`` ran then) and scores each model with ``rmse`` and
``mae`` on its own held-out rows. It takes the running-mean baseline and
each ridge fit's training error (half the sum of squared residuals) itself.
Its split rule is the library's, stated on its own: a run holds out the
n_test rows its seeded generator's ``choice`` draws without replacement,
and trains on the others in row order; each run's seed is
``seed_oracle.subseed``'s. It builds one ``report_oracle.Row`` per run and
model.
"""

from __future__ import annotations

import math

import numpy as np

from proadapt.metrics import (BRR_MODEL, MEAN_BASELINE, MRA_MODEL, STATIC_BASELINE,
                              TRAIN_FRACTION, mae, rmse)
from proadapt.regression import DesignMatrix, RegressionModel, ResponseVector, fit_mra
from report_oracle import Row
from seed_oracle import subseed


def reference_bayesian_ridge(X: DesignMatrix, t: ResponseVector, alpha0: float = 1.0,
                             beta0: float = 1.0, iters: int = 10) -> RegressionModel:
    """Evidence iterations with a fresh solve of (alpha I + beta X'X) m = beta X't."""
    gram = X.rows.T @ X.rows
    xt = X.rows.T @ t.t
    eigenvalues = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    tiny = np.finfo(float).tiny
    cap = 1e150

    def posterior_mean(alpha: float, beta: float) -> np.ndarray:
        return np.linalg.solve(alpha * np.eye(X.m) + beta * gram, beta * xt)

    alpha, beta = float(alpha0), float(beta0)
    mean = posterior_mean(alpha, beta)
    for _ in range(iters):
        gamma = float(np.sum(beta * eigenvalues / (alpha + beta * eigenvalues)))
        residuals = t.t - X.rows @ mean
        alpha = min(gamma / max(float(mean @ mean), tiny), cap)
        beta = min(max(X.n - gamma, tiny) / max(float(residuals @ residuals), tiny), cap)
        mean = posterior_mean(alpha, beta)
    residuals = X.rows @ mean - t.t
    return RegressionModel(weights=tuple(mean), ridge_lambda=alpha / beta,
                           training_error=0.5 * float(residuals @ residuals))


def _score(predicted, actual, run: int, model: str) -> tuple[float, float]:
    scores = rmse(predicted, actual), mae(predicted, actual)
    if not all(math.isfinite(score) for score in scores):
        raise ValueError(f"run {run}, model {model!r}: scores overflow "
                         f"(rmse={scores[0]!r}, mae={scores[1]!r})")
    return scores


def reference_predictor_experiments(X: DesignMatrix, t: ResponseVector, n_runs: int,
                                    seed: int, static_value: float) -> list[Row]:
    """The per-run harness; same arguments as the library's, and its
    reports as rows."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if X.n < 40:
        raise ValueError(f"need at least 40 observations, got {X.n}")
    if X.n != len(t):
        raise ValueError("design matrix and responses disagree on length")
    rows: list[Row] = []
    for run in range(n_runs):
        run_seed = subseed(seed, run)
        rng = np.random.default_rng(run_seed)
        n_test = max(1, int(round((1.0 - TRAIN_FRACTION) * X.n)))
        test_idx = rng.choice(X.n, n_test, replace=False)
        train_idx = np.setdiff1d(np.arange(X.n), test_idx)
        train_X = DesignMatrix(X.rows[train_idx], X.column_names)
        train_t = ResponseVector(t.t[train_idx])
        test_rows = X.rows[test_idx]
        actual = t.t[test_idx]

        constants = {
            MEAN_BASELINE: float(np.mean(train_t.t)),
            STATIC_BASELINE: float(static_value),
        }
        for name, value in constants.items():
            scores = _score(np.full(n_test, value), actual, run, name)
            rows.append(Row(run, name, *scores, run_seed))
        fits = {
            MRA_MODEL: lambda: fit_mra(train_X, train_t),
            BRR_MODEL: lambda: reference_bayesian_ridge(train_X, train_t),
        }
        for name, fit in fits.items():
            try:
                weights = np.asarray(fit().weights)
            except ValueError as exc:
                rows.append(Row(run, name, None, None, run_seed, str(exc)))
                continue
            predicted = np.maximum(0.0, test_rows @ weights)
            scores = _score(predicted, actual, run, name)
            rows.append(Row(run, name, *scores, run_seed))
    return rows
