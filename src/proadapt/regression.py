"""Run-time tactic latency/cost prediction via multiple regression, plus
the comparison baselines (running mean, Bayesian ridge).

The workhorse is the least-squares solution of the linear model
y(x, w) = w'x over a design matrix whose rows carry a leading intercept
entry. Fits are solved with a numerically stable decomposition equivalent
to the normal equations w* = (X'X)^{-1} X't; near-singular designs fall
back to a minimal ridge term instead of failing.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DesignMatrix",
    "ResponseVector",
    "RegressionModel",
    "Prediction",
    "error_function",
    "fit_mra",
    "predict",
    "fit_bayesian_ridge",
    "baseline_mean",
]

CONDITION_LIMIT = 1e12  # beyond this the normal equations get a ridge term
RIDGE_SCALE = 1e-8      # fallback lambda = RIDGE_SCALE * trace(X'X) / M


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """N observation rows of width M, first column identically 1."""

    rows: np.ndarray
    column_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise ValueError("design matrix must be 2-D with at least one column")
        if not np.all(np.isfinite(rows)):
            raise ValueError("design matrix contains NaN or infinite entries")
        if not np.all(rows[:, 0] == 1.0):
            raise ValueError("first design-matrix column must be the intercept (all ones)")
        names = tuple(self.column_names) if self.column_names else tuple(
            f"x{j}" for j in range(rows.shape[1]))
        if len(names) != rows.shape[1]:
            raise ValueError("column_names length must match the matrix width")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def m(self) -> int:
        return int(self.rows.shape[1])


@dataclass(frozen=True, eq=False)
class ResponseVector:
    """Observed responses (latency seconds or cost units), one per row."""

    t: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1:
            raise ValueError("responses must be one-dimensional")
        if not np.all(np.isfinite(t)):
            raise ValueError("responses contain NaN or infinite entries")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "t", t)

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass(frozen=True)
class RegressionModel:
    """Solved weights plus the ridge term (0 for a plain fit) and the
    training value of the half-sum-of-squares error."""

    weights: tuple[float, ...]
    ridge_lambda: float = 0.0
    training_error: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
        if self.training_error < 0 or self.ridge_lambda < 0:
            raise ValueError("training_error and ridge_lambda must be >= 0")

    @property
    def m(self) -> int:
        return len(self.weights)


class Prediction(NamedTuple):
    """Clamped prediction plus the raw linear value it came from."""

    value: float
    raw: float


def _check_dimensions(X: DesignMatrix, t: ResponseVector) -> None:
    if X.n != len(t):
        raise ValueError(f"design matrix has {X.n} rows but {len(t)} responses given")


def error_function(X: DesignMatrix, t: ResponseVector, weights: Sequence[float]) -> float:
    """Half the sum of squared residuals of w over the training data."""
    w = np.asarray(weights, dtype=float)
    _check_dimensions(X, t)
    if w.shape != (X.m,):
        raise ValueError(f"expected {X.m} weights, got {w.shape}")
    residuals = X.rows @ w - t.t
    return 0.5 * float(residuals @ residuals)


def fit_mra(X: DesignMatrix, t: ResponseVector) -> RegressionModel:
    """Least-squares weights for the linear model.

    Solved by SVD-backed least squares (equivalent to the normal equations
    on full-rank designs). When X'X is singular or its condition number,
    (s_max / s_min)^2 over the singular values of X that the solve already
    computed, exceeds ``CONDITION_LIMIT``, the fit retries with the minimal
    ridge term lambda = 1e-8 * trace(X'X) / M and records it. Raises
    ``ValueError`` when the fit overflows to non-finite weights or a
    non-finite training error.
    """
    _check_dimensions(X, t)
    if X.n < X.m:
        raise ValueError(f"need at least as many rows ({X.n}) as columns ({X.m})")
    # Data near the float maximum overflow below; the check after says so.
    with np.errstate(over="ignore", invalid="ignore"):
        weights, _, _, singular = np.linalg.lstsq(X.rows, t.t, rcond=None)
        if singular[0] <= math.sqrt(CONDITION_LIMIT) * singular[-1]:
            ridge = 0.0
        else:
            gram = X.rows.T @ X.rows
            ridge = RIDGE_SCALE * float(np.trace(gram)) / X.m
            weights = np.linalg.solve(gram + ridge * np.eye(X.m), X.rows.T @ t.t)
        training_error = error_function(X, t, weights)
    if not (np.isfinite(weights).all() and math.isfinite(training_error)):
        raise ValueError("least-squares fit overflows: the weights or the training "
                         "error are not finite")
    return RegressionModel(weights=tuple(weights), ridge_lambda=ridge,
                           training_error=training_error)


def predict(model: RegressionModel, x: Sequence[float]) -> Prediction:
    """w*'x, clamped at 0 from below (negative latency or cost is
    physically meaningless); the raw value rides along."""
    features = np.asarray(x, dtype=float)
    if features.shape != (model.m,):
        raise ValueError(f"expected a feature vector of width {model.m}, "
                         f"got shape {features.shape}")
    raw = float(np.dot(model.weights, features))
    return Prediction(value=max(0.0, raw), raw=raw)


def fit_bayesian_ridge(X: DesignMatrix, t: ResponseVector,
                       alpha0: float = 1.0, beta0: float = 1.0,
                       iters: int = 10) -> RegressionModel:
    """Bayesian ridge baseline via the evidence fixed-point iterations.

    The posterior mean is m = (alpha*I + beta*X'X)^{-1} beta*X't. Each
    iteration recomputes the effective parameter count
    gamma = sum_i lambda_i / (alpha + lambda_i) over the eigenvalues of
    beta*X'X, then updates alpha = gamma/||m||^2 and
    beta = (N - gamma)/sum of squared residuals. ``iters`` = 0 returns the
    posterior mean under the initial hyperparameters.
    """
    _check_dimensions(X, t)
    if alpha0 <= 0 or beta0 <= 0:
        raise ValueError("alpha0 and beta0 must be > 0")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    if X.n < 1:
        raise ValueError("need at least one observation")
    gram = X.rows.T @ X.rows
    xt = X.rows.T @ t.t
    eigenvalues = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    tiny = np.finfo(float).tiny
    cap = 1e150  # keeps beta*eigenvalues finite when residuals underflow to 0

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
    return RegressionModel(weights=tuple(mean), ridge_lambda=alpha / beta,
                           training_error=error_function(X, t, tuple(mean)))


def baseline_mean(history: Sequence[float]) -> float:
    """Simple average of previously observed values."""
    values = np.asarray(history, dtype=float)
    if values.size == 0:
        raise ValueError("history must be non-empty")
    return float(values.mean())
