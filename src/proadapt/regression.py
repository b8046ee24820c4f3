"""Run-time tactic latency/cost prediction via multiple regression, plus
the Bayesian ridge it is compared against. The replication harness's
running-mean and static-value baselines need no fit and live in
``metrics``.

The workhorse is the least-squares solution of the linear model
y(x, w) = w'x over a design matrix whose rows carry a leading intercept
entry. Fits are solved with a numerically stable decomposition equivalent
to the normal equations w* = (X'X)^{-1} X't; near-singular designs fall
back to a minimal ridge term instead of failing.

``fit_gram_batch`` fits a stack of training sets from their statistics
X'X, X't and t't alone, as the replication harness needs for its batches
of runs, for one response or for several that share each X'X. It
decomposes each X'X once for both models and every response, and keeps
each response's bits those of a call of its own (see its docstring). It
solves the normal equations only where that is safe:
cond(X'X) <= ``GRAM_CONDITION_LIMIT`` = 1e6, far below the
``CONDITION_LIMIT`` = 1e12 at which ``fit_mra`` adds its ridge, and a
residual sum of at least ``CANCELLATION_LIMIT`` = 1e-6 of t't. It flags
every other fit for an explicit refit from the rows. The Bayesian ridge
shares one evidence update, in the eigenbasis of X'X, between
``fit_bayesian_ridge`` (residuals from the rows) and ``fit_gram_batch``
(residuals from the statistics).

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .types import check_array, check_real

__all__ = [
    "DesignMatrix",
    "ResponseVector",
    "RegressionModel",
    "Prediction",
    "fit_mra",
    "predict",
    "fit_bayesian_ridge",
    "fit_gram_batch",
]

CONDITION_LIMIT = 1e12  # beyond this the normal equations get a ridge term
RIDGE_SCALE = 1e-8      # fallback lambda = RIDGE_SCALE * trace(X'X) / M
GRAM_CONDITION_LIMIT = 1e6  # batched least squares from X'X only up to this cond(X'X)
CANCELLATION_LIMIT = 1e-6   # residual sums from statistics only down to this share of t't
BRR_OVERFLOW = ("Bayesian ridge fit overflows: X'X, the weights or the training "
                "error are not finite")
_TINY = np.finfo(float).tiny
_EVIDENCE_CAP = 1e150  # keeps beta*eigenvalues finite when residuals underflow to 0
EVIDENCE_ITERATIONS = 10


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """N observation rows of width M, first column identically 1."""

    rows: np.ndarray
    column_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        rows = check_array("rows", self.rows, ndim=2)
        if rows.shape[1] < 1:
            raise ValueError("rows must have at least one column")
        if not np.all(rows[:, 0] == 1.0):
            raise ValueError("first design-matrix column must be the intercept (all ones)")
        names = tuple(self.column_names) if self.column_names else tuple(
            f"x{j}" for j in range(rows.shape[1]))
        if len(names) != rows.shape[1]:
            raise ValueError("column_names length must match the matrix width")
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
        object.__setattr__(self, "t", check_array("t", self.t))

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
        object.__setattr__(self, "weights", tuple(check_array("weights", self.weights).tolist()))
        check_real("ridge_lambda", self.ridge_lambda, 0)
        check_real("training_error", self.training_error, 0)

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


def _training_error(X: DesignMatrix, t: ResponseVector, weights: np.ndarray) -> float:
    """Half the sum of squared residuals of the M ``weights`` over the
    training data."""
    residuals = X.rows @ weights - t.t
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
        training_error = _training_error(X, t, weights)
    if not (np.isfinite(weights).all() and math.isfinite(training_error)):
        raise ValueError("least-squares fit overflows: the weights or the training "
                         "error are not finite")
    return RegressionModel(weights=tuple(weights), ridge_lambda=ridge,
                           training_error=training_error)


def predict(model: RegressionModel, x: Sequence[float]) -> Prediction:
    """w*'x, clamped at 0 from below (negative latency or cost is
    physically meaningless); the raw value rides along. ``x`` follows
    ``types.check_array``."""
    features = check_array("x", x)
    if features.shape != (model.m,):
        raise ValueError(f"expected a feature vector of width {model.m}, "
                         f"got shape {features.shape}")
    raw = float(np.dot(model.weights, features))
    return Prediction(value=max(0.0, raw), raw=raw)


def _posterior_coordinates(eigenvalues: np.ndarray, q: np.ndarray,
                           alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Posterior mean in the eigenbasis of X'X: z_i = beta q_i / (alpha + beta lambda_i),
    with q = V'X't. Leading axes of every argument index independent fits."""
    beta = beta[..., None]
    return beta * q / (alpha[..., None] + beta * eigenvalues)


def _evidence_step(eigenvalues: np.ndarray, q: np.ndarray, z: np.ndarray,
                   alpha: np.ndarray, beta: np.ndarray, n: int,
                   residual_sum: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One evidence update from the posterior mean z (eigenbasis
    coordinates) and its sum of squared residuals; returns the new alpha,
    beta and z. ``||m||^2 = ||z||^2`` since the eigenbasis is orthonormal."""
    scaled = beta[..., None] * eigenvalues
    gamma = np.sum(scaled / (alpha[..., None] + scaled), axis=-1)
    alpha = np.minimum(gamma / np.maximum(np.sum(z * z, axis=-1), _TINY), _EVIDENCE_CAP)
    beta = np.minimum(np.maximum(n - gamma, _TINY) / np.maximum(residual_sum, _TINY),
                      _EVIDENCE_CAP)
    return alpha, beta, _posterior_coordinates(eigenvalues, q, alpha, beta)


def fit_bayesian_ridge(X: DesignMatrix, t: ResponseVector) -> RegressionModel:
    """Bayesian ridge baseline via the evidence fixed-point iterations.

    The posterior mean is m = (alpha*I + beta*X'X)^{-1} beta*X't. One
    eigendecomposition X'X = V diag(lambda) V' turns each iteration's
    posterior mean into the diagonal rescale z_i = beta q_i / (alpha +
    beta lambda_i), q = V'X't, m = Vz (Bishop, PRML 3.5.2). Each iteration
    recomputes the effective parameter count gamma = sum_i beta lambda_i /
    (alpha + beta lambda_i), then updates alpha = gamma/||m||^2 and
    beta = (N - gamma)/sum of squared residuals. The returned mean solves
    the posterior system under the final hyperparameters, which keeps
    badly scaled designs as accurate as a solve per iteration would. The
    iterations start from alpha = beta = 1 and run
    ``EVIDENCE_ITERATIONS`` times, as in ``fit_gram_batch``. Raises
    ``ValueError`` when X'X, the weights or the training error are not
    finite.
    """
    _check_dimensions(X, t)
    if X.n < 1:
        raise ValueError("need at least one observation")
    # Data near the float maximum overflow below; the checks say so.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gram = X.rows.T @ X.rows
        xt = X.rows.T @ t.t
        if not (np.isfinite(gram).all() and np.isfinite(xt).all()):
            raise ValueError(BRR_OVERFLOW)
        eigenvalues, vectors = np.linalg.eigh(gram)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        q = vectors.T @ xt
        alpha, beta = np.asarray(1.0), np.asarray(1.0)
        z = _posterior_coordinates(eigenvalues, q, alpha, beta)
        for _ in range(EVIDENCE_ITERATIONS):
            residuals = t.t - X.rows @ (vectors @ z)
            alpha, beta, z = _evidence_step(eigenvalues, q, z, alpha, beta, X.n,
                                            residuals @ residuals)
        mean = np.linalg.solve(alpha * np.eye(X.m) + beta * gram, beta * xt)
        ridge = float(alpha / beta)
        training_error = _training_error(X, t, mean)
    if not (np.isfinite(mean).all() and math.isfinite(training_error)):
        raise ValueError(BRR_OVERFLOW)
    return RegressionModel(weights=tuple(mean), ridge_lambda=ridge,
                           training_error=training_error)


def _flagged_lapack(func, ok: np.ndarray, *stacks: np.ndarray) -> list[tuple[object, object]]:
    """``func`` over the entries of ``stacks`` whose flag in ``ok`` is set,
    as ``(selector, result)`` pairs to store. One batched call serves them
    all; since LAPACK refuses a whole stack for one bad system, a
    ``LinAlgError`` redoes the flagged entries one at a time (each as a
    stack of one, so with the same bits), and only those it refuses lose
    their flag."""
    try:
        return [(ok, func(*(stack[ok] for stack in stacks)))]
    except np.linalg.LinAlgError:
        pass
    results = []
    for i in np.flatnonzero(ok).tolist():
        try:
            results.append((slice(i, i + 1), func(*(stack[i:i + 1] for stack in stacks))))
        except np.linalg.LinAlgError:
            ok[i] = False
    return results


def _solve_flagged(systems: np.ndarray, rhs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Solutions of the systems whose flag is set (zeros elsewhere); an
    exactly singular system clears its own flag, sending that fit to the
    explicit fits."""
    out = np.zeros(rhs.shape)
    for at, solution in _flagged_lapack(
            lambda a, b: np.linalg.solve(a, b[..., None])[..., 0], ok, systems, rhs):
        out[at] = solution
    return out


def fit_gram_batch(gram: np.ndarray, xt: np.ndarray, tt: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares and Bayesian-ridge weights for a stack of fits given
    only their training statistics, for one or more responses at once.

    ``gram`` (k, M, M) holds X'X of k training sets of ``n`` rows each.
    ``xt`` (k, M) and ``tt`` (k,) hold X't and t't of one response on each
    set, or ``xt`` (R, k, M) and ``tt`` (R, k) those of R responses, all on
    the same k sets. Returns ``(mra, mra_ok, brr, brr_ok)``: weights shaped
    like ``xt`` and flags shaped like ``tt``. A fit whose flag is False was
    not trusted to the statistics and must be refitted from its rows with
    ``fit_mra`` or ``fit_bayesian_ridge``:

    - the least-squares fit needs finite statistics and a spectrum with
      lambda_min > 0 and lambda_max <= ``GRAM_CONDITION_LIMIT`` * lambda_min
      (solving the normal equations squares the condition number of X); it
      solves the equilibrated system, diag(G)^(-1/2) scaling both sides;
    - both fits need the residual sum t't - 2 q.z + sum lambda z^2 (z the
      fit in the eigenbasis, q = V'X't), taken from the statistics, to be
      finite and at least ``CANCELLATION_LIMIT`` * t't (for the ridge, at
      every iteration), since it loses digits to cancellation as the fit
      nears exact;
    - both need finite weights;
    - a system LAPACK refuses (an ``eigh`` that does not converge, an
      exactly singular solve) clears the flags of its own fit only, so a
      fit's weights and flags do not depend on the other fits in the stack.

    The ridge runs the evidence updates of ``fit_bayesian_ridge`` from the
    same start and for as many iterations, taking residual sums from the
    statistics instead of the rows.

    One batched ``eigh`` of X'X and one equilibrated least-squares matrix
    per set serve both models and every response. That costs no bit: the
    decomposition is of the one X'X, each response's solve is its own
    one-right-hand-side system (LAPACK may round a column of a solve with
    several right-hand sides differently), each projection is the
    ``einsum`` a one-response call makes, and every other step is
    elementwise or a sum along the last axis. So each response's weights
    and flags are, bit for bit, those of a call given its statistics alone.
    """
    single = xt.ndim == 2
    if single:
        xt, tt = xt[None], tt[None]
    k, m = gram.shape[:2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        decomposed = np.isfinite(gram).all(axis=(1, 2))
        eigenvalues = np.ones((k, m))
        vectors = np.broadcast_to(np.eye(m), (k, m, m)).copy()
        for at, (values, basis) in _flagged_lapack(np.linalg.eigh, decomposed, gram):
            eigenvalues[at], vectors[at] = values, basis
        finite = decomposed & np.isfinite(xt).all(axis=-1) & np.isfinite(tt)

        def project(w: np.ndarray) -> np.ndarray:
            """V'w of each response's stack of vectors w."""
            return np.stack([np.einsum("kji,kj->ki", vectors, one) for one in w])

        q = project(xt)
        floor = CANCELLATION_LIMIT * tt

        def residuals(z: np.ndarray, spectrum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Residual sums from the statistics and whether each is trusted."""
            residual_sum = (tt - 2.0 * np.sum(q * z, axis=-1)
                            + np.sum(spectrum * z * z, axis=-1))
            return residual_sum, np.isfinite(residual_sum) & (residual_sum >= floor)

        low, high = eigenvalues[:, 0], eigenvalues[:, -1]
        mra_ok = finite & (low > 0) & (high <= GRAM_CONDITION_LIMIT * low)
        # S = diag(G)^(-1/2): solve (S G S) y = S X't, then w = S y.
        s = 1.0 / np.sqrt(np.abs(np.diagonal(gram, axis1=1, axis2=2)))
        equilibrated = s[:, :, None] * gram * s[:, None, :]
        mra = s * np.stack([_solve_flagged(equilibrated, rhs, ok)
                            for rhs, ok in zip(s * xt, mra_ok)])
        mra_ok &= residuals(project(mra), eigenvalues)[1]

        spectrum = np.clip(eigenvalues, 0.0, None)
        alpha, beta = np.ones(tt.shape), np.ones(tt.shape)
        z = _posterior_coordinates(spectrum, q, alpha, beta)
        brr_ok = finite.copy()
        for _ in range(EVIDENCE_ITERATIONS):
            residual_sum, trusted = residuals(z, spectrum)
            brr_ok &= trusted
            alpha, beta, z = _evidence_step(spectrum, q, z, alpha, beta, n, residual_sum)
        brr_ok &= np.isfinite(alpha) & np.isfinite(beta)
        systems = alpha[..., None, None] * np.eye(m) + beta[..., None, None] * gram
        brr = np.stack([_solve_flagged(*fit) for fit in zip(systems, beta[..., None] * xt,
                                                            brr_ok)])
    mra_ok &= np.isfinite(mra).all(axis=-1)
    brr_ok &= np.isfinite(brr).all(axis=-1)
    if single:
        return mra[0], mra_ok[0], brr[0], brr_ok[0]
    return mra, mra_ok, brr, brr_ok
