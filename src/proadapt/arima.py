"""Differenced first-order autoregressive forecasting: ARIMA(1, 1, 0).

The one model is the paper's: the first difference z_t = y_t - y_{t-1}
follows z_t = c + phi * z_{t-1} + e_t with |phi| < 1. The constant c
captures drift in the differenced data.

Estimation is conditional least squares on the differenced series: the
regression of z_t on z_{t-1} plus a constant coincides with the Gaussian
maximum-likelihood estimate up to edge effects, has a closed form, and is
fully deterministic. One vectorised kernel solves it for a stack of
windows at once: ``fit_arima_windows`` returns the coefficient arrays and
fit errors of any windows of a series, and ``fit_arima`` is its one-window
case and the one fit that builds an ``ArimaModel``. A monitor run that
refits on every window fits a block of windows per call.

``forecast`` iterates one model; ``forecast_paths``, the forecast of the
monitor and the replication harness, iterates n models as arrays.

The fits and forecasts are pure functions of their inputs and
``ArimaModel`` is immutable, so models can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .types import TimeSeries

__all__ = [
    "ArimaModel",
    "ResidualDiagnostics",
    "FitError",
    "difference",
    "acf",
    "pacf",
    "fit_arima",
    "fit_arima_windows",
    "forecast",
    "forecast_paths",
    "forecast_error",
    "check_residuals",
]

MIN_FIT_LENGTH = 10  # differenced observations needed before fitting
_RANK_TOL = 1e-8  # singular-value ratio below which a lag design counts as rank-deficient


class FitError(ValueError):
    """Raised when a model cannot be estimated from the given series."""


@dataclass(frozen=True)
class ArimaModel:
    """Fitted ARIMA(1, 1, 0): z_t = c + phi * z_{t-1} on the first differences.

    ``last_observations`` holds the last two raw observations, which is
    exactly what ``forecast`` needs: the last difference seeds the
    autoregression and the last value anchors its integration.
    """

    phi: float
    c: float
    last_observations: tuple[float, float]
    residual_variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "last_observations", tuple(self.last_observations))
        if len(self.last_observations) != 2:
            raise ValueError("last_observations must hold exactly 2 values")
        if self.residual_variance < 0:
            raise ValueError("residual_variance must be >= 0")


@dataclass(frozen=True)
class ResidualDiagnostics:
    """In-sample residual summary: mean, lag-1 autocorrelation, and a
    white-noise flag using the conventional 2/sqrt(n) band."""

    mean: float
    lag1_autocorr: float
    threshold: float
    suspect: bool


def difference(series: TimeSeries) -> TimeSeries:
    """The first difference y'_t = y_t - y_{t-1}."""
    if len(series) <= 1:
        raise ValueError(f"series of length {len(series)} is too short to difference "
                         f"1 time(s)")
    return TimeSeries(np.diff(series.values))


def acf(series: TimeSeries, max_lag: int) -> list[float]:
    """Sample autocorrelations r_1..r_max_lag.

    Uses the standard biased estimator: mean-centred lag-k covariance over
    the lag-0 covariance. Each value lies in [-1, 1].
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    x = series.values
    n = x.size
    if n < max_lag + 2:
        raise ValueError("series too short for the requested number of lags")
    centered = x - x.mean()
    c0 = float(np.dot(centered, centered))
    if c0 == 0.0:
        raise ValueError("autocorrelation is undefined for a zero-variance series")
    return [float(np.dot(centered[:-k], centered[k:]) / c0) for k in range(1, max_lag + 1)]


def pacf(series: TimeSeries, max_lag: int) -> list[float]:
    """Partial autocorrelations via the Durbin-Levinson recursion on ``acf``."""
    r = acf(series, max_lag)
    partial = [r[0]]
    prev = np.array([r[0]])
    for k in range(2, max_lag + 1):
        rk = np.array(r[:k])
        num = r[k - 1] - float(np.dot(prev, rk[k - 2::-1]))
        den = 1.0 - float(np.dot(prev, rk[:k - 1]))
        phi_kk = num / den
        prev = np.append(prev - phi_kk * prev[::-1], phi_kk)
        partial.append(float(phi_kk))
    return partial


def _fit_ar1_lstsq(z: np.ndarray) -> tuple[float, float, float]:
    """Minimum-norm least squares for one row whose lag design is rank-deficient."""
    design = np.column_stack([np.ones(z.size - 1), z[:-1]])
    coef, *_ = np.linalg.lstsq(design, z[1:], rcond=None)
    residuals = z[1:] - design @ coef
    return float(coef[0]), float(coef[1]), float(np.mean(residuals**2))


def _fit_cls(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional least squares on each row of the 2-D stack ``z`` of
    differenced windows; returns the arrays (c, phi, residual variance).

    Regresses z_t on z_{t-1} plus a constant in closed form from centred
    sums, phi = Sxy / Sxx and c = ybar - phi * xbar. A finite row whose lag
    design [1, z_{t-1}] is rank-deficient up to ``_RANK_TOL`` (Sxx ~ 0,
    e.g. the constant differences of a ramp) takes ``lstsq``'s minimum-norm
    answer instead. Sums that overflow give non-finite results, which
    ``_fit_error`` rejects.
    """
    x, y = z[:, :-1], z[:, 1:]
    m = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        xbar, ybar = x.mean(axis=1), y.mean(axis=1)
        xc, yc = x - xbar[:, None], y - ybar[:, None]
        sxx = (xc * xc).sum(axis=1)
        # sqrt(m * Sxx) / (m + Sx^2) is within a factor 2 of the design's
        # smallest-to-largest singular value ratio.
        deficient = ~(np.sqrt(m * sxx) > _RANK_TOL * (m + (x * x).sum(axis=1)))
        phi = (xc * yc).sum(axis=1) / np.where(deficient, 1.0, sxx)
        c = ybar - phi * xbar
        residuals = yc - phi[:, None] * xc
        variance = (residuals * residuals).mean(axis=1)
        for i in np.flatnonzero(deficient):
            if np.isfinite(z[i]).all():  # LAPACK cannot take inf or NaN
                c[i], phi[i], variance[i] = _fit_ar1_lstsq(z[i])
    return c, phi, variance


def _length_error(length: int) -> FitError | None:
    """The FitError a series of ``length`` gets, if any."""
    if length <= 1:
        return FitError("series too short to difference")
    if length - 1 < MIN_FIT_LENGTH:
        return FitError(f"need at least {MIN_FIT_LENGTH} differenced observations, "
                        f"got {length - 1}")
    return None


def _fit_error(c: float, phi: float, variance: float) -> FitError | None:
    """The FitError a fit of these coefficients gets, if any."""
    if not (math.isfinite(phi) and math.isfinite(c) and math.isfinite(variance)):
        return FitError(f"fit overflows: fitted model is not finite (phi={phi!r}, "
                        f"c={c!r}, residual variance={variance!r})")
    if abs(phi) >= 1.0:
        return FitError(f"fitted AR coefficient {phi!r} is not stationary")
    return None


def fit_arima(series: TimeSeries) -> ArimaModel:
    """Difference ``series`` once and fit the AR(1) part by conditional
    least squares: the one-window case of ``fit_arima_windows``, bit for bit.

    Raises :class:`FitError` when the differenced series is shorter than
    ``MIN_FIT_LENGTH``, the fitted coefficient is non-stationary
    (|phi| >= 1), or the fit overflows.
    """
    error = _length_error(len(series))
    if error is not None:
        raise error
    # A difference that overflows is inf, which _fit_error rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        differenced = np.diff(series.values)
    c, phi, variance = (float(a[0]) for a in _fit_cls(differenced[None]))
    error = _fit_error(c, phi, variance)
    if error is not None:
        raise error
    return ArimaModel(phi=phi, c=c, last_observations=series.tail(2),
                      residual_variance=variance)


def fit_arima_windows(series: TimeSeries, window: int, starts: Sequence[int]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[FitError | None]]:
    """Fit each window ``series.values[s:s + window]`` of ``starts``.

    Returns, per start and in order, the arrays (phi, c, residual variance)
    and a list of errors: the :class:`FitError` ``fit_arima`` raises on that
    window, or None where it fits and the arrays hold its coefficients.
    Only the span the starts cover is differenced. Raises ``ValueError``
    for a window that does not lie inside ``series`` and ``TypeError`` for a
    start that is not an integer.
    """
    starts = np.asarray(starts).reshape(-1)
    if starts.size and starts.dtype.kind not in "iu":
        raise TypeError(f"starts must be integers, got an array of {starts.dtype}")
    starts = starts.astype(np.intp, copy=False)
    # The span [lo, hi) of the series that the windows cover.
    lo, hi = (int(starts.min()), int(starts.max()) + window) if starts.size else (0, 0)
    if window < 1 or lo < 0 or hi > len(series):
        raise ValueError(f"windows of {window} observations at the given starts "
                         f"do not lie inside a series of {len(series)}")
    error = _length_error(window)
    if error is not None:
        return (*np.full((3, starts.size), np.nan), [error] * starts.size)
    # A difference that overflows is inf, which _fit_error rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        differenced = np.diff(series.values[lo:hi])
    # Row i gathers the window - 1 differences of the window at starts[i].
    c, phi, variance = _fit_cls(differenced[(starts - lo)[:, None] + np.arange(window - 1)])
    # _fit_error's test as one array pass (|phi| < 1 fails a phi that is not
    # finite); _fit_error builds the FitErrors of the windows that fail it.
    good = np.isfinite(c) & np.isfinite(variance) & (np.abs(phi) < 1.0)
    errors: list[FitError | None] = [None] * starts.size
    for i in np.flatnonzero(~good).tolist():
        errors[i] = _fit_error(float(c[i]), float(phi[i]), float(variance[i]))
    return phi, c, variance, errors


def forecast_error(step: int) -> str:
    """The error of a forecast whose step ``step`` is not finite."""
    return f"forecast step {step} is not finite"


def forecast(model: ArimaModel, horizon: int) -> list[float]:
    """Iterate the AR recursion on the differenced scale and integrate back.

    z_hat_{t+h} = c + phi * z_hat_{t+h-1}, seeded from the last observed
    difference; each step adds z_hat onto the running last value. Raises
    ``ValueError`` when a step overflows to a non-finite value.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    c, phi = float(model.c), float(model.phi)
    previous, last = (float(v) for v in model.last_observations)
    z = last - previous
    out = []
    for step in range(1, horizon + 1):
        z = c + phi * z
        last += z
        if not math.isfinite(last):
            raise ValueError(forecast_error(step))
        out.append(last)
    return out


def forecast_paths(last: Sequence[float], previous: Sequence[float],
                   phi: Sequence[float], c: Sequence[float], horizon: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``forecast`` of n models, each given by its last two observations
    (``previous``, ``last``) and its coefficients ``phi`` and ``c``.

    Returns the (horizon, n) paths, whose column i is model i's ``forecast``
    bit for bit (the same float operations in the same order), and each
    path's first 1-based step that is not finite, or 0 (not a raise).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    last, previous, phi, c = (np.asarray(a, dtype=float) for a in (last, previous, phi, c))
    paths = np.empty((horizon, last.size))
    with np.errstate(over="ignore", invalid="ignore"):
        z = last - previous
        running = last
        # In place, since per-step call overhead dominates when a long
        # horizon leaves few models per call.
        for row in paths:
            np.multiply(phi, z, out=z)
            np.add(c, z, out=z)
            np.add(running, z, out=row)
            running = row
    bad = ~np.isfinite(paths)
    return paths, np.where(bad.any(axis=0), bad.argmax(axis=0) + 1, 0)


def check_residuals(model: ArimaModel, series: TimeSeries) -> ResidualDiagnostics:
    """Recompute in-sample residuals for ``series`` (the fitting series)
    and flag suspected leftover structure when the lag-1 residual
    autocorrelation leaves the 2/sqrt(n) white-noise band."""
    z = difference(series).values
    if z.size < 4:
        raise ValueError("series too short to diagnose against this model")
    residuals = z[1:] - model.c - model.phi * z[:-1]
    n = residuals.size
    centered = residuals - residuals.mean()
    c0 = float(np.dot(centered, centered))
    if c0 == 0.0:
        lag1 = 0.0  # perfect fit leaves nothing to correlate
    else:
        lag1 = float(np.dot(centered[:-1], centered[1:]) / c0)
    threshold = 2.0 / math.sqrt(n)
    return ResidualDiagnostics(
        mean=float(residuals.mean()),
        lag1_autocorr=lag1,
        threshold=threshold,
        suspect=abs(lag1) > threshold,
    )
