"""Differenced first-order autoregressive forecasting.

The supported model family is ARIMA(p, d, 0) with p in {0, 1} and
d in {0, 1, 2}; the working configuration throughout the package is the
differenced first-order autoregressive model ARIMA(1, 1, 0).

Estimation is conditional least squares on the differenced series: the
regression of z_t on z_{t-1} (plus a constant) coincides with the Gaussian
maximum-likelihood estimate for pure AR models up to edge effects, has a
closed form, and is fully deterministic. A constant term is always
included so drift in the differenced data is captured. One vectorised
kernel solves it for a stack of windows at once: ``fit_arima`` is its
one-window case, and ``fit_arima_windows`` fits the sliding windows of a
long history block by block, so refitting on every window of a monitor
run costs little more than re-anchoring one model.

``fit_arima`` and ``forecast`` are pure functions of their inputs and
``ArimaModel`` is immutable, so models can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import TimeSeries

__all__ = [
    "ArimaOrder",
    "ArimaModel",
    "ResidualDiagnostics",
    "FitError",
    "difference",
    "acf",
    "pacf",
    "fit_arima",
    "fit_arima_windows",
    "forecast",
    "check_residuals",
    "reanchor",
]

MIN_FIT_LENGTH = 10  # differenced observations needed before fitting
FIT_BLOCK = 256  # windows fitted per vectorised pass of fit_arima_windows
_RANK_TOL = 1e-8  # singular-value ratio below which a lag design counts as rank-deficient


class FitError(ValueError):
    """Raised when a model cannot be estimated from the given series."""


@dataclass(frozen=True)
class ArimaOrder:
    """(p, d, q) with p autoregressive lags and d differencing passes.

    Orders outside p in {0, 1}, d in {0, 1, 2}, q = 0 construct fine but
    are rejected at fit time.
    """

    p: int = 1
    d: int = 1
    q: int = 0

    def __post_init__(self) -> None:
        if min(self.p, self.d, self.q) < 0:
            raise ValueError("order components must be non-negative")

    @property
    def supported(self) -> bool:
        return self.p in (0, 1) and self.d in (0, 1, 2) and self.q == 0


@dataclass(frozen=True)
class ArimaModel:
    """Fitted AR(1)-with-constant model on the ``order.d``-times differenced scale.

    ``last_observations`` holds the trailing ``d + p`` raw observations,
    which is exactly what ``forecast`` needs to rebuild the differencing
    ladder and seed the autoregression.
    """

    order: ArimaOrder
    phi: float
    c: float
    last_observations: tuple[float, ...]
    residual_variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "last_observations", tuple(self.last_observations))
        if len(self.last_observations) != self.order.d + self.order.p:
            raise ValueError("last_observations must hold exactly d + p values")
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


def difference(series: TimeSeries, degree: int) -> TimeSeries:
    """Apply ``degree`` passes of adjacent differencing (y'_t = y_t - y_{t-1})."""
    if degree not in (0, 1, 2):
        raise ValueError("differencing degree must be 0, 1, or 2")
    if len(series) <= degree:
        raise ValueError(f"series of length {len(series)} is too short to difference "
                         f"{degree} time(s)")
    if degree == 0:
        return series
    return TimeSeries(np.diff(series.values, n=degree), interval=series.interval)


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


def _fit_cls(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional least squares on each row of the 2-D stack ``z`` of
    differenced windows; returns the arrays (c, phi, residual variance).

    p = 1 regresses z_t on z_{t-1} plus a constant in closed form from
    centred sums, phi = Sxy / Sxx and c = ybar - phi * xbar; p = 0 is the
    mean-only fit. A row whose lag design [1, z_{t-1}] is rank-deficient up
    to ``_RANK_TOL`` (Sxx ~ 0, e.g. the constant differences of a ramp)
    takes ``lstsq``'s minimum-norm answer instead.
    """
    if p == 0:
        c = z.mean(axis=1)
        centred = z - c[:, None]
        return c, np.zeros(len(z)), (centred * centred).mean(axis=1)
    x, y = z[:, :-1], z[:, 1:]
    xbar, ybar = x.mean(axis=1), y.mean(axis=1)
    xc, yc = x - xbar[:, None], y - ybar[:, None]
    sxx = (xc * xc).sum(axis=1)
    m = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        # sqrt(m * Sxx) / (m + Sx^2) is within a factor 2 of the design's
        # smallest-to-largest singular value ratio.
        deficient = ~(np.sqrt(m * sxx) > _RANK_TOL * (m + (x * x).sum(axis=1)))
        phi = (xc * yc).sum(axis=1) / np.where(deficient, 1.0, sxx)
        c = ybar - phi * xbar
        residuals = yc - phi[:, None] * xc
        variance = (residuals * residuals).mean(axis=1)
    for i in np.flatnonzero(deficient):
        c[i], phi[i], variance[i] = _fit_ar1_lstsq(z[i])
    return c, phi, variance


def _length_error(order: ArimaOrder, length: int) -> FitError | None:
    """Reject unsupported orders; the FitError a series of ``length`` gets."""
    if not order.supported:
        raise ValueError(f"unsupported order {order}: need p in {{0,1}}, "
                         f"d in {{0,1,2}}, q = 0")
    if length <= order.d:
        return FitError("series too short to difference")
    if length - order.d < MIN_FIT_LENGTH:
        return FitError(f"need at least {MIN_FIT_LENGTH} differenced observations, "
                        f"got {length - order.d}")
    return None


def _build(order: ArimaOrder, c: float, phi: float, variance: float,
           last_observations: np.ndarray) -> ArimaModel | FitError:
    if order.p == 1 and not (math.isfinite(phi) and abs(phi) < 1.0):
        return FitError(f"fitted AR coefficient {phi!r} is not stationary")
    return ArimaModel(order=order, phi=phi, c=c, last_observations=last_observations,
                      residual_variance=variance)


def fit_arima(series: TimeSeries, order: ArimaOrder) -> ArimaModel:
    """Difference ``series`` per ``order.d`` and fit the AR part by
    conditional least squares; p = 0 fits the mean-only model.

    Raises :class:`FitError` when the differenced series is shorter than
    ``MIN_FIT_LENGTH`` or the fitted coefficient is non-stationary
    (|phi| >= 1), and ``ValueError`` for unsupported orders.
    """
    error = _length_error(order, len(series))
    if error is not None:
        raise error
    z = np.diff(series.values, n=order.d)
    c, phi, variance = _fit_cls(z[np.newaxis], order.p)
    model = _build(order, float(c[0]), float(phi[0]), float(variance[0]),
                   series.tail(order.d + order.p))
    if isinstance(model, FitError):
        raise model
    return model


def fit_arima_windows(series: TimeSeries, order: ArimaOrder, window: int,
                      starts: Sequence[int]) -> Iterator[ArimaModel | FitError]:
    """Fit ``order`` on each window ``series.values[s:s + window]`` of ``starts``.

    Yields, per start and in order, what ``fit_arima`` on that window
    returns, or the :class:`FitError` it raises. The windows are fitted
    ``FIT_BLOCK`` at a time as the caller consumes them, and each model is
    built only when reached, so a long history costs neither up-front time
    nor whole-history temporaries. Raises ``ValueError`` for an unsupported
    order or a window that does not lie inside ``series``.
    """
    error = _length_error(order, window)
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
    if window < 1 or (starts.size and (starts.min() < 0
                                       or starts.max() + window > len(series))):
        raise ValueError(f"windows of {window} observations at the given starts "
                         f"do not lie inside a series of {len(series)}")
    return _windows(series.values, order, window, starts, error)


def _windows(values: np.ndarray, order: ArimaOrder, window: int, starts: np.ndarray,
             error: FitError | None) -> Iterator[ArimaModel | FitError]:
    if error is not None:
        for _ in range(starts.size):
            yield FitError(*error.args)
        return
    differenced = sliding_window_view(np.diff(values, n=order.d), window - order.d)
    keep = order.d + order.p
    for lo in range(0, starts.size, FIT_BLOCK):
        block = starts[lo:lo + FIT_BLOCK]
        c, phi, variance = (a.tolist() for a in _fit_cls(differenced[block], order.p))
        for i, start in enumerate(block.tolist()):
            end = start + window
            yield _build(order, c[i], phi[i], variance[i], values[end - keep:end])


def forecast(model: ArimaModel, horizon: int) -> list[float]:
    """Iterate the AR recursion on the differenced scale and integrate back.

    z_hat_{t+h} = c + phi * z_hat_{t+h-1}, seeded from the last observed
    differenced value; the forecasts are cumulative-summed onto the stored
    trailing observations to land on the original scale.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d, p = model.order.d, model.order.p
    # heads[j] carries the running last value at differencing level j.
    level = [float(v) for v in model.last_observations]
    heads = []
    for _ in range(d):
        heads.append(level[-1])
        level = [b - a for a, b in zip(level, level[1:])]
    z_prev = level[-1] if p == 1 else 0.0
    out = []
    for _ in range(horizon):
        z_hat = model.c + model.phi * z_prev if p == 1 else model.c
        z_prev = z_hat
        value = z_hat
        for j in range(d - 1, -1, -1):
            heads[j] += value
            value = heads[j]
        out.append(float(value))
    return out


def check_residuals(model: ArimaModel, series: TimeSeries) -> ResidualDiagnostics:
    """Recompute in-sample residuals for ``series`` (the fitting series)
    and flag suspected leftover structure when the lag-1 residual
    autocorrelation leaves the 2/sqrt(n) white-noise band."""
    z = difference(series, model.order.d).values
    if z.size < model.order.p + 3:
        raise ValueError("series too short to diagnose against this model")
    if model.order.p == 1:
        residuals = z[1:] - model.c - model.phi * z[:-1]
    else:
        residuals = z - model.c
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


def reanchor(model: ArimaModel, series: TimeSeries) -> ArimaModel:
    """Reuse fitted parameters but forecast from the tail of ``series``.

    Supports the fit-once deployment style: parameters are estimated on
    historical data and the forecast origin follows the live window.
    """
    needed = model.order.d + model.order.p
    if len(series) < needed:
        raise ValueError(f"series must hold at least {needed} observations")
    return ArimaModel(order=model.order, phi=model.phi, c=model.c,
                      last_observations=series.tail(needed).tolist(),
                      residual_variance=model.residual_variance)
