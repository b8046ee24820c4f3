"""Differenced first-order autoregressive forecasting: ARIMA(1, 1, 0).

The one model is the paper's: the first difference z_t = y_t - y_{t-1}
follows z_t = c + phi * z_{t-1} + e_t with |phi| < 1. The constant c
captures drift in the differenced data.

Estimation is conditional least squares on the differenced series: the
regression of z_t on z_{t-1} plus a constant coincides with the Gaussian
maximum-likelihood estimate up to edge effects, has a closed form, and is
fully deterministic. One vectorised kernel, ``fit_arima_windows``, fits
any windows of a series at once, of one length or of one length each (a
monitor run fits all its refit windows, of one length, in one call; the
replication harness fits the prefix before each of its split starts in
one call), and one, ``forecast_paths``, forecasts n models as
arrays. Each fit's sums reduce its own window only, so a window fits to
the same bits whatever windows share its call. ``fit_arima`` (the whole
series as one window, built into an ``ArimaModel``) and ``forecast`` (one
model) are their one-case calls.

The fits and forecasts are pure functions of their inputs and
``ArimaModel`` is immutable, so models can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .types import TimeSeries, check_array, check_real, check_size, integer_array

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
WINDOW_CELLS = 1 << 15  # window differences per gather of fit_arima_windows


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
        check_real("phi", self.phi)
        check_real("c", self.c)
        check_real("residual_variance", self.residual_variance, 0)


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
    check_size("max_lag", max_lag)
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


def _fit_cls(z: np.ndarray, sizes: np.ndarray, work: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional least squares on each row of the 2-D stack ``z`` of
    differenced windows, row i's the first ``sizes[i]`` entries (the rest
    pad it), with ``sizes`` in ascending order; returns the arrays (c, phi,
    residual variance). ``work`` is a flat float buffer of at least three
    times the lag pairs of ``z``, where the centred lags and their products
    go.

    Regresses z_t on z_{t-1} plus a constant in closed form from centred
    sums, phi = Sxy / Sxx and c = ybar - phi * xbar. A finite row whose lag
    design [1, z_{t-1}] is rank-deficient up to ``_RANK_TOL`` (Sxx ~ 0,
    e.g. the constant differences of a ramp) takes ``lstsq``'s minimum-norm
    answer instead. Sums that overflow give non-finite results, which
    ``_fit_error`` rejects.

    Each sum is one ``np.add.reduce`` per run of rows of one size, over
    that size only, so it is the pairwise sum the row alone would give:
    a fit is the same to the last bit whatever rows share its stack.
    """
    x, y = z[:, :-1], z[:, 1:]
    m = sizes - 1  # lag pairs per row
    cuts = (np.flatnonzero(m[1:] != m[:-1]) + 1).tolist()
    runs = list(zip([0, *cuts], [*cuts, m.size], m[[0, *cuts]].tolist()))

    def total(values: np.ndarray) -> np.ndarray:
        out = np.empty(m.size)
        for lo, hi, pairs in runs:
            np.add.reduce(values[lo:hi, :pairs], axis=1, out=out[lo:hi])
        return out

    # Contiguous (rows, pairs) views of the buffer, as fresh arrays would be.
    xc, yc, product = work[:3 * x.size].reshape(3, *x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        xbar, ybar = total(x) / m, total(y) / m
        np.subtract(x, xbar[:, None], out=xc)
        np.subtract(y, ybar[:, None], out=yc)
        sxx = total(np.multiply(xc, xc, out=product))
        # sqrt(m * Sxx) / (m + Sx^2) is within a factor 2 of the design's
        # smallest-to-largest singular value ratio.
        deficient = ~(np.sqrt(m * sxx) > _RANK_TOL * (m + total(np.multiply(x, x, out=product))))
        phi = total(np.multiply(xc, yc, out=product)) / np.where(deficient, 1.0, sxx)
        c = ybar - phi * xbar
        residuals = np.subtract(yc, np.multiply(phi[:, None], xc, out=product), out=product)
        variance = total(np.multiply(residuals, residuals, out=product)) / m
        for i in np.flatnonzero(deficient).tolist():
            row = z[i, :sizes[i]]
            if np.isfinite(row).all():  # LAPACK cannot take inf or NaN
                c[i], phi[i], variance[i] = _fit_ar1_lstsq(row)
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
    least squares: ``fit_arima_windows`` on the one window that is the
    whole series.

    Raises :class:`FitError` when the differenced series is shorter than
    ``MIN_FIT_LENGTH``, the fitted coefficient is non-stationary
    (|phi| >= 1), or the fit overflows.
    """
    if len(series) == 0:  # the kernel takes no empty window; keep the length error
        raise _length_error(0)
    (phi,), (c,), (variance,), (error,) = fit_arima_windows(series, len(series), [0])
    if error is not None:
        raise error
    return ArimaModel(phi=float(phi), c=float(c), last_observations=series.tail(2),
                      residual_variance=float(variance))


def _window_error(n: int, window: int) -> ValueError:
    """The error of a window of ``window`` observations that does not lie
    inside a series of ``n``."""
    if window > n:
        return ValueError(f"window {window} is longer than the series of {n} observations")
    return ValueError(f"starts must lie in [0, {n - window}] for windows of {window} "
                      f"observations in a series of {n}")


def fit_arima_windows(series: TimeSeries, window: int | Sequence[int], starts: Sequence[int]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[FitError | None]]:
    """Fit each window of ``starts``: ``series.values[s:s + window]``, of
    one length ``window`` for all starts or of one length per start.

    Returns, per start and in order, the arrays (phi, c, residual variance)
    and a list of errors: the window's :class:`FitError` (too short, not
    stationary, or overflowing), or None where it fits and the arrays hold
    its coefficients. Only the span the starts cover is differenced, once;
    the windows are gathered from it in order of length, up to
    ``WINDOW_CELLS`` differences at a time, each gather padded to its
    longest window and written into one workspace that the call sizes to
    its largest gather, and every fit is bit for bit the fit of its window
    alone. ``starts`` follow ``types.integer_array`` with least value 0.
    ``window`` follows ``types.check_size``, and
    raises ``ValueError`` when longer than ``series``, with or without
    starts; per-start lengths follow ``types.integer_array`` with least
    value 1 and must be as many as the starts. A window that does not lie
    inside ``series`` raises ``ValueError``.
    """
    n = len(series)
    starts = integer_array("starts", starts, 0)
    if np.ndim(window) == 0:
        check_size("window", window)
        if window > n:
            raise _window_error(n, window)
        lengths = np.full(starts.size, window, dtype=np.intp)
    else:
        lengths = integer_array("window", window, 1)
        if lengths.size != starts.size:
            raise ValueError(f"window and starts must have one length, got {lengths.size} "
                             f"and {starts.size}")
    outside = np.flatnonzero((lengths > n) | (starts > n - lengths))
    if outside.size:
        raise _window_error(n, int(lengths[outside[0]]))
    phi, c, variance = np.full((3, starts.size), np.nan)
    errors: list[FitError | None] = [None] * starts.size
    fitted = lengths > MIN_FIT_LENGTH
    for i in np.flatnonzero(~fitted).tolist():
        errors[i] = _length_error(int(lengths[i]))
    # The windows long enough to fit, shortest first.
    rows = np.flatnonzero(fitted)
    if np.ndim(window):
        rows = rows[np.argsort(lengths[rows], kind="stable")]
    if rows.size:
        offsets, sizes = starts[rows], lengths[rows] - 1  # each window's differences
        lo, hi = int(offsets.min()), int((offsets + sizes).max()) + 1
        # A difference that overflows is inf, which _fit_error rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            differenced = np.diff(series.values[lo:hi])
        # Zeros after the span keep each window, padded to its gather's
        # longest, inside the array.
        differenced = np.concatenate([differenced, np.zeros(sizes[-1] - sizes[0])])
        offsets -= lo
        # The gathers: each the most rows whose count times the longest's
        # size stays within WINDOW_CELLS, and at least one.
        bounds, first = [], 0
        while first < rows.size:
            cells = np.arange(1, rows.size - first + 1) * sizes[first:]
            last = first + max(1, int(np.searchsorted(cells, WINDOW_CELLS, side="right")))
            bounds.append((first, last, (last - first, int(sizes[last - 1]))))
            first = last
        # One workspace for all gathers, sized to the largest: its indices,
        # its windows and _fit_cls' centred lags and products. Each gather
        # writes a contiguous view of it, so no pass faults in fresh pages.
        largest = max(count * width for _, _, (count, width) in bounds)
        index, gathered = np.empty(largest, dtype=np.intp), np.empty(largest)
        work = np.empty(3 * largest)
        steps = np.arange(int(sizes[-1]))
        for first, last, shape in bounds:
            at = index[:shape[0] * shape[1]].reshape(shape)
            np.add(offsets[first:last, None], steps[:shape[1]], out=at)
            # Row k is the window at offsets[k]. Every index lies in range;
            # "clip" writes straight into the view, where "raise" buffers.
            windows = np.take(differenced, at, mode="clip", out=gathered[:at.size].reshape(shape))
            fits = _fit_cls(windows, sizes[first:last], work)
            gather = rows[first:last]
            c[gather], phi[gather], variance[gather] = fits
    # _fit_error's test as one array pass (|phi| < 1 fails a phi that is not
    # finite); _fit_error builds the FitErrors of the windows that fail it.
    good = np.isfinite(c) & np.isfinite(variance) & (np.abs(phi) < 1.0)
    for i in np.flatnonzero(fitted & ~good).tolist():
        errors[i] = _fit_error(float(c[i]), float(phi[i]), float(variance[i]))
    return phi, c, variance, errors


def forecast_error(step: int) -> str:
    """The error of a forecast whose step ``step`` is not finite."""
    return f"forecast step {step} is not finite"


def forecast(model: ArimaModel, horizon: int) -> list[float]:
    """The ``horizon`` forecast steps of ``model``: ``forecast_paths`` on the
    one model. Raises ``ValueError`` with the ``forecast_error`` of the
    first step that overflows to a non-finite value.
    """
    previous, last = model.last_observations
    paths, (step,) = forecast_paths([last], [previous], [model.phi], [model.c], horizon)
    if step:
        raise ValueError(forecast_error(int(step)))
    return paths[:, 0].tolist()


def forecast_paths(last: Sequence[float], previous: Sequence[float],
                   phi: Sequence[float], c: Sequence[float], horizon: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The forecasts of n models, each given by its last two observations
    (``previous``, ``last``) and its coefficients ``phi`` and ``c``.

    Iterates the AR recursion on the differenced scale and integrates back:
    z_hat_{t+h} = c + phi * z_hat_{t+h-1}, seeded from the last observed
    difference, and each step adds z_hat onto the running last value.
    Returns the (horizon, n) paths, column i model i's, and each path's
    first 1-based step that is not finite, or 0 (not a raise). ``horizon``
    follows ``types.check_size``, and ``last``,
    ``previous``, ``phi`` and ``c`` follow ``types.check_array`` and must
    have one length.
    """
    check_size("horizon", horizon)
    last, previous, phi, c = (check_array(name, a) for name, a in
                              (("last", last), ("previous", previous), ("phi", phi), ("c", c)))
    if not last.size == previous.size == phi.size == c.size:
        raise ValueError(f"last, previous, phi and c must have one length, got "
                         f"{last.size}, {previous.size}, {phi.size} and {c.size}")
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
