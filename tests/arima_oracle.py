"""Reference one-model ARIMA(1, 1, 0) fit and forecast, kept as oracles for
``arima.fit_arima`` and ``arima.forecast``.

These are the two functions as they ran before they became one-case calls
of the array kernels: ``fit_arima`` differences the whole series itself and
solves it as a stack of one row with ``fit_cls``, the CLS kernel as it ran
when every row of a stack had one length, and ``forecast`` iterates the
recursion in Python floats, one step at a time. None of them calls
``arima._fit_cls``, ``fit_arima_windows`` or ``forecast_paths``.
"""

from __future__ import annotations

import math

import numpy as np

from proadapt.arima import _RANK_TOL, ArimaModel, _fit_error, _length_error, forecast_error
from proadapt.types import TimeSeries


def fit_cls(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional least squares on each row of the 2-D stack ``z`` of
    equal-length differenced windows; returns the arrays (c, phi, residual
    variance). Closed form from centred sums, phi = Sxy / Sxx and
    c = ybar - phi * xbar, except that a finite row whose lag design is
    rank-deficient up to ``_RANK_TOL`` takes ``lstsq``'s minimum-norm
    answer. Sums that overflow give non-finite results."""
    x, y = z[:, :-1], z[:, 1:]
    m = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        xbar, ybar = x.mean(axis=1), y.mean(axis=1)
        xc, yc = x - xbar[:, None], y - ybar[:, None]
        sxx = (xc * xc).sum(axis=1)
        deficient = ~(np.sqrt(m * sxx) > _RANK_TOL * (m + (x * x).sum(axis=1)))
        phi = (xc * yc).sum(axis=1) / np.where(deficient, 1.0, sxx)
        c = ybar - phi * xbar
        residuals = yc - phi[:, None] * xc
        variance = (residuals * residuals).mean(axis=1)
        for i in np.flatnonzero(deficient):
            if np.isfinite(z[i]).all():
                design = np.column_stack([np.ones(z[i].size - 1), z[i, :-1]])
                coef, *_ = np.linalg.lstsq(design, z[i, 1:], rcond=None)
                lstsq_residuals = z[i, 1:] - design @ coef
                c[i], phi[i] = coef
                variance[i] = np.mean(lstsq_residuals**2)
    return c, phi, variance


def fit_arima(series: TimeSeries) -> ArimaModel:
    """Difference ``series`` once and fit the AR(1) part by conditional
    least squares; raises the ``FitError`` of a series that is too short,
    a fit that is not stationary, or one that overflows."""
    error = _length_error(len(series))
    if error is not None:
        raise error
    # A difference that overflows is inf, which _fit_error rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        differenced = np.diff(series.values)
    c, phi, variance = (float(a[0]) for a in fit_cls(differenced[None]))
    error = _fit_error(c, phi, variance)
    if error is not None:
        raise error
    return ArimaModel(phi=phi, c=c, last_observations=series.tail(2),
                      residual_variance=variance)


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
