"""Reference one-model ARIMA(1, 1, 0) fit and forecast, kept as oracles for
``arima.fit_arima`` and ``arima.forecast``.

These are the two functions as they ran before they became one-case calls
of the array kernels: ``fit_arima`` differences the whole series itself and
solves it as a stack of one row with the CLS kernel ``arima._fit_cls``, and
``forecast`` iterates the recursion in Python floats, one step at a time.
Neither calls ``fit_arima_windows`` or ``forecast_paths``.
"""

from __future__ import annotations

import math

import numpy as np

from proadapt.arima import ArimaModel, _fit_cls, _fit_error, _length_error, forecast_error
from proadapt.types import TimeSeries


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
    c, phi, variance = (float(a[0]) for a in _fit_cls(differenced[None]))
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
