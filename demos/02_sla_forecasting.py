"""Forecasting a monitored SLA quantity with the differenced AR(1) model.

Works through the identification/estimation/checking steps on emulated
idle-energy data: difference the series, look at the autocorrelation
structure, fit, check residuals, and compare held-out forecasts against
the persistence reference.
"""

import numpy as np

from proadapt import (TimeSeries, acf, check_residuals, difference, fit_arima, forecast,
                      generate_trace, pacf, rmse, to_idle_series)

trace = generate_trace(duration_minutes=1440, seed=42)
series = to_idle_series(trace)
print(f"idle-energy series: {len(series)} one-minute readings, "
      f"range [{series.values.min():.3f}, {series.values.max():.3f}] J")

# identification: the raw series drifts, its first difference does not
diffed = difference(series)
print(f"\nlag-1..5 autocorrelation, raw series:   "
      f"{[round(v, 3) for v in acf(series, 5)]}")
print(f"lag-1..5 autocorrelation, differenced:  "
      f"{[round(v, 3) for v in acf(diffed, 5)]}")
print(f"partial autocorrelation, differenced:   "
      f"{[round(v, 3) for v in pacf(diffed, 5)]}")
print("the partial autocorrelation cuts off after lag 1: one AR term on the "
      "differenced scale is enough")

# estimation and checking on the first 90% of the data
cut = int(len(series) * 0.9)
train = TimeSeries(series.values[:cut], interval=series.interval)
test = series.values[cut:]
model = fit_arima(train)
print(f"\nfitted: phi={model.phi:.4f}, drift constant={model.c:.6f}, "
      f"residual variance={model.residual_variance:.6f}")
diagnostics = check_residuals(model, train)
print(f"residual check: mean={diagnostics.mean:.2e}, "
      f"lag-1 autocorr={diagnostics.lag1_autocorr:.4f} "
      f"(band +/-{diagnostics.threshold:.4f}) -> "
      f"{'suspect' if diagnostics.suspect else 'clear'}")

predicted = forecast(model, len(test))
persistence = np.full(len(test), train.values[-1])
print(f"\nheld-out horizon of {len(test)} minutes:")
print(f"  model rmse       {rmse(predicted, test):.4f}")
print(f"  persistence rmse {rmse(persistence, test):.4f}")
print("the drift term is what persistence lacks: a flat forecast falls "
      "behind a creeping series")
