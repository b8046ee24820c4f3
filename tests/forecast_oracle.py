"""Reference per-run forecast harness, kept as an oracle for
``metrics.run_forecast_experiments``.

This is the harness as it ran before forecast runs went through array
passes: every run splits the series with ``split_train_test``, fits on the
training part with ``arima_oracle.fit_arima``, forecasts the test window
with the scalar ``arima_oracle.forecast`` and scores each model with
``rmse`` and ``mae``; each run's seed is ``seed_oracle.subseed``'s. It
builds one ``report_oracle.Row`` per run and model, persistence before
arima, as the library's grid orders them.
"""

from __future__ import annotations

import math

import numpy as np

from arima_oracle import fit_arima, forecast
from proadapt.metrics import (FORECAST_MODEL, MIN_TEST_POINTS, MIN_TRAIN_POINTS,
                              PERSISTENCE_MODEL, TRAIN_FRACTION, mae, rmse)
from proadapt.types import TimeSeries
from report_oracle import Row
from seed_oracle import subseed


def split_train_test(series: TimeSeries, train_fraction: float,
                     seed: int) -> tuple[TimeSeries, TimeSeries]:
    """Cut a contiguous test window at a seeded uniform-random position.

    The window length is round((1 - train_fraction) * n); training data is
    everything before the window and points after it are discarded, so no
    future observation leaks into the fit.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = len(series)
    test_len = int(round((1.0 - train_fraction) * n))
    if test_len < MIN_TEST_POINTS:
        raise ValueError(f"test window of {test_len} points is below the "
                         f"{MIN_TEST_POINTS}-point floor")
    last_start = n - test_len
    if last_start < MIN_TRAIN_POINTS:
        raise ValueError(f"series too short to leave {MIN_TRAIN_POINTS} training points")
    rng = np.random.default_rng(seed)
    start = int(rng.integers(MIN_TRAIN_POINTS, last_start + 1))
    values = series.values
    return TimeSeries(values[:start]), TimeSeries(values[start:start + test_len])


def _score(predicted, actual, run: int, model: str) -> tuple[float, float]:
    scores = rmse(predicted, actual), mae(predicted, actual)
    if not all(math.isfinite(score) for score in scores):
        raise ValueError(f"run {run}, model {model!r}: scores overflow "
                         f"(rmse={scores[0]!r}, mae={scores[1]!r})")
    return scores


def reference_forecast_experiments(series: TimeSeries, n_runs: int,
                                   seed: int) -> list[Row]:
    """The per-run harness; same arguments as the library's, and its
    reports as rows."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    rows: list[Row] = []
    for run in range(n_runs):
        run_seed = subseed(seed, run)
        try:
            train, test = split_train_test(series, TRAIN_FRACTION, run_seed)
        except ValueError as exc:
            for model in (PERSISTENCE_MODEL, FORECAST_MODEL):
                rows.append(Row(run, model, None, None, run_seed, str(exc)))
            continue
        actual = test.values
        persistence = np.full(len(test), train.values[-1])
        scores = _score(persistence, actual, run, PERSISTENCE_MODEL)
        rows.append(Row(run, PERSISTENCE_MODEL, *scores, run_seed))
        try:
            model = fit_arima(train)
            predicted = forecast(model, len(test))
        except ValueError as exc:
            rows.append(Row(run, FORECAST_MODEL, None, None, run_seed, str(exc)))
        else:
            scores = _score(predicted, actual, run, FORECAST_MODEL)
            rows.append(Row(run, FORECAST_MODEL, *scores, run_seed))
    return rows
