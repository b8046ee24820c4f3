"""One rule for integer arguments across the public API.

Every integer argument rejects a bool and a float with ``TypeError`` and a
value below its least value with ``ValueError``, and the message starts
with the argument's name. ``types.check_real`` is the matching rule for
real arguments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from proadapt import (SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, ArimaModel, DesignMatrix,
                      ResponseVector, TimeSeries, WorkflowConfig, acf, fit_arima_windows,
                      forecast, generate_trace, pacf, run_cost_impact_simulation,
                      run_forecast_experiments, run_predictor_experiments)
from proadapt.arima import forecast_paths
from proadapt.emulator import sample_latency
from proadapt.types import check_real

SERIES = TimeSeries(np.sin(np.arange(40.0)))
MODEL = ArimaModel(0.5, 0.0, (1.0, 2.0), 0.0)
X = DesignMatrix(np.column_stack([np.ones(40), np.arange(40.0)]))
T = ResponseVector(np.arange(40.0))

# (argument name, least value, the call with the argument set to a value)
INTEGER_ARGUMENTS = [
    pytest.param("duration_minutes", 1, lambda v: generate_trace(v, 0),
                 id="generate_trace-duration_minutes"),
    pytest.param("seed", 0, lambda v: generate_trace(1, v), id="generate_trace-seed"),
    pytest.param("seed", 0, lambda v: sample_latency(SAMPLE_TACTIC_A, v, 3),
                 id="sample_latency-seed"),
    pytest.param("n", 1, lambda v: sample_latency(SAMPLE_TACTIC_A, 0, v),
                 id="sample_latency-n"),
    pytest.param("n_runs", 1, lambda v: run_cost_impact_simulation(
        SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, v, 0), id="run_cost_impact_simulation-n_runs"),
    pytest.param("seed", 0, lambda v: run_cost_impact_simulation(
        SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, 3, v), id="run_cost_impact_simulation-seed"),
    pytest.param("n_runs", 1, lambda v: run_forecast_experiments(SERIES, v, 0),
                 id="run_forecast_experiments-n_runs"),
    pytest.param("seed", 0, lambda v: run_forecast_experiments(SERIES, 3, v),
                 id="run_forecast_experiments-seed"),
    pytest.param("n_runs", 1, lambda v: run_predictor_experiments(X, T, v, 0, 1.0),
                 id="run_predictor_experiments-n_runs"),
    pytest.param("seed", 0, lambda v: run_predictor_experiments(X, T, 3, v, 1.0),
                 id="run_predictor_experiments-seed"),
    pytest.param("horizon", 1, lambda v: WorkflowConfig(horizon=v),
                 id="WorkflowConfig-horizon"),
    pytest.param("max_lag", 1, lambda v: acf(SERIES, v), id="acf-max_lag"),
    pytest.param("max_lag", 1, lambda v: pacf(SERIES, v), id="pacf-max_lag"),
    pytest.param("horizon", 1, lambda v: forecast(MODEL, v), id="forecast-horizon"),
    pytest.param("horizon", 1, lambda v: forecast_paths([2.0], [1.0], [0.5], [0.0], v),
                 id="forecast_paths-horizon"),
    pytest.param("window", 1, lambda v: fit_arima_windows(SERIES, v, [0]),
                 id="fit_arima_windows-window"),
    pytest.param("starts", 0, lambda v: fit_arima_windows(SERIES, 20, [v]),
                 id="fit_arima_windows-starts"),
]


@pytest.mark.parametrize("name, least, call", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("value", ["bool", "float", "below"])
def test_integer_arguments_follow_one_rule(name, least, call, value):
    value = {"bool": True, "float": 2.5, "below": least - 1}[value]
    with pytest.raises((TypeError, ValueError)) as raised:
        call(value)
    assert str(raised.value).startswith(f"{name} must ")


@pytest.mark.parametrize("value, error, message", [
    (True, TypeError, "x must be a real number, got True"),
    ("1.0", TypeError, "x must be a real number, got '1.0'"),
    (1 + 0j, TypeError, "x must be a real number, got (1+0j)"),
    (math.nan, ValueError, "x must be finite, got nan"),
    (-math.inf, ValueError, "x must be finite, got -inf")])
def test_check_real_rejects(value, error, message):
    with pytest.raises(error) as raised:
        check_real("x", value)
    assert str(raised.value) == message


@pytest.mark.parametrize("value", [0, -3, 2.5, np.float32(1.5), np.int64(7), -1e308])
def test_check_real_accepts_finite_reals(value):
    check_real("x", value)
