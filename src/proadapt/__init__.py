"""Volatility-aware decision support for self-adaptive systems.

The package forecasts monitored SLA quantities with a differenced
first-order autoregressive model, predicts adaptation-tactic latency and
cost at run time with multiple regression, ranks tactics when a
specification is potentially broken, and ships a seeded replication
harness plus a volatility-trace emulator for evaluating all of it.
"""

from .arima import (ArimaModel, FitError, ResidualDiagnostics, acf, check_residuals,
                    difference, fit_arima, fit_arima_windows, forecast, pacf, reanchor)
from .emulator import (EmulatorConfig, LatencyShape, Mirror, MirrorSettings, Phase,
                       SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, TacticProfile, TraceFormatError,
                       TraceRecord, generate_trace, ingest_trace_csv,
                       run_cost_impact_simulation, sample_latency, to_idle_series,
                       to_regression_dataset, trace_csv_text, write_trace_csv)
from .metrics import (ExperimentReport, ScorePair, Summary, mae, reports_to_csv_text,
                      rmse, run_forecast_experiments, run_predictor_experiments,
                      split_train_test, summarize, write_reports_csv)
from .regression import (DesignMatrix, Prediction, RegressionModel, ResponseVector,
                         baseline_mean, error_function, fit_bayesian_ridge, fit_mra,
                         predict)
from .types import (Direction, SlaSpec, Tactic, TimeSeries, UtilityParams,
                    order_specs_by_reward, utility)
from .workflow import (SpecAnalysis, SpecStatus, TacticEstimate, TacticModels,
                       TickEntry, WorkflowConfig, analyze_specification, rank_tactics,
                       workflow_tick)

__version__ = "0.1.0"
