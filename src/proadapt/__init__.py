"""Volatility-aware decision support for self-adaptive systems.

The package forecasts monitored SLA quantities with a differenced
first-order autoregressive model, predicts adaptation-tactic latency and
cost at run time with multiple regression, ranks tactics when a
specification is potentially broken, and ships a seeded replication
harness plus a volatility-trace emulator for evaluating all of it.

Other names than those re-exported here are imported from their module,
for example ``proadapt.metrics.mae``.
"""

from .arima import (ArimaModel, FitError, ResidualDiagnostics, acf, check_residuals,
                    difference, fit_arima, fit_arima_windows, forecast, pacf)
from .emulator import (EmulatorConfig, Mirror, Phase, SAMPLE_TACTIC_A, SAMPLE_TACTIC_B,
                       TraceFormatError, TraceRecord, generate_trace, ingest_trace_csv,
                       run_cost_impact_simulation, to_idle_series, to_regression_dataset,
                       write_trace_csv)
from .metrics import (ExperimentReport, Summary, rmse, run_forecast_experiments,
                      run_predictor_experiments, summarize, write_reports_csv)
from .regression import DesignMatrix, RegressionModel, ResponseVector, fit_mra
from .types import (Direction, SlaSpec, Tactic, TimeSeries, UtilityParams,
                    order_specs_by_reward)
from .workflow import (SpecStatus, TacticEstimate, TacticModels, TickEntry, WorkflowConfig,
                       price_tactics, rank_tactics, workflow_tick)

__version__ = "0.1.0"
