"""Volatility-aware decision support for self-adaptive systems.

The package forecasts monitored SLA quantities with a differenced
first-order autoregressive model, predicts adaptation-tactic latency and
cost at run time with multiple regression, ranks tactics when a
specification is potentially broken, and ships a seeded replication
harness plus a volatility-trace emulator for evaluating all of it.

The names in ``__all__`` are re-exported lazily (PEP 562): ``import
proadapt`` loads no submodule, and ``from proadapt import X`` loads only
the module that defines ``X``. Other names are imported from their module,
for example ``proadapt.metrics.mae``.
"""

import importlib

# The re-exported names, by the module that defines them.
_EXPORTS = {
    "arima": ("ArimaModel", "FitError", "ResidualDiagnostics", "acf", "check_residuals",
              "difference", "fit_arima", "fit_arima_windows", "forecast", "pacf"),
    "emulator": ("Mirror", "Phase", "SAMPLE_TACTIC_A", "SAMPLE_TACTIC_B", "TraceFormatError",
                 "Trace", "generate_trace", "ingest_trace_csv",
                 "run_cost_impact_simulation", "to_idle_series", "to_regression_dataset",
                 "write_trace_csv"),
    "metrics": ("Reports", "Summary", "rmse", "run_forecast_experiments",
                "run_predictor_experiments", "summarize"),
    "regression": ("DesignMatrix", "RegressionModel", "ResponseVector", "fit_mra"),
    "types": ("Direction", "SlaSpec", "Tactic", "TimeSeries", "UtilityParams",
              "order_specs_by_reward"),
    "workflow": ("SpecStatus", "TacticEstimate", "TacticModels", "TickEntry",
                 "WorkflowConfig", "price_tactics", "rank_tactics", "workflow_tick"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a re-exported name from its module on first access, and keep it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value
