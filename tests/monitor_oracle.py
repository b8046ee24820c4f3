"""Reference per-tick monitor loop, kept as an oracle for ``cmd_monitor``.

This is the loop ``monitor`` ran before it processed ticks in blocks:
each tick re-anchors the current model on its window, forecasts with the
scalar ``arima.forecast``, classifies each specification step by step,
ranks the tactics with ``rank_tactics`` and serialises each entry with
``tick_entry_to_dict`` and ``json.dumps``. It never calls the block
kernel, so comparing its bytes with ``cli.main`` checks the kernel and the
line templates against independent code.
"""

from __future__ import annotations

import json
from typing import Sequence

from proadapt.arima import FitError, fit_arima_windows, forecast, reanchor
from proadapt.types import Direction, SlaSpec, TimeSeries, order_specs_by_reward
from proadapt.workflow import (SpecAnalysis, SpecStatus, TacticEstimate, TickEntry,
                               WorkflowConfig, rank_tactics)


def tick_entry_to_dict(entry: TickEntry) -> dict:
    """JSON-ready view of one spec's tick outcome."""
    if entry.error is not None:
        return {"name": entry.spec_name, "error": entry.error}
    analysis = entry.analysis
    return {
        "name": entry.spec_name,
        "status": analysis.status.value,
        "first_violation_step": analysis.first_violation_step,
        "forecast": list(analysis.forecast_values),
        "tactics": [
            {"name": e.tactic_name, "latency": e.predicted_latency,
             "cost": e.predicted_cost, "utility": e.utility_score, "rank": rank}
            for rank, e in enumerate(entry.estimates, start=1)
        ],
    }


def classify(spec: SlaSpec, history: TimeSeries, predicted: tuple[float, ...],
             risk_margin: float) -> SpecAnalysis:
    """Broken when the current value violates, at risk from the first
    forecast step inside the risk band, healthy otherwise."""
    if spec.violates(float(history.values[-1])):
        return SpecAnalysis(spec.name, predicted, SpecStatus.BROKEN)
    margin_width = risk_margin * abs(spec.threshold)
    for step, value in enumerate(predicted, start=1):
        if spec.direction is Direction.UPPER_BOUND:
            inside = value > spec.threshold - margin_width
        else:
            inside = value < spec.threshold + margin_width
        if inside:
            return SpecAnalysis(spec.name, predicted, SpecStatus.AT_RISK,
                                first_violation_step=step)
    return SpecAnalysis(spec.name, predicted, SpecStatus.HEALTHY)


def reference_tick(ordered: Sequence[SlaSpec], history: TimeSeries,
                   estimates: Sequence[TacticEstimate], config: WorkflowConfig,
                   model) -> list[TickEntry]:
    try:
        predicted = tuple(forecast(reanchor(model, history), config.horizon))
    except ValueError as exc:
        return [TickEntry(spec.name, None, error=str(exc)) for spec in ordered]
    entries = []
    for spec in ordered:
        analysis = classify(spec, history, predicted, config.risk_margin)
        if analysis.status is SpecStatus.HEALTHY or not estimates:
            entries.append(TickEntry(spec.name, analysis))
        else:
            ranked = rank_tactics(estimates, analysis, config.tick_seconds)
            entries.append(TickEntry(spec.name, analysis, tuple(ranked)))
    return entries


def reference_monitor(specs: Sequence[SlaSpec], history: TimeSeries, window: int,
                      config: WorkflowConfig, refit_every: int,
                      estimates: Sequence[TacticEstimate]) -> tuple[str, str]:
    """The stdout and stderr text ``monitor`` writes for these inputs."""
    ordered = order_specs_by_reward(specs)
    ticks = len(history) - window + 1
    every = refit_every or ticks
    fits = fit_arima_windows(history, window, range(0, ticks, every))
    model, fit_error = None, ""
    out, err = [], []
    for tick in range(ticks):
        if tick % every == 0:
            fitted = next(fits)
            if isinstance(fitted, FitError):
                fit_error = str(fitted)
                err.append(f"warning: tick {tick}: refit failed: {fit_error}\n")
            else:
                model = fitted
        if model is None:
            entries = [TickEntry(spec.name, None, error=fit_error) for spec in ordered]
        else:
            window_series = TimeSeries(history.values[tick:tick + window])
            entries = reference_tick(ordered, window_series, estimates, config, model)
        out += [json.dumps({"tick": tick, **tick_entry_to_dict(entry)}) + "\n"
                for entry in entries]
    return "".join(out), "".join(err)
