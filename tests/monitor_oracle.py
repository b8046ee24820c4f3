"""Reference per-tick monitor loop, kept as an oracle for ``cmd_monitor``.

This is the loop ``monitor`` ran before it processed ticks in blocks:
each tick moves the current model's forecast origin to the tail of its
window, forecasts with the scalar ``arima_oracle.forecast``, classifies
each specification step by step and ranks the tactics with
``rank_tactics``. Each tick's entries are JSON-ready dicts, one per spec in
the given order: ``{"name", "status", "first_violation_step", "forecast",
"tactics"}``, where ``tactics`` lists each ranked estimate as ``{"name",
"latency", "cost", "utility", "rank"}`` (empty for a healthy spec or
without tactics), or ``{"name", "error"}`` when the forecast failed.
Each refit fits its own window with ``arima_oracle.fit_arima``. It never
calls the block kernel, ``fit_arima_windows`` or ``forecast_paths``, so
comparing its bytes with ``cli.main`` checks the kernel, the block fits
and the tick lines against independent code.
"""

from __future__ import annotations

import json
from typing import Sequence

from arima_oracle import fit_arima, forecast
from proadapt.arima import ArimaModel, FitError
from proadapt.types import Direction, SlaSpec, TimeSeries, order_specs_by_reward
from proadapt.workflow import SpecStatus, TacticEstimate, rank_tactics


def classify(spec: SlaSpec, history: TimeSeries, predicted: Sequence[float],
             risk_margin: float) -> tuple[SpecStatus, int | None]:
    """Broken when the current value violates, at risk from the first
    forecast step inside the risk band (returned as the second item),
    healthy otherwise."""
    last = float(history.values[-1])
    if (last > spec.threshold if spec.direction is Direction.UPPER_BOUND
            else last < spec.threshold):
        return SpecStatus.BROKEN, None
    margin_width = risk_margin * abs(spec.threshold)
    for step, value in enumerate(predicted, start=1):
        if spec.direction is Direction.UPPER_BOUND:
            inside = value > spec.threshold - margin_width
        else:
            inside = value < spec.threshold + margin_width
        if inside:
            return SpecStatus.AT_RISK, step
    return SpecStatus.HEALTHY, None


def reference_tick(ordered: Sequence[SlaSpec], history: TimeSeries,
                   estimates: Sequence[TacticEstimate], horizon: int, risk_margin: float,
                   tick_seconds: float, model) -> list[dict]:
    try:
        moved = ArimaModel(model.phi, model.c, history.tail(2), model.residual_variance)
        predicted = forecast(moved, horizon)
    except ValueError as exc:
        return [{"name": spec.name, "error": str(exc)} for spec in ordered]
    entries = []
    for spec in ordered:
        status, step = classify(spec, history, predicted, risk_margin)
        ranked = []
        if status is not SpecStatus.HEALTHY and estimates:
            ranked = rank_tactics(estimates, status, step, tick_seconds)
        entries.append({
            "name": spec.name, "status": status.value, "first_violation_step": step,
            "forecast": list(predicted),
            "tactics": [{"name": e.tactic_name, "latency": e.predicted_latency,
                         "cost": e.predicted_cost, "utility": e.utility_score, "rank": rank}
                        for rank, e in enumerate(ranked, start=1)],
        })
    return entries


def reference_monitor(specs: Sequence[SlaSpec], history: TimeSeries, window: int,
                      horizon: int, risk_margin: float, tick_seconds: float,
                      refit_every: int, estimates: Sequence[TacticEstimate]
                      ) -> tuple[str, str]:
    """The stdout and stderr text ``monitor`` writes for these inputs."""
    ordered = order_specs_by_reward(specs)
    ticks = len(history) - window + 1
    every = refit_every or ticks
    model, fit_error = None, ""
    out, err = [], []
    for tick in range(ticks):
        if tick % every == 0:
            try:
                model = fit_arima(TimeSeries(history.values[tick:tick + window]))
            except FitError as exc:
                fit_error = str(exc)
                err.append(f"warning: tick {tick}: refit failed: {fit_error}\n")
        if model is None:
            entries = [{"name": spec.name, "error": fit_error} for spec in ordered]
        else:
            window_series = TimeSeries(history.values[tick:tick + window])
            entries = reference_tick(ordered, window_series, estimates, horizon, risk_margin,
                                     tick_seconds, model)
        out += [json.dumps({"tick": tick, **entry}) + "\n" for entry in entries]
    return "".join(out), "".join(err)
