"""The monitoring/decision loop body.

One tick walks the SLA specifications in descending-reward order,
forecasts each monitored series, and classifies it as healthy, at risk,
or broken. Latency and cost estimates for the available tactics are
produced only when a specification is potentially broken (at risk or
already violated); healthy specifications yield no estimates.

``workflow_tick`` is a pure function of its inputs: the model registry is
read-only during a tick and ticks for disjoint systems can run
concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .arima import ArimaModel, fit_arima, forecast, reanchor
from .regression import RegressionModel, predict
from .types import (Direction, SlaSpec, Tactic, TimeSeries, UtilityParams,
                    order_specs_by_reward, utility)

__all__ = [
    "SpecStatus",
    "SpecAnalysis",
    "TacticEstimate",
    "TacticModels",
    "WorkflowConfig",
    "TickEntry",
    "analyze_specification",
    "rank_tactics",
    "workflow_tick",
    "tick_entry_to_dict",
]

COST_FLOOR = 1e-6  # the utility divides by cost, so priced costs are floored here


class SpecStatus(enum.Enum):
    HEALTHY = "healthy"
    AT_RISK = "at_risk"
    BROKEN = "broken"


@dataclass(frozen=True)
class SpecAnalysis:
    """Forecast and classification for one specification.

    ``first_violation_step`` is the 1-based forecast step that first
    violates or enters the risk margin; it is set only for AT_RISK (a
    BROKEN spec is violated now, not at a future step).
    """

    spec_name: str
    forecast_values: tuple[float, ...]
    status: SpecStatus
    first_violation_step: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "forecast_values", tuple(self.forecast_values))
        if (self.status is SpecStatus.AT_RISK) != (self.first_violation_step is not None):
            raise ValueError("first_violation_step must be set exactly for AT_RISK")
        if self.first_violation_step is not None and not (
                1 <= self.first_violation_step <= len(self.forecast_values)):
            raise ValueError("first_violation_step must lie in [1, horizon]")


@dataclass(frozen=True)
class TacticEstimate:
    tactic_name: str
    predicted_latency: float
    predicted_cost: float
    utility_score: float

    def __post_init__(self) -> None:
        if self.predicted_latency < 0 or self.predicted_cost < 0:
            raise ValueError("predicted latency and cost must be >= 0 (post-clamp)")


@dataclass(frozen=True)
class TacticModels:
    """Trained regression models for one tactic's latency and cost."""

    latency_model: RegressionModel
    cost_model: RegressionModel

    def __post_init__(self) -> None:
        for name in ("latency_model", "cost_model"):
            model = getattr(self, name)
            if not isinstance(model, RegressionModel):
                raise ValueError(f"{name} must be a RegressionModel, "
                                 f"got {type(model).__name__}")


@dataclass(frozen=True)
class WorkflowConfig:
    """Loop knobs.

    ``risk_margin`` widens the threshold band: a forecast within
    margin * |threshold| of the threshold (on the approaching side) counts
    as potentially broken. For a zero threshold the band has width 0
    whatever the margin, so AT_RISK then means a forecast step violates.
    ``utility_params``, when given, scores each tactic with the interval
    utility using its predicted cost (floored at ``COST_FLOOR`` since the
    utility divides by cost); without them all utility scores are 0 and
    ranking falls through to predicted cost.
    """

    horizon: int = 5
    risk_margin: float = 0.10
    tick_seconds: float = 6.0
    utility_params: UtilityParams | None = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.risk_margin < 1.0:
            raise ValueError("risk_margin must lie in [0, 1)")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be > 0")


@dataclass(frozen=True)
class TickEntry:
    """Per-spec tick outcome; ``error`` is set when analysis failed."""

    spec_name: str
    analysis: SpecAnalysis | None
    estimates: tuple[TacticEstimate, ...] = ()
    error: str | None = None


def _enters_risk_band(spec: SlaSpec, value: float, margin_width: float) -> bool:
    # Strict on the approach side so that a zero margin reduces exactly to
    # "forecast violates the threshold".
    if spec.direction is Direction.UPPER_BOUND:
        return value > spec.threshold - margin_width
    return value < spec.threshold + margin_width


def _predict(history: TimeSeries, horizon: int,
             model: ArimaModel | None) -> tuple[float, ...]:
    """Forecast ``history``: fit ARIMA(1, 1, 0) on it, or re-anchor ``model``."""
    if len(history) == 0:
        raise ValueError("history must be non-empty")
    if model is None:
        model = fit_arima(history)
    else:
        model = reanchor(model, history)
    return tuple(forecast(model, horizon))


def _classify(spec: SlaSpec, history: TimeSeries, predicted: tuple[float, ...],
              risk_margin: float) -> SpecAnalysis:
    """Broken when the current value violates, at risk from the first
    forecast step inside the risk band, healthy otherwise."""
    if spec.violates(float(history.values[-1])):
        return SpecAnalysis(spec.name, predicted, SpecStatus.BROKEN)
    margin_width = risk_margin * abs(spec.threshold)
    for step, value in enumerate(predicted, start=1):
        if _enters_risk_band(spec, value, margin_width):
            return SpecAnalysis(spec.name, predicted, SpecStatus.AT_RISK,
                                first_violation_step=step)
    return SpecAnalysis(spec.name, predicted, SpecStatus.HEALTHY)


def analyze_specification(spec: SlaSpec, history: TimeSeries, horizon: int,
                          risk_margin: float,
                          model: ArimaModel | None = None) -> SpecAnalysis:
    """Forecast the monitored series and classify the specification.

    Fits ARIMA(1, 1, 0) on ``history`` unless a pre-fitted ``model`` is
    supplied, in which case its parameters are reused with the forecast
    origin re-anchored on the current history tail.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 <= risk_margin < 1.0:
        raise ValueError("risk_margin must lie in [0, 1)")
    return _classify(spec, history, _predict(history, horizon, model), risk_margin)


def _price(tactics: Sequence[Tactic], registry: Mapping[str, TacticModels],
           features: Mapping[str, Sequence[float]],
           cfg: WorkflowConfig) -> list[TacticEstimate]:
    """Unranked latency, cost and utility estimates of every tactic now:
    predicted latency (seconds) and cost (units), each clamped at 0."""
    estimates = []
    for tactic in tactics:
        models = registry[tactic.name]
        x = features[tactic.name]
        latency = predict(models.latency_model, x).value
        cost = predict(models.cost_model, x).value
        if cfg.utility_params is not None:
            score = utility(cfg.utility_params.with_cost(max(cost, COST_FLOOR)))
        else:
            score = 0.0
        estimates.append(TacticEstimate(tactic.name, latency, cost, score))
    return estimates


def rank_tactics(estimates: Sequence[TacticEstimate], analysis: SpecAnalysis,
                 tick_seconds: float) -> list[TacticEstimate]:
    """Order tactics: ready-in-time first, then by descending utility,
    then ascending cost, then input order.

    "Ready in time" means the predicted latency fits before the first
    anticipated violation; a broken specification leaves no lead time at
    all, and a healthy one imposes no deadline.
    """
    if not estimates:
        raise ValueError("estimates must be non-empty")
    if tick_seconds <= 0:
        raise ValueError("tick_seconds must be > 0")
    if analysis.status is SpecStatus.BROKEN:
        deadline = 0.0
    elif analysis.status is SpecStatus.AT_RISK:
        deadline = analysis.first_violation_step * tick_seconds
    else:
        deadline = math.inf
    return sorted(estimates,
                  key=lambda e: (e.predicted_latency > deadline,
                                 -e.utility_score, e.predicted_cost))


def workflow_tick(specs: Sequence[SlaSpec],
                  histories: Mapping[str, TimeSeries],
                  tactics: Sequence[Tactic],
                  registry: Mapping[str, TacticModels],
                  features: Mapping[str, Sequence[float]],
                  config: WorkflowConfig | None = None,
                  forecasters: Mapping[str, ArimaModel] | None = None,
                  ) -> list[TickEntry]:
    """One pass over all specifications in descending-reward order.

    Tactic estimates are produced only for potentially broken (at-risk or
    broken) specifications, and at most once per tick: they depend on the
    tactics' models and the current features, not on the specification, so
    each potentially broken specification ranks the same estimates against
    its own deadline. Specifications that share one history object and one
    forecaster are forecast once. A per-spec failure is recorded on its
    entry (on every affected entry when a shared forecast or the pricing
    fails) and the remaining specifications are still processed.
    """
    cfg = config or WorkflowConfig()
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("spec names must be unique")
    # Specs that share a series and a model share one forecast, or its error.
    predictions: dict[tuple[int, int], tuple[float, ...] | str] = {}
    # Tactic estimates do not depend on the spec: priced at the first
    # potentially broken spec, then only ranked against each deadline.
    priced: list[TacticEstimate] | str | None = None
    entries: list[TickEntry] = []
    for spec in order_specs_by_reward(specs):
        try:
            history = histories[spec.name]
            prefit = forecasters.get(spec.name) if forecasters else None
            key = (id(history), id(prefit))
            if key not in predictions:
                try:
                    predictions[key] = _predict(history, cfg.horizon, prefit)
                except ValueError as exc:
                    predictions[key] = str(exc)
            predicted = predictions[key]
            if isinstance(predicted, str):
                entries.append(TickEntry(spec.name, None, error=predicted))
                continue
            analysis = _classify(spec, history, predicted, cfg.risk_margin)
            if analysis.status is SpecStatus.HEALTHY or not tactics:
                entries.append(TickEntry(spec.name, analysis))
                continue
            if priced is None:
                try:
                    priced = _price(tactics, registry, features, cfg)
                except (ValueError, KeyError) as exc:
                    priced = str(exc)
            if isinstance(priced, str):
                entries.append(TickEntry(spec.name, None, error=priced))
                continue
            ranked = rank_tactics(priced, analysis, cfg.tick_seconds)
            entries.append(TickEntry(spec.name, analysis, tuple(ranked)))
        except (ValueError, KeyError) as exc:
            entries.append(TickEntry(spec.name, None, error=str(exc)))
    return entries


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
