"""The monitoring/decision loop body.

``price_tactics`` turns each tactic's trained models and feature vector
into latency, cost and utility estimates. The loop then forecasts the
monitored series and walks the SLA specifications in descending-reward
order, classifying each as healthy, at risk, or broken. Only a
potentially broken specification (at risk or already violated) gets the
estimates, ranked against its own deadline; a healthy one gets none.

``workflow_block`` is the kernel: for a block of consecutive ticks, given
each tick's last two observations and model coefficients, it forecasts
every tick in one array recursion (the same float operations in the same
order as ``arima.forecast``, so the values are bit-identical), finds each
tick's first non-finite step, and classifies every specification of every
tick with array comparisons. ``workflow_tick`` is its one-tick case and
returns per-spec ``TickEntry`` objects; ``monitor`` calls the kernel once
per block of ticks.

Both are pure functions of their inputs, so ticks for disjoint systems can
run concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .arima import ArimaModel, fit_arima, forecast_error, reanchor
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
    "TickBlock",
    "STATUSES",
    "price_tactics",
    "rank_tactics",
    "workflow_block",
    "workflow_tick",
]

COST_FLOOR = 1e-6  # the utility divides by cost, so priced costs are floored here


class SpecStatus(enum.Enum):
    HEALTHY = "healthy"
    AT_RISK = "at_risk"
    BROKEN = "broken"


# A TickBlock's status code i stands for STATUSES[i].
STATUSES = (SpecStatus.HEALTHY, SpecStatus.AT_RISK, SpecStatus.BROKEN)
_HEALTHY, _AT_RISK, _BROKEN = range(3)


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
    """

    horizon: int = 5
    risk_margin: float = 0.10
    tick_seconds: float = 6.0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.risk_margin < 1.0:
            raise ValueError("risk_margin must lie in [0, 1)")
        _check_tick_seconds(self.tick_seconds)


def _check_tick_seconds(tick_seconds: float) -> None:
    # A NaN or infinite tick length would make every deadline NaN or
    # infinite, so every tactic would count as ready in time.
    if not (math.isfinite(tick_seconds) and tick_seconds > 0):
        raise ValueError(f"tick_seconds must be finite and > 0, got {tick_seconds!r}")


@dataclass(frozen=True)
class TickEntry:
    """Per-spec tick outcome; ``error`` is set when analysis failed."""

    spec_name: str
    analysis: SpecAnalysis | None
    estimates: tuple[TacticEstimate, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class TickBlock:
    """Forecasts and classifications of a block of n ticks and k specs.

    ``forecasts`` is (n, horizon). ``nonfinite_step`` (n,) holds each
    tick's first 1-based step that is not finite, 0 when all are; the
    classification of such a tick is meaningless. ``status`` (n, k) holds
    codes into ``STATUSES``, and ``first_step`` (n, k) the 1-based step
    that first enters the risk band of an AT_RISK spec, 0 otherwise.
    """

    forecasts: np.ndarray
    nonfinite_step: np.ndarray
    status: np.ndarray
    first_step: np.ndarray


def workflow_block(specs: Sequence[SlaSpec], last: Sequence[float],
                   previous: Sequence[float], phi: Sequence[float], c: Sequence[float],
                   config: WorkflowConfig) -> TickBlock:
    """Forecast and classify n ticks, each from its last two observations
    (``previous``, ``last``) under its model coefficients ``phi`` and ``c``.

    The forecast iterates z = c + phi * z from z = last - previous and adds
    each z onto the running last value, as ``arima.forecast`` does. A spec
    is broken when the tick's last value violates it, at risk from the
    first forecast step inside its risk band (strict on the approach side,
    so a zero margin means "a step violates"), healthy otherwise. ``specs``
    are taken in the given order.
    """
    last, previous, phi, c = (np.asarray(a, dtype=float)
                              for a in (last, previous, phi, c))
    steps = np.empty((config.horizon, last.size))
    status = np.empty((last.size, len(specs)), dtype=np.int8)
    first_step = np.zeros((last.size, len(specs)), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        z = last - previous
        running = last
        # In place, since per-step call overhead dominates when a long
        # horizon makes the block short.
        for row in steps:
            np.multiply(phi, z, out=z)
            np.add(c, z, out=z)
            np.add(running, z, out=row)
            running = row
        bad = ~np.isfinite(steps)
        nonfinite_step = np.where(bad.any(axis=0), bad.argmax(axis=0) + 1, 0)
        for j, spec in enumerate(specs):
            margin_width = config.risk_margin * abs(spec.threshold)
            if spec.direction is Direction.UPPER_BOUND:
                now, band = last > spec.threshold, steps > spec.threshold - margin_width
            else:
                now, band = last < spec.threshold, steps < spec.threshold + margin_width
            at_risk = band.any(axis=0) & ~now
            status[:, j] = np.where(now, _BROKEN, np.where(at_risk, _AT_RISK, _HEALTHY))
            first_step[at_risk, j] = band.argmax(axis=0)[at_risk] + 1
    return TickBlock(steps.T, nonfinite_step, status, first_step)


def price_tactics(tactics: Sequence[Tactic], registry: Mapping[str, TacticModels],
                  features: Mapping[str, Sequence[float]],
                  utility_params: UtilityParams | None = None,
                  ) -> tuple[TacticEstimate, ...]:
    """Unranked estimates of every tactic, in input order: predicted
    latency (seconds) and cost (units), each clamped at 0.

    ``utility_params``, when given, scores each tactic with the interval
    utility using its predicted cost (floored at ``COST_FLOOR`` since the
    utility divides by cost); without them every utility score is 0 and
    ranking falls through to predicted cost. Raises ``ValueError`` naming
    the tactic when it has no models, or no feature vector of its models'
    width.
    """
    estimates = []
    for tactic in tactics:
        models = registry.get(tactic.name)
        if models is None:
            raise ValueError(f"tactic {tactic.name!r}: no trained models")
        x = features.get(tactic.name, ())
        try:
            latency = predict(models.latency_model, x).value
            cost = predict(models.cost_model, x).value
        except ValueError as exc:
            raise ValueError(f"tactic {tactic.name!r}: {exc}") from None
        if utility_params is not None:
            score = utility(utility_params.with_cost(max(cost, COST_FLOOR)))
        else:
            score = 0.0
        estimates.append(TacticEstimate(tactic.name, latency, cost, score))
    return tuple(estimates)


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
    _check_tick_seconds(tick_seconds)
    if analysis.status is SpecStatus.BROKEN:
        deadline = 0.0
    elif analysis.status is SpecStatus.AT_RISK:
        deadline = analysis.first_violation_step * tick_seconds
    else:
        deadline = math.inf
    return sorted(estimates,
                  key=lambda e: (e.predicted_latency > deadline,
                                 -e.utility_score, e.predicted_cost))


def workflow_tick(specs: Sequence[SlaSpec], history: TimeSeries,
                  estimates: Sequence[TacticEstimate] = (),
                  config: WorkflowConfig | None = None,
                  model: ArimaModel | None = None) -> list[TickEntry]:
    """One pass over all specifications in descending-reward order: the
    one-tick case of ``workflow_block``.

    ``history`` is forecast once, by re-anchoring ``model`` on its tail or,
    without a model, by fitting ARIMA(1, 1, 0) on it; a forecast failure
    becomes the error of every entry. Each potentially broken (at-risk or
    broken) specification ranks ``estimates`` against its own deadline.
    """
    cfg = config or WorkflowConfig()
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("spec names must be unique")
    ordered = order_specs_by_reward(specs)
    try:
        fitted = fit_arima(history) if model is None else reanchor(model, history)
    except ValueError as exc:
        return [TickEntry(spec.name, None, error=str(exc)) for spec in ordered]
    previous, last = fitted.last_observations
    block = workflow_block(ordered, [last], [previous], [fitted.phi], [fitted.c], cfg)
    step = int(block.nonfinite_step[0])
    if step:
        error = forecast_error(step)
        return [TickEntry(spec.name, None, error=error) for spec in ordered]
    predicted = tuple(block.forecasts[0].tolist())
    entries = []
    for spec, code, first in zip(ordered, block.status[0].tolist(),
                                 block.first_step[0].tolist()):
        analysis = SpecAnalysis(spec.name, predicted, STATUSES[code], first or None)
        if analysis.status is SpecStatus.HEALTHY or not estimates:
            entries.append(TickEntry(spec.name, analysis))
        else:
            ranked = rank_tactics(estimates, analysis, cfg.tick_seconds)
            entries.append(TickEntry(spec.name, analysis, tuple(ranked)))
    return entries
