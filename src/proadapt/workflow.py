"""The monitoring/decision loop body.

``price_tactics`` turns each tactic's trained models and feature vector
into latency, cost and utility estimates. The loop then forecasts the
monitored series and walks the SLA specifications in descending-reward
order, classifying each as healthy, at risk, or broken. Only a
potentially broken specification (at risk or already violated) gets the
estimates, ranked against its own deadline; a healthy one gets none.

``workflow_block`` is the kernel: for a block of consecutive ticks, given
each tick's last two observations and model coefficients, it forecasts
every tick with ``arima.forecast_paths`` and classifies every
specification of every tick with array comparisons. ``workflow_tick`` is
its one-tick case: it fits its history and returns per-spec ``TickEntry``
objects. ``monitor`` calls the kernel once per block of ticks.

Both are pure functions of their inputs, so ticks for disjoint systems can
run concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .arima import fit_arima, forecast_error, forecast_paths
from .types import (Direction, SlaSpec, Tactic, TimeSeries, UtilityParams, check_integer,
                    order_specs_by_reward, utility)

if TYPE_CHECKING:  # regression loads only when tactics are priced
    from .regression import RegressionModel

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
        _check_first_step(self.status, self.first_violation_step)
        if self.first_violation_step is not None and not (
                1 <= self.first_violation_step <= len(self.forecast_values)):
            raise ValueError("first_violation_step must lie in [1, horizon]")


def _check_first_step(status: SpecStatus, first_violation_step: int | None) -> None:
    if (status is SpecStatus.AT_RISK) != (first_violation_step is not None):
        raise ValueError("first_violation_step must be set exactly for AT_RISK")


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
        from .regression import RegressionModel

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
        check_integer("horizon", self.horizon, 1)
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

    The forecasts and their first non-finite steps are
    ``arima.forecast_paths``'s. A spec is broken when the tick's last
    value violates it (lies strictly above an upper bound or below a lower
    one), at risk from the first forecast step inside its risk band (strict
    on the approach side, so a zero margin means "a step violates"),
    healthy otherwise. ``specs`` are taken in the given order.
    """
    last = np.asarray(last, dtype=float)
    steps, nonfinite_step = forecast_paths(last, previous, phi, c, config.horizon)
    status = np.empty((last.size, len(specs)), dtype=np.int8)
    first_step = np.zeros((last.size, len(specs)), dtype=np.intp)
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
    from .regression import predict

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


def rank_tactics(estimates: Sequence[TacticEstimate], status: SpecStatus,
                 first_violation_step: int | None, tick_seconds: float
                 ) -> list[TacticEstimate]:
    """Order tactics: ready-in-time first, then by descending utility,
    then ascending cost, then input order.

    "Ready in time" means the predicted latency fits before the first
    anticipated violation, ``first_violation_step`` ticks ahead (given
    exactly for AT_RISK); a spec of ``status`` BROKEN leaves no lead time
    at all, and a HEALTHY one imposes no deadline.
    """
    if not estimates:
        raise ValueError("estimates must be non-empty")
    _check_tick_seconds(tick_seconds)
    _check_first_step(status, first_violation_step)
    if status is SpecStatus.BROKEN:
        deadline = 0.0
    elif status is SpecStatus.AT_RISK:
        deadline = first_violation_step * tick_seconds
    else:
        deadline = math.inf
    return sorted(estimates,
                  key=lambda e: (e.predicted_latency > deadline,
                                 -e.utility_score, e.predicted_cost))


def workflow_tick(specs: Sequence[SlaSpec], history: TimeSeries,
                  estimates: Sequence[TacticEstimate] = (),
                  config: WorkflowConfig | None = None) -> list[TickEntry]:
    """One pass over all specifications in descending-reward order: the
    one-tick case of ``workflow_block``.

    ARIMA(1, 1, 0) is fitted on ``history``, which is forecast once from its
    last two observations; a fit or forecast failure becomes the error of
    every entry. Each potentially broken (at-risk or broken) specification
    ranks ``estimates`` against its own deadline.
    """
    cfg = config or WorkflowConfig()
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("spec names must be unique")
    ordered = order_specs_by_reward(specs)
    try:
        model = fit_arima(history)
    except ValueError as exc:
        return [TickEntry(spec.name, None, error=str(exc)) for spec in ordered]
    previous, last = history.tail(2)
    block = workflow_block(ordered, [last], [previous], [model.phi], [model.c], cfg)
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
            ranked = rank_tactics(estimates, analysis.status,
                                  analysis.first_violation_step, cfg.tick_seconds)
            entries.append(TickEntry(spec.name, analysis, tuple(ranked)))
    return entries
