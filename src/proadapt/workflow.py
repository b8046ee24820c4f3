"""The monitoring/decision loop body.

``price_tactics`` turns each tactic's ``TacticModels`` (trained models
and current feature vector), keyed by the tactic's name, into latency,
cost and utility estimates. The loop then forecasts the
monitored series and walks the SLA specifications in descending-reward
order, classifying each as healthy, at risk, or broken. Only a
potentially broken specification (at risk or already violated) gets the
estimates, ranked against its own deadline; a healthy one gets none.

``workflow_block`` is the kernel: for a block of consecutive ticks, given
each tick's last two observations and model coefficients, it forecasts
every tick with ``arima.forecast_paths`` and classifies every
specification of every tick with array comparisons. ``monitor`` calls
it once per block of ticks, and ``rank_tactics`` ranks the estimates of
each potentially broken specification.

The kernel is a pure function of its inputs, so ticks for disjoint
systems can run concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .arima import forecast_paths
from .types import Direction, SlaSpec, UtilityParams, check_array, check_real, utility

if TYPE_CHECKING:  # regression loads only when tactics are priced
    from .regression import RegressionModel

__all__ = [
    "SpecStatus",
    "TacticEstimate",
    "TacticModels",
    "STATUSES",
    "check_risk_margin",
    "price_tactics",
    "rank_tactics",
    "workflow_block",
]

COST_FLOOR = 1e-6  # the utility divides by cost, so priced costs are floored here


class SpecStatus(enum.Enum):
    HEALTHY = "healthy"
    AT_RISK = "at_risk"
    BROKEN = "broken"


# workflow_block's status code i stands for STATUSES[i].
STATUSES = (SpecStatus.HEALTHY, SpecStatus.AT_RISK, SpecStatus.BROKEN)
_HEALTHY, _AT_RISK, _BROKEN = range(3)


@dataclass(frozen=True)
class TacticEstimate:
    tactic_name: str
    predicted_latency: float
    predicted_cost: float
    utility_score: float

    def __post_init__(self) -> None:
        check_real("predicted_latency", self.predicted_latency, 0)
        check_real("predicted_cost", self.predicted_cost, 0)
        check_real("utility_score", self.utility_score)


@dataclass(frozen=True, eq=False)
class TacticModels:
    """One tactic's trained latency and cost models and the feature vector
    that prices it, stored as a read-only 1-D float copy. The vector's
    width is checked against the models when the tactic is priced."""

    latency_model: RegressionModel
    cost_model: RegressionModel
    features: np.ndarray

    def __post_init__(self) -> None:
        from .regression import RegressionModel

        for name in ("latency_model", "cost_model"):
            model = getattr(self, name)
            if not isinstance(model, RegressionModel):
                raise ValueError(f"{name} must be a RegressionModel, "
                                 f"got {type(model).__name__}")
        object.__setattr__(self, "features", check_array("features", self.features))


def check_risk_margin(name: str, value: object) -> None:
    """The rule for a risk margin ``value``: ``check_real``'s, and below 1."""
    check_real(name, value, 0)
    if value >= 1:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")


def workflow_block(specs: Sequence[SlaSpec], last: Sequence[float],
                   previous: Sequence[float], phi: Sequence[float], c: Sequence[float],
                   horizon: int, risk_margin: float) -> tuple[np.ndarray, ...]:
    """Forecast and classify n ticks, each from its last two observations
    (``previous``, ``last``) under its model coefficients ``phi`` and ``c``,
    for k specs: ``(forecasts, nonfinite_step, status, first_step)``.

    ``forecasts`` (n, horizon) are ``arima.forecast_paths``' forecasts, and
    ``nonfinite_step`` (n,) holds each tick's first 1-based step that is not
    finite, 0 when all are; the classification of such a tick is
    meaningless. ``status`` (n, k) holds codes into ``STATUSES``, and
    ``first_step`` (n, k) the 1-based step that first enters the risk band
    of an AT_RISK spec, 0 otherwise.

    A spec is broken when the tick's last value violates it (lies strictly
    above an upper bound or below a lower one), at risk from the first
    forecast step inside its risk band (strict on the approach side, so a
    zero margin means "a step violates"), healthy otherwise. The band is
    ``risk_margin`` (in [0, 1)) times |threshold| wide on the approaching
    side, so a zero threshold's band has width 0 whatever the margin.
    ``specs`` are taken in the given order. The four per-tick inputs follow
    ``forecast_paths``' rule.
    """
    check_risk_margin("risk_margin", risk_margin)
    steps, nonfinite_step = forecast_paths(last, previous, phi, c, horizon)
    last = np.asarray(last, dtype=float)  # forecast_paths has checked it
    status = np.empty((last.size, len(specs)), dtype=np.int8)
    first_step = np.zeros((last.size, len(specs)), dtype=np.intp)
    for j, spec in enumerate(specs):
        margin_width = risk_margin * abs(spec.threshold)
        if spec.direction is Direction.UPPER_BOUND:
            now, band = last > spec.threshold, steps > spec.threshold - margin_width
        else:
            now, band = last < spec.threshold, steps < spec.threshold + margin_width
        at_risk = band.any(axis=0) & ~now
        status[:, j] = np.where(now, _BROKEN, np.where(at_risk, _AT_RISK, _HEALTHY))
        first_step[at_risk, j] = band.argmax(axis=0)[at_risk] + 1
    return steps.T, nonfinite_step, status, first_step


def price_tactics(tactics: Mapping[str, TacticModels],
                  utility_params: UtilityParams | None = None,
                  ) -> tuple[TacticEstimate, ...]:
    """Unranked estimates of every tactic, in mapping order: predicted
    latency (seconds) and cost (units), each clamped at 0.

    ``utility_params``, when given, scores each tactic with the interval
    utility using its predicted cost (floored at ``COST_FLOOR`` since the
    utility divides by cost); without them every utility score is 0 and
    ranking falls through to predicted cost. Raises ``ValueError`` naming
    the tactic when its feature vector is not of its models' width or an
    estimate is not finite.
    """
    from .regression import predict

    estimates = []
    for name, models in tactics.items():
        try:
            latency = predict(models.latency_model, models.features).value
            cost = predict(models.cost_model, models.features).value
            score = (0.0 if utility_params is None
                     else utility(replace(utility_params, cost=max(cost, COST_FLOOR))))
            estimates.append(TacticEstimate(name, latency, cost, score))
        except ValueError as exc:
            raise ValueError(f"tactic {name!r}: {exc}") from None
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
    # A NaN or infinite tick length would make every deadline NaN or
    # infinite, so every tactic would count as ready in time.
    check_real("tick_seconds", tick_seconds, 0, strict=True)
    if (status is SpecStatus.AT_RISK) != (first_violation_step is not None):
        raise ValueError("first_violation_step must be set exactly for AT_RISK")
    if status is SpecStatus.BROKEN:
        deadline = 0.0
    elif status is SpecStatus.AT_RISK:
        deadline = first_violation_step * tick_seconds
    else:
        deadline = math.inf
    return sorted(estimates,
                  key=lambda e: (e.predicted_latency > deadline,
                                 -e.utility_score, e.predicted_cost))

