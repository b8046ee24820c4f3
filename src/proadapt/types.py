"""Shared domain types: monitored time series, SLA specifications, tactics,
the utility function used by the decision loop, the seed derivation of
the seeded commands and harnesses, and the rule for integer arguments.

All types are immutable value objects after construction and safe to share
between threads.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "Direction",
    "SlaSpec",
    "Tactic",
    "UtilityParams",
    "utility",
    "order_specs_by_reward",
    "subseed",
    "check_integer",
]


def _as_readonly_array(values: Iterable[float], name: str) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled observations of one monitored quantity.

    ``values`` are in whatever unit the monitored specification uses
    (seconds, joules, ...). The series does not store its sampling period:
    the decision loop's is ``WorkflowConfig.tick_seconds``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_readonly_array(self.values, "values"))

    def __len__(self) -> int:
        return int(self.values.size)

    def tail(self, n: int) -> np.ndarray:
        """The last ``n`` observations (``n`` may be 0)."""
        if not 0 <= n <= len(self):
            raise ValueError(f"cannot take the last {n} of {len(self)} observations")
        return self.values[len(self) - n:]


class Direction(enum.Enum):
    """Which side of the threshold violates the requirement."""

    UPPER_BOUND = "upper"
    LOWER_BOUND = "lower"


@dataclass(frozen=True)
class SlaSpec:
    """One monitored requirement: threshold plus its penalty and reward.

    ``reward`` orders requirements (highest handled first); ``penalty`` is
    carried for callers that account for violations but is not part of the
    utility computation. A zero ``threshold`` is allowed; the decision
    loop's risk band is a fraction of |threshold| wide, so it then has
    width 0 and "at risk" means that a forecast step violates.
    """

    name: str
    threshold: float
    direction: Direction = Direction.UPPER_BOUND
    penalty: float = 0.0
    reward: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec name must be non-empty")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if not (math.isfinite(self.penalty) and math.isfinite(self.reward)):
            raise ValueError("penalty and reward must be finite")
        if self.penalty < 0 or self.reward < 0:
            raise ValueError("penalty and reward must be >= 0")


@dataclass(frozen=True)
class Tactic:
    """An adaptation action with its legacy assumed-constant attributes.

    ``static_latency``/``static_cost`` are the predefined values a
    volatility-unaware process would plug into its decision making.
    """

    name: str
    static_latency: float
    static_cost: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tactic name must be non-empty")
        if not (math.isfinite(self.static_latency) and math.isfinite(self.static_cost)):
            raise ValueError("static latency and cost must be finite")
        if self.static_latency < 0 or self.static_cost < 0:
            raise ValueError("static latency and cost must be >= 0")


@dataclass(frozen=True)
class UtilityParams:
    """Inputs to the reward/penalty utility of the hosting-service scenario.

    tau: interval length in seconds.
    rate: average request rate a (requests/second).
    response_time: average response time r (seconds).
    target: target response time T (seconds).
    max_rate: maximum serviceable request rate k (requests/second).
    dimmer: fraction d of responses carrying optional content, in [0, 1].
    reward_optional / reward_mandatory: per-response rewards R_O and R_M.
    cost: execution cost C, strictly positive (utility divides by it).
    """

    tau: float
    rate: float
    response_time: float
    target: float
    max_rate: float
    dimmer: float
    reward_optional: float
    reward_mandatory: float
    cost: float

    def __post_init__(self) -> None:
        for label, value in (
            ("tau", self.tau),
            ("rate", self.rate),
            ("response_time", self.response_time),
            ("target", self.target),
            ("max_rate", self.max_rate),
            ("dimmer", self.dimmer),
            ("reward_optional", self.reward_optional),
            ("reward_mandatory", self.reward_mandatory),
            ("cost", self.cost),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite")
        if not 0.0 <= self.dimmer <= 1.0:
            raise ValueError("dimmer must lie in [0, 1]")
        if self.cost <= 0:
            raise ValueError("cost must be > 0 (utility divides by it)")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.rate < 0 or self.max_rate < 0:
            raise ValueError("rate and max_rate must be >= 0")

    def with_cost(self, cost: float) -> "UtilityParams":
        return replace(self, cost=cost)


def utility(p: UtilityParams) -> float:
    """Utility accrued over one interval, cost-normalised.

    Within target (r <= T) the system earns tau*a*(d*R_O + (1-d)*R_M)/C;
    past target it forfeits tau*min(0, a-k)*R_O/C, which is 0 whenever the
    request rate is at or above capacity.
    """
    if p.response_time <= p.target:
        earned = p.tau * p.rate * (p.dimmer * p.reward_optional
                                   + (1.0 - p.dimmer) * p.reward_mandatory)
        return earned / p.cost
    return p.tau * min(0.0, p.rate - p.max_rate) * p.reward_optional / p.cost


def order_specs_by_reward(specs: Sequence[SlaSpec]) -> list[SlaSpec]:
    """Specs sorted by descending reward; ties keep their input order."""
    return sorted(specs, key=lambda s: s.reward, reverse=True)


def subseed(seed: int, key: int) -> int:
    """The seed of ``key`` under ``seed``, independent of any other key's."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def check_integer(name: str, value: object, least: int) -> None:
    """The rule for an integer argument: ``value`` must be an ``Integral``
    that is not a bool (else ``TypeError``) and at least ``least`` (else
    ``ValueError``); either error names the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
