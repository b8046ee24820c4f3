"""Volatility trace emulation and ingestion.

The emulator stands in for a physical rig that repeatedly downloads a
fixed file from three mirrors at one-minute intervals while logging
latency and energy, interleaved with idle-power readings. Real traces in
the same CSV format can be ingested instead of emulated.

Generated volatility is invented but shaped plausibly: per-mirror base
latency scaled by an hourly diurnal multiplier and multiplicative
lognormal noise, with occasional additive spikes (the Germany mirror is
most spike-prone); download energy tracks latency; idle energy drifts
slowly with an autoregressive wobble. The mechanisms' parameters are
module constants. All draws come from one seeded generator, so a
(duration, seed) pair reproduces a trace bit-for-bit. Latency/energy
values are quantized to six decimals at generation time, which makes the
CSV round-trip exact.

Trace CSV format: header ``timestamp,mirror,phase,latency_seconds,energy_joules``;
mirror in {germany, massachusetts, ontario}; phase in {download, idle, grep};
reals with six decimal places; UTF-8; LF emitted, CRLF accepted.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .regression import DesignMatrix, ResponseVector
from .types import TimeSeries, subseed

__all__ = [
    "Mirror",
    "Phase",
    "TraceRecord",
    "LatencyShape",
    "TacticProfile",
    "SAMPLE_TACTIC_A",
    "SAMPLE_TACTIC_B",
    "CostHistogram",
    "CostImpactResult",
    "TraceFormatError",
    "generate_trace",
    "sample_latency",
    "run_cost_impact_simulation",
    "trace_csv_text",
    "write_trace_csv",
    "ingest_trace_csv",
    "to_regression_dataset",
    "to_idle_series",
]

TRACE_HEADER = "timestamp,mirror,phase,latency_seconds,energy_joules"
LAG_WINDOW = 5          # prior same-mirror observations needed per feature row
HISTOGRAM_BIN_WIDTH = 5.0
START_EPOCH = 1_600_041_600.0  # a midnight, so hour-of-day starts at 0


class Mirror(enum.Enum):
    GERMANY = "germany"
    MASSACHUSETTS = "massachusetts"
    ONTARIO = "ontario"


class Phase(enum.Enum):
    DOWNLOAD = "download"
    IDLE = "idle"
    GREP = "grep"


class TraceFormatError(ValueError):
    """Malformed or invariant-violating trace CSV content."""


@dataclass(frozen=True)
class TraceRecord:
    timestamp: float
    mirror: Mirror
    phase: Phase
    latency_seconds: float
    energy_joules: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latency_seconds) and self.latency_seconds >= 0):
            raise ValueError("latency_seconds must be finite and >= 0")
        if not (math.isfinite(self.energy_joules) and self.energy_joules >= 0):
            raise ValueError("energy_joules must be finite and >= 0")
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")


class LatencyShape(enum.Enum):
    NORMAL = "normal"
    POSITIVE_SKEW = "positive_skew"


@dataclass(frozen=True)
class TacticProfile:
    """Latency distribution and per-unit-latency cost of one sample tactic.

    For ``NORMAL`` the draws are Gaussian(mean, sd) truncated at zero. For
    ``POSITIVE_SKEW`` the draws are lognormal with the spread applied on
    the log scale (sigma = sd, mu = ln(mean) - sigma^2/2), so the mean is
    matched exactly and the right tail is heavy - the multiplicative kind
    of volatility that makes a nominally cheap tactic sporadically very
    expensive.
    """

    name: str
    cost_per_unit_latency: float
    shape: LatencyShape
    mean: float
    sd: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("mean must be > 0")
        if self.sd <= 0:
            raise ValueError("sd must be > 0")
        if self.cost_per_unit_latency < 0:
            raise ValueError("cost_per_unit_latency must be >= 0")


SAMPLE_TACTIC_A = TacticProfile("tactic_a", cost_per_unit_latency=5.0,
                                shape=LatencyShape.POSITIVE_SKEW, mean=3.0, sd=0.5)
SAMPLE_TACTIC_B = TacticProfile("tactic_b", cost_per_unit_latency=7.0,
                                shape=LatencyShape.NORMAL, mean=3.0, sd=0.5)


# The invented volatility mechanisms. Per mirror, in trace order: base
# latency (s), spike probability and spike scale (s); the Germany mirror is
# the most spike-prone.
MIRRORS = (
    (Mirror.GERMANY, 3.4, 0.06, 2.5),
    (Mirror.MASSACHUSETTS, 2.6, 0.015, 1.5),
    (Mirror.ONTARIO, 3.0, 0.02, 1.5),
)
LATENCY_NOISE_SIGMA = 0.12
ENERGY_PER_LATENCY_JOULES = 12.0
ENERGY_NOISE_SD = 0.8
IDLE_BASE_JOULES = 5.0
IDLE_DRIFT_PER_MINUTE = 0.002
IDLE_PHI = 0.8
IDLE_NOISE_SD = 0.02


def _hour_of_day(timestamp: float) -> int:
    # A tiny negative timestamp's remainder rounds up to 86400.0: hour 24 is 0.
    return int((timestamp % 86400.0) // 3600.0) % 24


# Hour-of-day coordinates from the scalar math functions, one per hour.
_HOUR_SIN = np.array([math.sin(2.0 * math.pi * hour / 24.0) for hour in range(24)])
_HOUR_COS = np.array([math.cos(2.0 * math.pi * hour / 24.0) for hour in range(24)])


# Hourly network-load multiplier, 1.3 at the peak hour 20.
_DIURNAL = tuple(1.0 + 0.3 * math.cos(2.0 * math.pi * (hour - 20) / 24.0)
                 for hour in range(24))


def generate_trace(duration_minutes: int, seed: int) -> list[TraceRecord]:
    """Emulate ``duration_minutes`` of operation: one download per mirror
    per minute plus an interleaved idle reading, deterministic per seed."""
    if duration_minutes < 1:
        raise ValueError("duration_minutes must be >= 1")
    rng = np.random.default_rng(seed)
    records: list[TraceRecord] = []
    idle_level = 0.0
    for minute in range(duration_minutes):
        t0 = START_EPOCH + 60.0 * minute
        diurnal = _DIURNAL[_hour_of_day(t0)]
        for slot, (mirror, base, spike_probability, spike_scale) in enumerate(MIRRORS):
            noise = math.exp(rng.normal(0.0, LATENCY_NOISE_SIGMA))
            latency = base * diurnal * noise
            if rng.random() < spike_probability:
                latency += rng.exponential(spike_scale)
            energy = max(0.0, ENERGY_PER_LATENCY_JOULES * latency
                         + rng.normal(0.0, ENERGY_NOISE_SD))
            records.append(TraceRecord(
                timestamp=round(t0 + 5.0 + 15.0 * slot, 6),
                mirror=mirror,
                phase=Phase.DOWNLOAD,
                latency_seconds=round(latency, 6),
                energy_joules=round(energy, 6),
            ))
        idle_level = IDLE_PHI * idle_level + rng.normal(0.0, IDLE_NOISE_SD)
        idle_energy = max(0.0, IDLE_BASE_JOULES + IDLE_DRIFT_PER_MINUTE * minute
                          + idle_level)
        records.append(TraceRecord(
            timestamp=round(t0 + 50.0, 6),
            mirror=MIRRORS[0][0],
            phase=Phase.IDLE,
            latency_seconds=0.0,
            energy_joules=round(idle_energy, 6),
        ))
    return records


def sample_latency(profile: TacticProfile, seed: int, n: int) -> np.ndarray:
    """Draw ``n`` latencies from the profile's distribution, deterministically.

    Gaussian draws are truncated at zero by resampling (negligible at the
    default profiles); skewed draws are lognormal with mean matched exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if profile.shape is LatencyShape.NORMAL:
        draws = rng.normal(profile.mean, profile.sd, n)
        while np.any(draws < 0):
            bad = draws < 0
            draws[bad] = rng.normal(profile.mean, profile.sd, int(bad.sum()))
        return draws
    sigma = profile.sd
    mu = math.log(profile.mean) - 0.5 * sigma * sigma
    return rng.lognormal(mu, sigma, n)


@dataclass(frozen=True)
class CostHistogram:
    """Shared-bin histogram of the two tactics' overall costs (bin width 5
    from zero, one count list per tactic)."""

    bin_edges: tuple[float, ...]
    counts_a: tuple[int, ...]
    counts_b: tuple[int, ...]


@dataclass(frozen=True)
class CostImpactResult:
    overall_costs_a: np.ndarray
    overall_costs_b: np.ndarray
    histogram: CostHistogram


def run_cost_impact_simulation(a: TacticProfile, b: TacticProfile,
                               n_runs: int, seed: int) -> CostImpactResult:
    """Repeatedly sample each tactic's latency and multiply by its cost.

    Builds the simulated "tactic execution" distributions whose spread
    shows what ignoring volatility costs: each sample is one execution's
    overall cost = sampled latency * cost per unit latency.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    costs_a = sample_latency(a, subseed(seed, 0), n_runs) * a.cost_per_unit_latency
    costs_b = sample_latency(b, subseed(seed, 1), n_runs) * b.cost_per_unit_latency
    top = float(max(costs_a.max(), costs_b.max()))
    n_bins = max(1, math.ceil(top / HISTOGRAM_BIN_WIDTH))
    edges = np.arange(n_bins + 1) * HISTOGRAM_BIN_WIDTH
    hist = CostHistogram(
        bin_edges=tuple(edges),
        counts_a=tuple(int(c) for c in np.histogram(costs_a, bins=edges)[0]),
        counts_b=tuple(int(c) for c in np.histogram(costs_b, bins=edges)[0]),
    )
    return CostImpactResult(costs_a, costs_b, hist)


def trace_csv_text(records: Sequence[TraceRecord]) -> str:
    lines = [TRACE_HEADER]
    for r in records:
        lines.append(f"{r.timestamp:.6f},{r.mirror.value},{r.phase.value},"
                     f"{r.latency_seconds:.6f},{r.energy_joules:.6f}")
    return "\n".join(lines) + "\n"


def write_trace_csv(records: Sequence[TraceRecord], path: str | Path) -> None:
    Path(path).write_text(trace_csv_text(records), encoding="utf-8", newline="\n")


def _csv_rows(handle) -> Iterator[list[str]]:
    """The CSV rows of ``handle``; the reader's own errors (an over-long
    field, say) become :class:`TraceFormatError`."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        raise TraceFormatError(f"line {reader.line_num}: {exc}") from None


def ingest_trace_csv(path: str | Path) -> list[TraceRecord]:
    """Parse and validate a trace CSV; errors name the offending line."""
    mirrors = {m.value: m for m in Mirror}
    phases = {p.value: p for p in Phase}
    records: list[TraceRecord] = []
    last_timestamp = -math.inf
    with open(path, newline="", encoding="utf-8") as handle:
        for line_no, row in enumerate(_csv_rows(handle), start=1):
            if line_no == 1:
                if ",".join(row) != TRACE_HEADER:
                    raise TraceFormatError(f"line 1: expected header '{TRACE_HEADER}'")
                continue
            if not row:
                continue
            if len(row) != 5:
                raise TraceFormatError(f"line {line_no}: expected 5 fields, got {len(row)}")
            ts_text, mirror_text, phase_text, latency_text, energy_text = row
            try:
                timestamp = float(ts_text)
                latency = float(latency_text)
                energy = float(energy_text)
            except ValueError as exc:
                raise TraceFormatError(f"line {line_no}: {exc}") from None
            if mirror_text not in mirrors:
                raise TraceFormatError(f"line {line_no}: unknown mirror '{mirror_text}'")
            if phase_text not in phases:
                raise TraceFormatError(f"line {line_no}: unknown phase '{phase_text}'")
            try:
                record = TraceRecord(timestamp, mirrors[mirror_text],
                                     phases[phase_text], latency, energy)
            except ValueError as exc:
                raise TraceFormatError(f"line {line_no}: {exc}") from None
            if record.timestamp <= last_timestamp:
                raise TraceFormatError(f"line {line_no}: timestamps must be "
                                       f"strictly increasing")
            last_timestamp = record.timestamp
            records.append(record)
    return records


def _downloads_in_order(records: Iterable[TraceRecord]) -> list[TraceRecord]:
    return sorted((r for r in records if r.phase is Phase.DOWNLOAD),
                  key=lambda r: r.timestamp)


def to_regression_dataset(records: Sequence[TraceRecord]
                          ) -> tuple[DesignMatrix, ResponseVector, ResponseVector]:
    """Turn download rows into (features, latency responses, energy responses).

    Features per row: intercept, the same mirror's lag-1 and lag-2
    latencies, the mean of its previous five latencies, the hour of day as
    cyclic sin/cos coordinates, and mirror membership dummies (first
    present mirror is the reference category, keeping the design full
    rank). Rows whose mirror lacks five prior observations are dropped.
    Each mirror's lags come from one sliding window over its latencies.
    """
    downloads = _downloads_in_order(records)
    if len(downloads) < 8:
        raise ValueError(f"need at least 8 download records, got {len(downloads)}")
    present = sorted({r.mirror for r in downloads}, key=lambda m: m.value)
    code_of = {mirror: code for code, mirror in enumerate(present)}
    names = ["intercept", "latency_lag1", "latency_lag2", "latency_mean5",
             "hour_sin", "hour_cos"] + [f"mirror_{m.value}" for m in present[1:]]
    codes = np.array([code_of[r.mirror] for r in downloads])
    latencies = np.array([r.latency_seconds for r in downloads])
    lags = np.empty((len(downloads), 3))  # lag 1, lag 2, mean of the previous five
    complete = np.zeros(len(downloads), dtype=bool)
    for code in range(len(present)):
        rows = np.flatnonzero(codes == code)
        if rows.size <= LAG_WINDOW:
            continue
        past = latencies[rows]
        rows = rows[LAG_WINDOW:]
        complete[rows] = True
        lags[rows, 0] = past[LAG_WINDOW - 1:-1]
        lags[rows, 1] = past[LAG_WINDOW - 2:-2]
        lags[rows, 2] = sliding_window_view(past[:-1], LAG_WINDOW).mean(axis=1)
    if not complete.any():
        raise ValueError("no download row has a complete lag window")
    kept = [r for r, keep in zip(downloads, complete.tolist()) if keep]
    hours = np.array([_hour_of_day(r.timestamp) for r in kept])
    codes = codes[complete]
    rows = np.column_stack([np.ones(len(kept)), lags[complete], _HOUR_SIN[hours],
                            _HOUR_COS[hours],
                            codes[:, None] == np.arange(1, len(present))])
    return (DesignMatrix(rows, tuple(names)),
            ResponseVector(latencies[complete]),
            ResponseVector(np.array([r.energy_joules for r in kept])))


def to_idle_series(records: Sequence[TraceRecord]) -> TimeSeries:
    """Idle-phase energy readings in timestamp order as a uniform series."""
    idle = sorted((r for r in records if r.phase is Phase.IDLE),
                  key=lambda r: r.timestamp)
    if not idle:
        raise ValueError("trace contains no idle records")
    return TimeSeries(np.array([r.energy_joules for r in idle]))
