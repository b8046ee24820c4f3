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

A trace is a :class:`Trace`: five equal-length columns, one entry per
record. ``timestamp``, ``latency_seconds`` and ``energy_joules`` are
floats; ``mirror`` and ``phase`` are integer codes, a member's index in
:class:`Mirror` or :class:`Phase` declaration order (germany 0,
massachusetts 1, ontario 2; download 0, idle 1, grep 2). A ``Trace`` may
hold its records in any order; consumers read them in stable timestamp
order, and the CSV ingester requires strictly increasing timestamps.

Trace CSV format: header ``timestamp,mirror,phase,latency_seconds,energy_joules``;
mirror in {germany, massachusetts, ontario}; phase in {download, idle, grep};
reals with six decimal places; UTF-8; LF emitted, CRLF accepted.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .regression import DesignMatrix, ResponseVector
from .types import TimeSeries, _csv_lines, check_integer, check_real, check_size, subseeds

__all__ = [
    "Mirror",
    "Phase",
    "Trace",
    "LatencyShape",
    "TacticProfile",
    "SAMPLE_TACTIC_A",
    "SAMPLE_TACTIC_B",
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
START_EPOCH = 1_600_041_600.0  # a midnight, so hour-of-day starts at 0


class Mirror(enum.Enum):
    GERMANY = "germany"
    MASSACHUSETTS = "massachusetts"
    ONTARIO = "ontario"


class Phase(enum.Enum):
    DOWNLOAD = "download"
    IDLE = "idle"
    GREP = "grep"


# Each member's code in a trace column, by member and by CSV text.
_MIRROR_CODES = {mirror: code for code, mirror in enumerate(Mirror)}
_PHASE_CODES = {phase: code for code, phase in enumerate(Phase)}
_CODES_BY_TEXT = {"mirror": {mirror.value: code for mirror, code in _MIRROR_CODES.items()},
                  "phase": {phase.value: code for phase, code in _PHASE_CODES.items()}}


class TraceFormatError(ValueError):
    """Malformed or invariant-violating trace CSV content."""


def _first(bad: np.ndarray) -> int:
    """The index of the first true entry of ``bad``, or its length if none is."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else bad.size


def _first_failure(checks, limit: int, error: str | None = None) -> tuple[int, str | None]:
    """The first of the first ``limit`` records that fails one of ``checks``
    ((bad-record mask, message) pairs, in check order), and the message of
    its first failing check; ``(limit, error)`` if none of them fails."""
    for bad, message in checks:
        row = _first(bad[:limit])
        if row < limit:
            limit, error = row, message
    return limit, error


def _record_checks(timestamp: np.ndarray, latency: np.ndarray, energy: np.ndarray):
    """Each record's value checks, in check order, as (bad-record mask, message)."""
    return ((~(np.isfinite(latency) & (latency >= 0)), "latency_seconds must be finite and >= 0"),
            (~(np.isfinite(energy) & (energy >= 0)), "energy_joules must be finite and >= 0"),
            (~np.isfinite(timestamp), "timestamp must be finite"))


@dataclass(frozen=True, eq=False)
class Trace:
    """Trace records as five equal-length, read-only columns (see the module
    docstring for the codes). Latencies and energies are finite and >= 0,
    timestamps finite; a violation names the first failing record's first
    failing check, in that order."""

    timestamp: np.ndarray
    mirror: np.ndarray
    phase: np.ndarray
    latency_seconds: np.ndarray
    energy_joules: np.ndarray

    def __post_init__(self) -> None:
        timestamp, latency, energy = (np.array(values, dtype=float) for values in
                                      (self.timestamp, self.latency_seconds,
                                       self.energy_joules))
        mirror, phase = np.array(self.mirror), np.array(self.phase)
        columns = {"timestamp": timestamp, "mirror": mirror, "phase": phase,
                   "latency_seconds": latency, "energy_joules": energy}
        if (any(column.ndim != 1 for column in columns.values())
                or len({column.size for column in columns.values()}) > 1):
            raise ValueError("trace columns must be one-dimensional and of equal length")
        for name, members in (("mirror", Mirror), ("phase", Phase)):
            codes = columns[name]
            if codes.size and (codes.dtype.kind not in "iu" or codes.min() < 0
                               or codes.max() >= len(members)):
                raise ValueError(f"{name} codes must be integers in 0..{len(members) - 1}")
            columns[name] = codes.astype(np.int8, copy=False)
        _, error = _first_failure(_record_checks(timestamp, latency, energy), timestamp.size)
        if error is not None:
            raise ValueError(error)
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return int(self.timestamp.size)

    def phase_is(self, phase: Phase) -> np.ndarray:
        """The mask of the records in ``phase``."""
        return self.phase == _PHASE_CODES[phase]

    def mirror_is(self, mirror: Mirror) -> np.ndarray:
        """The mask of the records of ``mirror``."""
        return self.mirror == _MIRROR_CODES[mirror]

    def select(self, keep: np.ndarray) -> Trace:
        """The records that the boolean mask ``keep`` marks, in their order."""
        return Trace(self.timestamp[keep], self.mirror[keep], self.phase[keep],
                     self.latency_seconds[keep], self.energy_joules[keep])


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
        if not isinstance(self.shape, LatencyShape):
            raise TypeError(f"shape must be a LatencyShape, got {self.shape!r}")
        check_real("cost_per_unit_latency", self.cost_per_unit_latency, 0)
        check_real("mean", self.mean, 0, strict=True)
        check_real("sd", self.sd, 0, strict=True)


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


def _hours_of_day(timestamps: np.ndarray) -> np.ndarray:
    # A tiny negative timestamp's remainder rounds up to 86400.0: hour 24 is 0.
    return ((timestamps % 86400.0) // 3600.0).astype(np.intp) % 24


# Hour-of-day coordinates from the scalar math functions, one per hour.
_HOUR_SIN = np.array([math.sin(2.0 * math.pi * hour / 24.0) for hour in range(24)])
_HOUR_COS = np.array([math.cos(2.0 * math.pi * hour / 24.0) for hour in range(24)])


# Hourly network-load multiplier, 1.3 at the peak hour 20.
_DIURNAL = np.array([1.0 + 0.3 * math.cos(2.0 * math.pi * (hour - 20) / 24.0)
                     for hour in range(24)])


def generate_trace(duration_minutes: int, seed: int) -> Trace:
    """Emulate ``duration_minutes`` of operation: one download per mirror
    per minute plus an interleaved idle reading, deterministic per seed."""
    check_size("duration_minutes", duration_minutes)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    normal, uniform, exponential = rng.standard_normal, rng.random, rng.exponential
    starts = START_EPOCH + 60.0 * np.arange(duration_minutes)
    # Each minute's records: one download per mirror in MIRRORS order, then
    # the idle reading (latency 0, mirror code of the first mirror).
    latency, energy = [], []
    idle_level = 0.0
    for minute, diurnal in enumerate(_DIURNAL[_hours_of_day(starts)].tolist()):
        for _, base, spike_probability, spike_scale in MIRRORS:
            value = base * diurnal * math.exp(LATENCY_NOISE_SIGMA * normal())
            if uniform() < spike_probability:
                value += exponential(spike_scale)
            latency.append(value)
            energy.append(max(0.0, ENERGY_PER_LATENCY_JOULES * value
                              + ENERGY_NOISE_SD * normal()))
        idle_level = IDLE_PHI * idle_level + IDLE_NOISE_SD * normal()
        latency.append(0.0)
        energy.append(max(0.0, IDLE_BASE_JOULES + IDLE_DRIFT_PER_MINUTE * minute
                          + idle_level))
    # Whole seconds, which six-decimal quantisation leaves as they are.
    offsets = np.array([5.0 + 15.0 * slot for slot in range(len(MIRRORS))] + [50.0])
    mirror = [_MIRROR_CODES[m] for m, *_ in MIRRORS] + [_MIRROR_CODES[MIRRORS[0][0]]]
    phase = [_PHASE_CODES[Phase.DOWNLOAD]] * len(MIRRORS) + [_PHASE_CODES[Phase.IDLE]]
    return Trace(timestamp=(starts[:, None] + offsets).ravel(),
                 mirror=np.tile(mirror, duration_minutes),
                 phase=np.tile(phase, duration_minutes),
                 latency_seconds=_round6(latency), energy_joules=_round6(energy))


def _round6(values: list[float]) -> np.ndarray:
    """``round(v, 6)`` of each of ``values``, bit for bit, in one array pass.

    round(v, 6) is k / 10^6 correctly rounded, k the integer nearest the
    exact v * 10^6 (ties to even). The float product is within 0.5 ulp of
    the exact one, so its ``rint`` is k unless a half-integer lies within
    that distance, and for |k| < 2**52 the float quotient k / 1e6 is
    correctly rounded. The few values within 4 ulps of a half-integer, not
    finite, or at least 2**52 once scaled go to ``round`` itself.
    """
    scaled = np.array(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled *= 1e6
        unsure = ~(np.abs(scaled) < 2.0**52) | (
            np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.spacing(np.abs(scaled)))
        rounded = np.rint(scaled) / 1e6
    for i in np.flatnonzero(unsure).tolist():
        rounded[i] = round(values[i], 6)
    return rounded


def sample_latency(profile: TacticProfile, seed: int, n: int) -> np.ndarray:
    """Draw ``n`` latencies from the profile's distribution, deterministically.

    Gaussian draws are truncated at zero by resampling (negligible at the
    default profiles); skewed draws are lognormal with mean matched exactly.
    """
    check_size("n", n)
    check_integer("seed", seed, 0)
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


def run_cost_impact_simulation(a: TacticProfile, b: TacticProfile, n_runs: int,
                               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Repeatedly sample each tactic's latency and multiply by its cost.

    Builds the simulated "tactic execution" distributions whose spread
    shows what ignoring volatility costs: each sample is one execution's
    overall cost = sampled latency * cost per unit latency. Returns the
    pair ``(costs_a, costs_b)``, ``n_runs`` overall costs per tactic.
    """
    check_size("n_runs", n_runs)
    check_integer("seed", seed, 0)
    seed_a, seed_b = subseeds(seed, [0, 1])
    return (sample_latency(a, seed_a, n_runs) * a.cost_per_unit_latency,
            sample_latency(b, seed_b, n_runs) * b.cost_per_unit_latency)


def trace_csv_text(trace: Trace) -> str:
    mirrors, phases = [m.value for m in Mirror], [p.value for p in Phase]
    rows = zip(trace.timestamp.tolist(), map(mirrors.__getitem__, trace.mirror.tolist()),
               map(phases.__getitem__, trace.phase.tolist()),
               trace.latency_seconds.tolist(), trace.energy_joules.tolist())
    return "\n".join([TRACE_HEADER, *map("%.6f,%s,%s,%.6f,%.6f".__mod__, rows)]) + "\n"


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(trace_csv_text(trace), encoding="utf-8", newline="\n")


def _floats(texts: Sequence[str]) -> tuple[np.ndarray, int, str | None]:
    """``float`` of each of ``texts`` up to the first that does not parse,
    that text's index and ``float``'s message (``len(texts)`` and None if
    all parse)."""
    try:
        return np.fromiter(map(float, texts), float, len(texts)), len(texts), None
    except ValueError:
        values = []
        for text in texts:
            try:
                values.append(float(text))
            except ValueError as exc:
                return np.array(values), len(values), str(exc)
        raise


def ingest_trace_csv(path: str | Path) -> Trace:
    """Parse and validate a trace CSV; errors name the physical line on
    which the first failing record starts.

    A record's checks run in this order, and the error is its first failing
    one: field count, numbers, mirror, phase, latency, energy, timestamp,
    then strictly increasing timestamps. Blank lines are skipped.
    """
    # The rows up to the first one the file cannot be read at: that error
    # is raised only if no line before it fails a check.
    rows: list[list[str]] = []
    unread: Exception | None = None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                rows.append(row)
        except csv.Error as exc:  # an over-long field, say
            unread = TraceFormatError(f"line {reader.line_num}: {exc}")
        except (OSError, ValueError) as exc:  # a read or decoding error
            unread = exc
    if rows and ",".join(rows[0]) != TRACE_HEADER:
        raise TraceFormatError(f"line 1: expected header '{TRACE_HEADER}'")
    body = list(filter(None, rows[1:]))
    # Each check reads only the lines before the first failure found so
    # far, so the failure left is the first failing line's first check.
    limit, error = len(body), None
    lengths = np.fromiter(map(len, body), np.intp, len(body))
    if (row := _first(lengths != 5)) < limit:
        limit, error = row, f"expected 5 fields, got {lengths[row]}"
    fields = list(zip(*body[:limit])) or [()] * 5
    numbers = {}
    for j in (0, 3, 4):
        numbers[j], row, message = _floats(fields[j][:limit])
        if row < limit:
            limit, error = row, message
    codes = {}
    for j, name in ((1, "mirror"), (2, "phase")):
        codes[j] = np.fromiter(map(_CODES_BY_TEXT[name].get, fields[j][:limit], repeat(-1)),
                               np.intp, limit)
        if (row := _first(codes[j] < 0)) < limit:
            limit, error = row, f"unknown {name} '{fields[j][row]}'"
    timestamp, latency, energy = (numbers[j][:limit] for j in (0, 3, 4))
    ordered = np.concatenate([[True], timestamp[1:] > timestamp[:-1]])
    limit, error = _first_failure(
        (*_record_checks(timestamp, latency, energy),
         (~ordered, "timestamps must be strictly increasing")), limit, error)
    if error is not None:
        line = [line for line, row in zip(_csv_lines(rows)[1:], rows[1:]) if row][limit]
        raise TraceFormatError(f"line {line}: {error}")
    if unread is not None:
        raise unread
    return Trace(timestamp, codes[1], codes[2], latency, energy)


def _in_time_order(trace: Trace, phase: Phase) -> np.ndarray:
    """The indices of ``trace``'s records in ``phase``, in stable timestamp order."""
    rows = np.flatnonzero(trace.phase_is(phase))
    return rows[np.argsort(trace.timestamp[rows], kind="stable")]


def to_regression_dataset(trace: Trace
                          ) -> tuple[DesignMatrix, ResponseVector, ResponseVector]:
    """Turn download rows into (features, latency responses, energy responses).

    Features per row: intercept, the same mirror's lag-1 and lag-2
    latencies, the mean of its previous five latencies, the hour of day as
    cyclic sin/cos coordinates, and mirror membership dummies (first
    present mirror is the reference category, keeping the design full
    rank). Rows whose mirror lacks five prior observations are dropped.
    Each mirror's lags come from one sliding window over its latencies.
    """
    downloads = _in_time_order(trace, Phase.DOWNLOAD)
    if downloads.size < 8:
        raise ValueError(f"need at least 8 download records, got {downloads.size}")
    mirror_codes = trace.mirror[downloads]
    present = sorted((mirror for mirror, count in
                      zip(Mirror, np.bincount(mirror_codes, minlength=len(Mirror)).tolist())
                      if count), key=lambda m: m.value)
    names = ["intercept", "latency_lag1", "latency_lag2", "latency_mean5",
             "hour_sin", "hour_cos"] + [f"mirror_{m.value}" for m in present[1:]]
    code_of = np.zeros(len(Mirror), dtype=np.intp)
    code_of[[_MIRROR_CODES[m] for m in present]] = np.arange(len(present))
    codes = code_of[mirror_codes]
    latencies = trace.latency_seconds[downloads]
    lags = np.empty((downloads.size, 3))  # lag 1, lag 2, mean of the previous five
    complete = np.zeros(downloads.size, dtype=bool)
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
    kept = downloads[complete]
    hours = _hours_of_day(trace.timestamp[kept])
    codes = codes[complete]
    rows = np.column_stack([np.ones(kept.size), lags[complete], _HOUR_SIN[hours],
                            _HOUR_COS[hours],
                            codes[:, None] == np.arange(1, len(present))])
    return (DesignMatrix(rows, tuple(names)),
            ResponseVector(latencies[complete]),
            ResponseVector(trace.energy_joules[kept]))


def to_idle_series(trace: Trace) -> TimeSeries:
    """Idle-phase energy readings in timestamp order as a uniform series."""
    idle = _in_time_order(trace, Phase.IDLE)
    if not idle.size:
        raise ValueError("trace contains no idle records")
    return TimeSeries(trace.energy_joules[idle])
