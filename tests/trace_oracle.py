"""Reference per-record trace code, kept as an oracle for the columnar
``emulator`` functions.

This is the trace layer as it ran before traces became columns: one
frozen, validated ``TraceRecord`` per row, a generator that builds the
records one draw at a time, an ingester that parses and checks the CSV
line by line, and ``to_regression_dataset`` as a per-record loop with a
running history per mirror. ``records_to_trace`` and ``trace_records``
convert between the two representations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from proadapt import emulator
from proadapt.emulator import (LAG_WINDOW, START_EPOCH, TRACE_HEADER, Mirror, Phase, Trace,
                               TraceFormatError)
from proadapt.regression import DesignMatrix, ResponseVector


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


COLUMNS = ("timestamp", "mirror", "phase", "latency_seconds", "energy_joules")


def same_columns(a: Trace, b: Trace) -> bool:
    """Whether the two traces' columns are equal bit for bit, dtypes included."""
    return all(getattr(a, name).dtype == getattr(b, name).dtype
               and getattr(a, name).shape == getattr(b, name).shape
               and getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in COLUMNS)


def records_to_trace(records) -> Trace:
    mirrors, phases = list(Mirror), list(Phase)
    return Trace(np.array([r.timestamp for r in records], dtype=float),
                 np.array([mirrors.index(r.mirror) for r in records], dtype=int),
                 np.array([phases.index(r.phase) for r in records], dtype=int),
                 np.array([r.latency_seconds for r in records], dtype=float),
                 np.array([r.energy_joules for r in records], dtype=float))


def trace_records(trace: Trace) -> list[TraceRecord]:
    mirrors, phases = list(Mirror), list(Phase)
    return [TraceRecord(t, mirrors[m], phases[p], latency, energy)
            for t, m, p, latency, energy in zip(
                trace.timestamp.tolist(), trace.mirror.tolist(), trace.phase.tolist(),
                trace.latency_seconds.tolist(), trace.energy_joules.tolist())]


def hour_of_day(timestamp: float) -> int:
    # A tiny negative timestamp's remainder rounds up to 86400.0: hour 24 is 0.
    return int((timestamp % 86400.0) // 3600.0) % 24


def reference_generate_trace(duration_minutes: int, seed: int) -> list[TraceRecord]:
    """The per-record generator; reads the emulator's parameters from the
    module, so a patched parameter applies to both generators."""
    if duration_minutes < 1:
        raise ValueError("duration_minutes must be >= 1")
    diurnal_of_hour = tuple(1.0 + 0.3 * math.cos(2.0 * math.pi * (hour - 20) / 24.0)
                            for hour in range(24))
    rng = np.random.default_rng(seed)
    records: list[TraceRecord] = []
    idle_level = 0.0
    for minute in range(duration_minutes):
        t0 = START_EPOCH + 60.0 * minute
        diurnal = diurnal_of_hour[hour_of_day(t0)]
        for slot, (mirror, base, spike_probability, spike_scale) in enumerate(
                emulator.MIRRORS):
            noise = math.exp(rng.normal(0.0, emulator.LATENCY_NOISE_SIGMA))
            latency = base * diurnal * noise
            if rng.random() < spike_probability:
                latency += rng.exponential(spike_scale)
            energy = max(0.0, emulator.ENERGY_PER_LATENCY_JOULES * latency
                         + rng.normal(0.0, emulator.ENERGY_NOISE_SD))
            records.append(TraceRecord(
                timestamp=round(t0 + 5.0 + 15.0 * slot, 6),
                mirror=mirror,
                phase=Phase.DOWNLOAD,
                latency_seconds=round(latency, 6),
                energy_joules=round(energy, 6),
            ))
        idle_level = emulator.IDLE_PHI * idle_level + rng.normal(0.0, emulator.IDLE_NOISE_SD)
        idle_energy = max(0.0, emulator.IDLE_BASE_JOULES
                          + emulator.IDLE_DRIFT_PER_MINUTE * minute + idle_level)
        records.append(TraceRecord(
            timestamp=round(t0 + 50.0, 6),
            mirror=emulator.MIRRORS[0][0],
            phase=Phase.IDLE,
            latency_seconds=0.0,
            energy_joules=round(idle_energy, 6),
        ))
    return records


def _csv_rows(handle) -> Iterator[list[str]]:
    """The CSV rows of ``handle``; the reader's own errors (an over-long
    field, say) become :class:`TraceFormatError`."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        raise TraceFormatError(f"line {reader.line_num}: {exc}") from None


def reference_ingest_trace_csv(path) -> list[TraceRecord]:
    """The per-line ingester: parse and validate a trace CSV; errors name
    the offending line."""
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


def reference_regression_dataset(trace: Trace):
    """``to_regression_dataset`` as a per-record loop with a running
    history per mirror."""
    downloads = sorted((r for r in trace_records(trace) if r.phase is Phase.DOWNLOAD),
                       key=lambda r: r.timestamp)
    if len(downloads) < 8:
        raise ValueError(f"need at least 8 download records, got {len(downloads)}")
    present = sorted({r.mirror for r in downloads}, key=lambda m: m.value)
    dummy_mirrors = present[1:]
    names = ["intercept", "latency_lag1", "latency_lag2", "latency_mean5",
             "hour_sin", "hour_cos"] + [f"mirror_{m.value}" for m in dummy_mirrors]
    history = {m: [] for m in present}
    rows, latencies, energies = [], [], []
    for record in downloads:
        past = history[record.mirror]
        if len(past) >= LAG_WINDOW:
            angle = 2.0 * math.pi * hour_of_day(record.timestamp) / 24.0
            feature_row = [1.0, past[-1], past[-2], float(np.mean(past[-LAG_WINDOW:])),
                           math.sin(angle), math.cos(angle)]
            feature_row += [1.0 if record.mirror is m else 0.0 for m in dummy_mirrors]
            rows.append(feature_row)
            latencies.append(record.latency_seconds)
            energies.append(record.energy_joules)
        past.append(record.latency_seconds)
    if not rows:
        raise ValueError("no download row has a complete lag window")
    return (DesignMatrix(np.array(rows), tuple(names)), ResponseVector(np.array(latencies)),
            ResponseVector(np.array(energies)))
