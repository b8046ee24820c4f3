"""Arithmetic of the benchmark: probe normalisation, self time, summaries.

Everything here is a pure function of recorded timestamps, so it can be
tested on synthetic samples (see ``test_analysis.py``).
"""

from __future__ import annotations

import statistics

import numpy as np

# Probes in the running median that gives the local probe time. At one
# probe every 5 ms this spans about 45 ms, shorter than the time over
# which the host speed drifts.
WINDOW = 9


def running_median(values: np.ndarray, window: int) -> np.ndarray:
    """Centred running median; the ends reuse the nearest full window."""
    values = np.asarray(values, dtype=float)
    if values.size <= window:
        return np.full(values.size, float(np.median(values)))
    half = window // 2
    padded = np.pad(values, half, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)


class Normaliser:
    """Maps raw ``perf_counter`` timestamps onto a normalised clock.

    Time inside a probe (``starts[i]`` to ``ends[i]``) does not advance the
    normalised clock. Each gap between two probes advances it by the gap's
    length times ``nominal / local``, where ``local`` is the running median
    of ``reference`` (the duration of the probe part that sets the speed)
    around that gap. A host that runs uniformly k times slower stretches
    the gaps and the reference by k alike, so the normalised clock is
    unchanged and reads as seconds on a host whose reference is ``nominal``.
    """

    def __init__(self, starts, ends, reference, nominal: float,
                 window: int = WINDOW) -> None:
        self.starts = np.asarray(starts, dtype=float)
        self.ends = np.asarray(ends, dtype=float)
        reference = np.asarray(reference, dtype=float)
        if self.starts.size == 0:
            raise ValueError("no probe samples")
        if not self.starts.shape == self.ends.shape == reference.shape \
                or np.any(self.ends < self.starts):
            raise ValueError("probe starts, ends and reference do not pair up")
        if np.any(self.starts[1:] < self.ends[:-1]):
            raise ValueError("probe intervals overlap")
        local = running_median(reference, window)
        gap_local = np.append((local[:-1] + local[1:]) / 2.0, local[-1])
        self.gap_scale = nominal / gap_local
        self.lead_scale = nominal / local[0]
        gaps = self.starts[1:] - self.ends[:-1]
        self.at_probe = np.concatenate([[0.0], np.cumsum(gaps * self.gap_scale[:-1])])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        j = np.searchsorted(self.starts, t, side="right") - 1
        k = np.clip(j, 0, None)
        after = self.at_probe[k] + np.maximum(t - self.ends[k], 0.0) * self.gap_scale[k]
        return np.where(j < 0, (t - self.starts[0]) * self.lead_scale, after)

    def span(self, start, end):
        """Normalised duration of each (start, end) pair."""
        return self(end) - self(start)


class Identity:
    """The raw clock, with the same interface as ``Normaliser``."""

    def __call__(self, t):
        return np.asarray(t, dtype=float)

    def span(self, start, end):
        return self(end) - self(start)


def self_times(durations, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root. Spans
    come from synchronous calls, so the children of one span are disjoint
    and lie inside it; their durations add up to the part they cover.
    """
    durations = np.asarray(durations, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=durations[nested],
                          minlength=durations.size)
    return durations - covered


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def timings(record: dict, clock) -> dict:
    """Per-invocation timings on ``clock`` (a ``Normaliser`` or ``Identity``).

    ``record`` holds the runner's timestamps: ``t_start`` (before proadapt
    is imported), ``t_end`` (after the command returned and stdout was
    flushed), ``t_steady`` (end of set-up) and ``op_spans`` (start and end
    arrays, one pair per span of ``ops_per_span`` operations), plus
    ``steady_ops``, the operations completed after set-up.
    """
    start = float(record["t_start"])
    wall = float(clock.span(start, record["t_end"]))
    setup = float(clock.span(start, record["t_steady"]))
    op_starts, op_ends = record["op_spans"]
    op_s = clock.span(op_starts, op_ends) / record["ops_per_span"]
    return {
        "wall_s": wall,
        "setup_s": setup,
        "ops_per_s": record["steady_ops"] / (wall - setup),
        "op_p50_us": percentile(op_s, 50) * 1e6,
        "op_p99_us": percentile(op_s, 99) * 1e6,
    }
