"""Host-speed reference probe.

A frozen kernel that runs from a SIGALRM timer in the runner's main thread
about every ``PERIOD_S`` seconds, for about 0.2 ms each time. It adds no
thread. How long it takes, measured each time it fires, tells how fast the
host runs at that moment; ``analysis.Normaliser`` uses it to rescale the
program's timings to a reference host speed.

The kernel has two parts, timed separately, because the host's slow spells
do not slow all code alike:

* ``numpy`` - small-array NumPy calls and small LAPACK calls: an AR(1)
  least-squares fit on 60 points (as ``arima.fit_arima`` does), array
  validation and copies (as ``TimeSeries`` does), and ``eigvalsh`` plus
  ``solve`` on the 8x8 Gram matrix of a 300x8 design (as
  ``regression.fit_bayesian_ridge`` does). A 300x8 ``lstsq`` was tried and
  tracked the workloads worse than these calls.
* ``python`` - interpreter work: frozen-dataclass construction with
  validation, a sort on a tuple key, dict updates and ``json.dumps``, the
  mix of the monitor loop's estimate-and-rank path.

Each workload normalises by the part that matches where it spends its time
(``run.PROBE_PART``). The kernel calls no proadapt code and its inputs
come from a fixed seed, so it never changes with the program under test.
"""

from __future__ import annotations

import gc
import json
import math
import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.005
# Median time of each part on the reference host (2-CPU Intel Xeon VM,
# Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31, one BLAS thread) while a
# workload runs. Normalised timings read as seconds on a host where the
# part takes this long.
NOMINAL_S = {"numpy": 200e-6, "python": 80e-6}


@dataclass(frozen=True)
class _Estimate:
    name: str
    latency: float
    cost: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latency) and math.isfinite(self.cost)):
            raise ValueError("estimate must be finite")


class Probe:
    """Runs the kernel on a timer and records when each part began and ended."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20200423)
        design = rng.standard_normal((300, 8))
        design[:, 0] = 1.0
        self._gram = design.T @ design
        self._moment = design.T @ rng.standard_normal(300)
        self._eye = np.eye(8)
        self._walk = np.cumsum(rng.standard_normal(60))
        self._draws = [(f"tactic_{i % 5}", float(x), float(y))
                       for i, (x, y) in enumerate(rng.random((16, 2)))]
        self.starts: list[float] = []
        self.splits: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def numpy_part(self) -> float:
        z = np.diff(self._walk)
        lagged = np.column_stack([np.ones(z.size - 1), z[:-1]])
        coef, *_ = np.linalg.lstsq(lagged, z[1:], rcond=None)
        residuals = z[1:] - lagged @ coef
        total = float(np.mean(residuals ** 2))
        for i in range(6):
            window = np.asarray(self._walk[i:i + 20], dtype=float).copy()
            total += float(np.all(np.isfinite(window))) \
                + float(np.dot((1.0, 0.5, 0.25), window[:3]))
        eigenvalues = np.linalg.eigvalsh(self._gram)
        weights = np.linalg.solve(self._gram + self._eye, self._moment)
        return total + float(eigenvalues[-1]) + float(weights[0])

    def python_part(self) -> int:
        estimates = [_Estimate(name, latency, cost) for name, latency, cost in self._draws]
        ranked = sorted(estimates, key=lambda e: (e.latency > 0.5, -e.cost, e.name))
        totals: dict[str, float] = {}
        for e in ranked:
            totals[e.name] = totals.get(e.name, 0.0) + e.cost
        rows = [{"name": e.name, "latency": e.latency, "rank": rank}
                for rank, e in enumerate(ranked[:6], start=1)]
        return len(json.dumps({"tactics": rows, "totals": totals}))

    def _fire(self, signum, frame) -> None:
        # A timer tick that lands while the kernel runs (the process was
        # descheduled for a whole period) is dropped, so probes never nest.
        if self._busy:
            return
        self._busy = True
        # A garbage collection that the kernel's allocations happen to
        # trigger scans the program's heap; leave it to the program.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.numpy_part()
        split = time.perf_counter()
        self.python_part()
        self.ends.append(time.perf_counter())
        self.starts.append(start)
        self.splits.append(split)
        if collecting:
            gc.enable()
        self._busy = False

    def start(self) -> None:
        # The first calls into LAPACK run cold; recorded warm-up runs keep
        # them from setting the scale of the time before the first timer tick.
        for _ in range(3):
            self._fire(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
