"""Output validation: counts the operations whose output is wrong.

A monitor operation is one tick over all specs; a replicate operation is
one randomized run of one question (rq2, rq3-latency or rq3-cost).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

STATUSES = ("healthy", "at_risk", "broken")
# question -> (report file, models that must have scored each run)
QUESTIONS = {
    "rq2": (("rq2.csv", ("arima", "persistence")),),
    "rq3-latency": (("rq3.csv", ("mra_latency", "brr_latency")),
                    ("rq4.csv", ("mra", "baseline_mean", "baseline_static"))),
    "rq3-cost": (("rq3.csv", ("mra_cost", "brr_cost")),),
}
ROWS_PER_RUN = {"rq1.csv": 2, "rq2.csv": 2, "rq3.csv": 4, "rq4.csv": 3}
SUMMARY_HEADINGS = tuple(f"experiment {i}:" for i in range(1, 5))


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _entry(line: str, tick: int, horizon: int, n_tactics: int) -> tuple[str | None, str]:
    """(spec name, status) of one monitor line; the name is None if invalid."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        return None, "invalid"
    status = entry.get("status")
    if entry.get("tick") != tick or "error" in entry or status not in STATUSES:
        return None, "invalid"
    forecast = entry.get("forecast")
    step = entry.get("first_violation_step")
    tactics = entry.get("tactics")
    ranks = list(range(1, n_tactics + 1)) if status != "healthy" else []
    valid = (
        isinstance(forecast, list) and len(forecast) == horizon
        and all(_finite(v) for v in forecast)
        and (status == "at_risk") == (step is not None)
        and (step is None or 1 <= step <= horizon)
        and isinstance(tactics, list) and [t.get("rank") for t in tactics] == ranks
        and all(_finite(t.get("latency")) and _finite(t.get("cost"))
                and t["latency"] >= 0 and t["cost"] >= 0 for t in tactics))
    return (entry.get("name") if valid else None), status


def check_monitor(text: str, n_ticks: int, spec_names: list[str], horizon: int,
                  n_tactics: int) -> tuple[int, Counter]:
    """Failed ticks out of ``n_ticks``, and the count of each status.

    A tick passes when it has exactly one valid line per spec.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    k = len(spec_names)
    statuses: Counter = Counter()
    failed = 0
    for tick in range(n_ticks):
        entries = [_entry(line, tick, horizon, n_tactics)
                   for line in lines[tick * k:(tick + 1) * k]]
        statuses.update(status for _, status in entries)
        failed += sorted(name or "" for name, _ in entries) != sorted(spec_names)
    if len(lines) != n_ticks * k:
        failed = max(failed, 1)
    return failed, statuses


def _row_ok(row: dict, runs: int) -> bool:
    try:
        run, rmse, mae = int(row["run"]), float(row["rmse"]), float(row["mae"])
    except (KeyError, TypeError, ValueError):
        return False
    return 0 <= run < runs and math.isfinite(rmse) and math.isfinite(mae) \
        and rmse >= mae * (1 - 1e-12) and mae >= 0


def check_replicate(out_dir: Path, stdout: str, runs: int) -> int:
    """Failed operations out of ``3 * runs``.

    Every operation fails when a report file is missing or has the wrong
    row count, or when the summary table was not printed.
    """
    try:
        rows = {name: list(csv.DictReader(io.StringIO(
                    (out_dir / name).read_text(encoding="utf-8"))))
                for name in ROWS_PER_RUN}
    except OSError:
        return 3 * runs
    if any(len(rows[name]) != per_run * runs for name, per_run in ROWS_PER_RUN.items()) \
            or not all(heading in stdout for heading in SUMMARY_HEADINGS):
        return 3 * runs
    scored: dict[str, dict[int, set]] = {}
    for name in ("rq2.csv", "rq3.csv", "rq4.csv"):
        scored[name] = defaultdict(set)
        for row in rows[name]:
            if _row_ok(row, runs):
                scored[name][int(row["run"])].add(row["model"])
    return sum(not all(set(models) <= scored[name][run] for name, models in needs)
               for needs in QUESTIONS.values() for run in range(runs))
