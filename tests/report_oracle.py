"""Row-wise reports, kept as an oracle for ``metrics.Reports``.

Before the harnesses returned one (runs, models) grid, every run/model
pair was one report object; the CSV writer and ``summarize`` walked those
objects. Here a report is a plain ``Row`` tuple, and ``rows_to_csv_text``
and ``summarize_rows`` are that writer and that ``summarize``. ``grid_rows``
flattens a grid into the rows the per-run harnesses produce.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from proadapt.metrics import ModelAggregate, Reports, Summary


class Row(NamedTuple):
    """One model's report on one run; ``rmse`` and ``mae`` are None when
    ``error`` is set."""

    run: int
    model: str
    rmse: float | None
    mae: float | None
    train_fraction: float
    seed: int
    error: str | None = None


def grid_rows(grid: Reports) -> list[Row]:
    """The grid's cells as rows, in run order and, within a run, in the
    grid's model order."""
    rows = []
    for run in range(len(grid.seeds)):
        for k, model in enumerate(grid.models):
            error = grid.errors.get((model, run))
            rmse, mae = (None, None) if error is not None else \
                (float(grid.rmse[run, k]), float(grid.mae[run, k]))
            rows.append(Row(run, model, rmse, mae, grid.train_fraction, grid.seeds[run],
                            error))
    return rows


def rows_to_csv_text(rows: list[Row]) -> str:
    lines = ["run,model,rmse,mae,train_fraction,seed"]
    for r in rows:
        if r.error is not None:
            continue
        lines.append(f"{r.run},{r.model},{r.rmse:.17g},{r.mae:.17g},"
                     f"{r.train_fraction:.17g},{r.seed}")
    return "\n".join(lines) + "\n"


def summarize_rows(rows: list[Row]) -> Summary:
    if not rows:
        raise ValueError("no reports to summarize")
    names = sorted({r.model for r in rows})
    scored: dict[str, dict[int, tuple[float, float]]] = {name: {} for name in names}
    errors = {name: 0 for name in names}
    for r in rows:
        if r.error is not None:
            errors[r.model] += 1
        else:
            scored[r.model][r.run] = (r.rmse, r.mae)
    models = {}
    for name in names:
        pairs = scored[name]
        if pairs:
            rmses = [rmse for rmse, _ in pairs.values()]
            maes = [mae for _, mae in pairs.values()]
            models[name] = ModelAggregate(
                runs=len(pairs), errors=errors[name],
                mean_rmse=float(np.mean(rmses)), min_rmse=min(rmses), max_rmse=max(rmses),
                mean_mae=float(np.mean(maes)), min_mae=min(maes), max_mae=max(maes),
            )
        else:
            nan = math.nan
            models[name] = ModelAggregate(0, errors[name], nan, nan, nan, nan, nan, nan)
    wins: dict[tuple[str, str], int] = {}
    comparisons: dict[tuple[str, str], int] = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            shared = scored[a].keys() & scored[b].keys()
            comparisons[(a, b)] = len(shared)
            wins[(a, b)] = sum(1 for run in shared if scored[a][run][0] < scored[b][run][0])
    return Summary(models=models, wins=wins, comparisons=comparisons)
