"""RMSE/MAE scoring and the randomized replication harness.

The harness repeats seeded 90/10 experiments: forecasting runs compare the
fitted ARIMA(1, 1, 0) against a persistence (last-value) reference on a
contiguous held-out window; predictor runs compare the least-squares model
against the Bayesian ridge, running-mean, and static-value baselines on
random held-out rows.

Forecast splits use a contiguous test window because scattering test
points through a time series would leak future values into training;
regression rows carry no such ordering, so predictor splits sample rows
uniformly: a run holds out a seeded sample of n_test rows, drawn without
replacement by ``Generator.choice`` in O(n_test) steps rather than by
shuffling all n rows, and trains on the rest, in row order. Each run
draws its own seed from the master seed through ``types.subseed``, so
runs are reorder-independent and the whole harness is byte-deterministic.
Each harness call returns one ``Reports`` grid: read-only (runs, models)
rmse and mae arrays, with the message of each failed run and model in
``errors`` and NaN in its cell, so a failure does not abort the batch; a
score that overflows raises ``ValueError`` naming the run and model.

Forecast runs keep one seeded split per run and one ``fit_arima_windows``
call per distinct split start in a pass, on the one window before that
start; the rest is array passes over up to ``FORECAST_CELLS`` forecast
values. The held-out windows are gathered as one (runs, test length)
array and every run's forecast comes from ``arima.forecast_paths``.

Both harnesses score through ``_reports``: a pass's residuals form one
contiguous (models, runs, n) array, and each rmse and mae is a row
reduction of it, the score a per-run harness computes with ``rmse`` and
``mae``, bit for bit. The passes' rows are stacked into the grid, whose
constructor checks every cell at once. ``Reports.select`` keeps and renames
columns, ``summarize`` reduces columns and counts wins from masks, and
``reports_to_csv_text`` writes the scored cells.

Predictor runs are fitted from downdated sufficient statistics (Golub &
Van Loan, Matrix Computations 6.5, 12.5). G = X'X, X't and t't of the
whole design are computed once; a run's training statistics are those minus
its held-out rows' share. One ``PREDICTOR_CELLS`` budget sets two sizes: a
fit batch holds at most that many held-out row indices, and a gather pass
at most that many gathered values (runs x n_test x (M + 1)). Each fit
batch draws its runs' splits and downdates their statistics one gather
pass at a time, then takes the least-squares and Bayesian-ridge weights of
every run from one ``regression.fit_gram_batch`` call, which flags every
run the statistics cannot be trusted with (cond(X'X) above
``GRAM_CONDITION_LIMIT``, a residual sum below ``CANCELLATION_LIMIT`` of
t't, anything non-finite); those runs are refitted with
``fit_mra``/``fit_bayesian_ridge`` on their rows. A second round of gather
passes regathers the held-out rows and scores the predictions. Each run's
arithmetic is independent of the runs that share its batch or pass, so the
budget changes no bit of the reports, and no array grows with runs x N.

Report CSV format: header ``run,model,rmse,mae,train_fraction,seed``, then
one row per scored cell of each grid in turn, run by run and, within a
run, in the grid's model order; ``train_fraction`` is always
``TRAIN_FRACTION``. Reals at 17 significant digits, UTF-8, LF line endings.
Errored cells carry no scores and are omitted from the CSV.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .arima import fit_arima_windows, forecast_error, forecast_paths
from .regression import (DesignMatrix, ResponseVector, baseline_mean, fit_bayesian_ridge,
                         fit_gram_batch, fit_mra)
from .types import TimeSeries, check_integer, subseed

__all__ = [
    "Cell",
    "Reports",
    "ModelAggregate",
    "Summary",
    "rmse",
    "mae",
    "run_forecast_experiments",
    "run_predictor_experiments",
    "summarize",
    "reports_to_csv_text",
]

TRAIN_FRACTION = 0.9  # every split trains on 90% of the points or rows
MIN_TEST_POINTS = 10   # admits the canonical 90/10 split of a 100-point series
MIN_TRAIN_POINTS = 12  # ARIMA(1,1,0) needs 11 raw points; one extra for headroom

FORECAST_MODEL = "arima"
PERSISTENCE_MODEL = "persistence"
MRA_MODEL = "mra"
BRR_MODEL = "brr"
MEAN_BASELINE = "baseline_mean"
STATIC_BASELINE = "baseline_static"
PREDICTOR_MODELS = (MEAN_BASELINE, STATIC_BASELINE, MRA_MODEL, BRR_MODEL)
PREDICTOR_CELLS = 1 << 16  # held-out indices per fit batch, gathered values per pass
FORECAST_CELLS = 1 << 16  # forecast values (runs x test length) per forecast pass


def _paired(predicted: Sequence[float], actual: Sequence[float]) -> np.ndarray:
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1:
        raise ValueError(f"predicted and actual must be equal-length vectors, "
                         f"got {p.shape} and {a.shape}")
    if p.size == 0:
        raise ValueError("cannot score empty vectors")
    return p - a


def rmse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Root mean square error: [sum (y_i - t_i)^2 / N]^(1/2).

    A NaN among the inputs gives a NaN score, and an overflowing sum an
    infinite one: such a score is the caller's to handle, as the harnesses
    do when they record it as a failed cell or raise."""
    errors = _paired(predicted, actual)
    return math.sqrt(float(np.mean(errors**2)))


def mae(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute error: sum |y_i - t_i| / n. A NaN or overflowing score
    is the caller's to handle, as with ``rmse``."""
    errors = _paired(predicted, actual)
    return float(np.mean(np.abs(errors)))


class Cell(NamedTuple):
    """One model's scores on one run, as ``Reports`` yields them; an errored
    cell has no scores (``rmse`` and ``mae`` are None) and its ``error``."""

    run: int
    model: str
    rmse: float | None
    mae: float | None
    seed: int
    error: str | None


@dataclass(frozen=True, eq=False)
class Reports:
    """The scores of one harness call as a (runs, models) grid.

    ``models`` names the columns in their within-run order and ``seeds``
    holds each run's seed. ``rmse`` and ``mae`` are read-only float arrays of
    shape (runs, models), NaN exactly at the cells that ``errors`` maps
    (model, run) to the message of their failure; every other cell is
    finite with rmse >= mae >= 0. Iterating a grid yields one ``Cell`` per
    cell, in run order and, within a run, in ``models`` order.
    """

    models: tuple[str, ...]
    seeds: tuple[int, ...]
    rmse: np.ndarray
    mae: np.ndarray
    errors: Mapping[tuple[str, int], str]

    def __post_init__(self) -> None:
        models, seeds = tuple(self.models), tuple(self.seeds)
        if len(set(models)) != len(models):
            raise ValueError(f"model names must be distinct, got {models}")
        shape = (len(seeds), len(models))
        rmse, mae = (np.array(scores, dtype=float) for scores in (self.rmse, self.mae))
        if rmse.shape != shape or mae.shape != shape:
            raise ValueError(f"rmse and mae must have shape (runs, models) = {shape}, "
                             f"got {rmse.shape} and {mae.shape}")
        failed = np.zeros(shape, dtype=bool)
        column = {model: k for k, model in enumerate(models)}
        for model, run in self.errors:
            if model not in column or not 0 <= run < len(seeds):
                raise ValueError(f"error of model {model!r} on run {run} is outside the grid")
            failed[run, column[model]] = True
        if not np.isnan(rmse[failed]).all() or not np.isnan(mae[failed]).all():
            raise ValueError("an errored cell must have NaN scores")
        scored_rmse, scored_mae = rmse[~failed], mae[~failed]
        if not (np.isfinite(scored_rmse).all() and np.isfinite(scored_mae).all()):
            raise ValueError("scores must be finite")
        if (scored_mae < 0).any() or (
                scored_rmse < scored_mae - 1e-12 * np.maximum(1.0, scored_mae)).any():
            raise ValueError("expected rmse >= mae >= 0")
        rmse.flags.writeable = mae.flags.writeable = False
        for name, value in (("models", models), ("seeds", seeds), ("rmse", rmse),
                            ("mae", mae), ("errors", MappingProxyType(dict(self.errors)))):
            object.__setattr__(self, name, value)

    def __iter__(self) -> Iterator[Cell]:
        for run, seed in enumerate(self.seeds):
            for k, model in enumerate(self.models):
                error = self.errors.get((model, run))
                scores = (None, None) if error is not None else \
                    (float(self.rmse[run, k]), float(self.mae[run, k]))
                yield Cell(run, model, *scores, seed, error)

    def select(self, names: Mapping[str, str]) -> Reports:
        """The columns of the models that ``names`` maps, renamed to their
        values and kept in their order here."""
        keep = [k for k, model in enumerate(self.models) if model in names]
        return Reports(tuple(names[self.models[k]] for k in keep), self.seeds,
                       self.rmse[:, keep], self.mae[:, keep],
                       {(names[model], run): error
                        for (model, run), error in self.errors.items() if model in names})


def _reports(runs: range, models: Sequence[str], residuals: np.ndarray,
             errors: Mapping[tuple[str, int], str]) -> tuple[np.ndarray, np.ndarray]:
    """The (runs, models) rmse and mae rows of ``runs``, scored from (and
    overwriting) their contiguous (models, runs, n) ``residuals``; a cell
    that ``errors`` maps (model, run) is NaN. Each score reduces one
    contiguous row, so it sums exactly as ``rmse``/``mae`` on that run
    alone. A score that overflowed raises ``ValueError`` naming the first
    such run and, within it, model."""
    with np.errstate(over="ignore", invalid="ignore"):
        # In place, since |e|^2 == e^2 bit for bit.
        maes = np.mean(np.abs(residuals, out=residuals), axis=-1).T
        rmses = np.sqrt(np.mean(np.square(residuals, out=residuals), axis=-1)).T
    failed = np.zeros(rmses.shape, dtype=bool)
    for model, run in errors:
        if run in runs:
            failed[run - runs.start, models.index(model)] = True
    maes[failed] = rmses[failed] = np.nan
    overflow = ~failed & ~(np.isfinite(rmses) & np.isfinite(maes))
    if overflow.any():
        i, k = np.argwhere(overflow)[0].tolist()
        raise ValueError(f"run {runs[i]}, model {models[k]!r}: scores overflow "
                         f"(rmse={float(rmses[i, k])!r}, mae={float(maes[i, k])!r})")
    return rmses, maes


def _test_length(n: int) -> int:
    """The held-out window length of an n-point series; raises ``ValueError``
    when it is below ``MIN_TEST_POINTS``. A series long enough for that
    leaves far more than ``MIN_TRAIN_POINTS`` before the last window."""
    test_len = int(round((1.0 - TRAIN_FRACTION) * n))
    if test_len < MIN_TEST_POINTS:
        raise ValueError(f"test window of {test_len} points is below the "
                         f"{MIN_TEST_POINTS}-point floor")
    return test_len


def run_forecast_experiments(series: TimeSeries, n_runs: int, seed: int) -> Reports:
    """Seeded forecast comparison: ARIMA(1,1,0) vs the persistence reference.

    Each run cuts a contiguous test window of round((1 - TRAIN_FRACTION) * n)
    points at a seeded uniform-random position, fits on everything before
    it (later points are discarded, so no future observation leaks into the
    fit), forecasts the whole window, and scores both forecasters against
    it. Failures are recorded per run and model. Runs go through the
    forecast and the scores ``FORECAST_CELLS`` forecast values at a time.
    """
    check_integer("n_runs", n_runs, 1)
    check_integer("seed", seed, 0)
    seeds = [subseed(seed, run) for run in range(n_runs)]
    models = (PERSISTENCE_MODEL, FORECAST_MODEL)
    try:
        test_len = _test_length(len(series))
    except ValueError as exc:
        failed = np.full((n_runs, len(models)), np.nan)
        return Reports(models, seeds, failed, failed,
                       {(model, run): str(exc) for run in range(n_runs) for model in models})
    last_start = len(series) - test_len
    starts = [int(np.random.default_rng(run_seed).integers(MIN_TRAIN_POINTS, last_start + 1))
              for run_seed in seeds]
    size = max(1, FORECAST_CELLS // test_len)
    errors: dict[tuple[str, int], str] = {}
    rows = [_forecast_pass(series, starts[lo:lo + size], range(lo, min(lo + size, n_runs)),
                           test_len, errors)
            for lo in range(0, n_runs, size)]
    rmse_rows, mae_rows = zip(*rows)
    return Reports(models, seeds, np.concatenate(rmse_rows), np.concatenate(mae_rows),
                   errors)


def _forecast_pass(series: TimeSeries, starts: Sequence[int], runs: range, test_len: int,
                   errors: dict[tuple[str, int], str]) -> tuple[np.ndarray, np.ndarray]:
    """The rmse and mae rows of the forecast ``runs``, whose test windows
    begin at ``starts``, persistence before arima; adds the runs' failures
    to ``errors``."""
    fits = {}  # (phi, c, error) by start, so runs that draw one start share its fit
    for start in dict.fromkeys(starts):
        phi, c, _, (error,) = fit_arima_windows(series, start, [0])
        # phi = c = 0 on a failed fit: a finite (flat) forecast.
        fits[start] = (0.0, 0.0, str(error)) if error else (phi[0], c[0], None)
    phi, c, fit_errors = zip(*(fits[start] for start in starts))
    errors.update(((FORECAST_MODEL, run), error) for run, error in zip(runs, fit_errors)
                  if error is not None)
    values = series.values
    first = np.array(starts)
    actual = values[first[:, None] + np.arange(test_len)]
    last = values[first - 1]
    predicted, nonfinite_step = forecast_paths(last, values[first - 2], phi, c, test_len)
    for i in np.flatnonzero(nonfinite_step).tolist():
        errors[FORECAST_MODEL, runs[i]] = forecast_error(int(nonfinite_step[i]))
    residuals = np.empty((2, len(runs), test_len))
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(last[:, None], actual, out=residuals[0])
        np.subtract(predicted.T, actual, out=residuals[1])
    return _reports(runs, (PERSISTENCE_MODEL, FORECAST_MODEL), residuals, errors)


def run_predictor_experiments(X: DesignMatrix, t: ResponseVector, n_runs: int,
                              seed: int, static_value: float) -> Reports:
    """Seeded predictor comparison on random 90/10 row splits.

    Scores the least-squares fit, the Bayesian ridge, the running mean of
    the training responses, and the caller's design-time ``static_value``
    (a finite real) on each held-out row set. Runs are fitted from
    downdated statistics in batches of up to ``PREDICTOR_CELLS`` held-out
    rows (see the module docstring).
    """
    check_integer("n_runs", n_runs, 1)
    check_integer("seed", seed, 0)
    if isinstance(static_value, bool) or not isinstance(static_value, numbers.Real):
        raise TypeError(f"static_value must be a real number, got {static_value!r}")
    if not math.isfinite(static_value):
        raise ValueError(f"static_value must be finite, got {static_value!r}")
    if X.n < 40:
        raise ValueError(f"need at least 40 observations, got {X.n}")
    if X.n != len(t):
        raise ValueError("design matrix and responses disagree on length")
    # The response rides as the last column, so one product gives X'X, X't and t't.
    augmented = np.column_stack([X.rows, t.t])
    with np.errstate(over="ignore", invalid="ignore"):
        totals = augmented.T @ augmented
    seeds = [subseed(seed, run) for run in range(n_runs)]
    n_test = max(1, int(round((1.0 - TRAIN_FRACTION) * X.n)))
    size = max(1, PREDICTOR_CELLS // n_test)
    errors: dict[tuple[str, int], str] = {}
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, n_runs, size):
        runs = range(start, min(start + size, n_runs))
        rows += _predictor_batch(X, t, augmented, totals, runs, seeds, n_test,
                                 float(static_value), errors)
    rmse_rows, mae_rows = zip(*rows)
    return Reports(PREDICTOR_MODELS, seeds, np.concatenate(rmse_rows),
                   np.concatenate(mae_rows), errors)


def _training_rows(test_idx: np.ndarray, n: int) -> np.ndarray:
    """The mask of the rows of an n-row design that a run holding out
    ``test_idx`` trains on: all the others, in row order."""
    train = np.ones(n, dtype=bool)
    train[test_idx] = False
    return train


def _predictor_batch(X: DesignMatrix, t: ResponseVector, augmented: np.ndarray,
                     totals: np.ndarray, runs: range, seeds: Sequence[int], n_test: int,
                     static_value: float, errors: dict[tuple[str, int], str]
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rmse and mae rows of a fit batch of predictor runs, one pair per
    gather pass, in the order of ``PREDICTOR_MODELS``; adds the runs'
    failures to ``errors``."""
    step = max(1, PREDICTOR_CELLS // (n_test * augmented.shape[1]))
    passes = [slice(lo, min(lo + step, len(runs))) for lo in range(0, len(runs), step)]
    test_idx = np.empty((len(runs), n_test), dtype=np.intp)
    stats = np.empty((len(runs),) + totals.shape)
    means = np.empty(len(runs))
    # Splits, training means and downdated statistics, one gather pass at a time.
    for span in passes:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(span.start, span.stop):
                test_idx[i] = np.random.default_rng(seeds[runs[i]]).choice(
                    X.n, n_test, replace=False)
                means[i] = baseline_mean(t.t[_training_rows(test_idx[i], X.n)])
            held_out = augmented[test_idx[span]]
            np.subtract(totals, np.matmul(held_out.transpose(0, 2, 1), held_out),
                        out=stats[span])
    mra, mra_ok, brr, brr_ok = fit_gram_batch(stats[:, :-1, :-1], stats[:, :-1, -1],
                                              stats[:, -1, -1], X.n - n_test)
    weights = np.stack([mra, brr])
    for k, (name, trusted, fit) in enumerate(((MRA_MODEL, mra_ok, fit_mra),
                                              (BRR_MODEL, brr_ok, fit_bayesian_ridge))):
        for i in np.flatnonzero(~trusted).tolist():
            train = _training_rows(test_idx[i], X.n)
            try:
                model = fit(DesignMatrix(X.rows[train], X.column_names),
                            ResponseVector(t.t[train]))
            except ValueError as exc:
                errors[name, runs[i]] = str(exc)
                weights[k, i] = 0.0
            else:
                weights[k, i] = model.weights

    # Regather each pass's held-out rows and score every model on them.
    rows = []
    for span in passes:
        held_out = augmented[test_idx[span]]
        test_rows, actual = held_out[..., :-1], held_out[..., -1]
        residuals = np.empty((4,) + actual.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(means[span, None], actual, out=residuals[0])
            np.subtract(static_value, actual, out=residuals[1])
            predicted = residuals[2:]
            np.matmul(test_rows, weights[:, span, :, None], out=predicted[..., None])
            np.subtract(np.maximum(0.0, predicted, out=predicted), actual, out=predicted)
        rows.append(_reports(runs[span], PREDICTOR_MODELS, residuals, errors))
    return rows


class ModelAggregate(NamedTuple):
    runs: int
    errors: int
    mean_rmse: float
    min_rmse: float
    max_rmse: float
    mean_mae: float
    min_mae: float
    max_mae: float


class Summary(NamedTuple):
    """Per-model aggregates plus pairwise win counts.

    ``wins[(a, b)]`` counts the runs where both models scored and model
    ``a``'s rmse was strictly below model ``b``'s; ``comparisons[(a, b)]``
    is the number of runs where both scored.
    """

    models: Mapping[str, ModelAggregate]
    wins: Mapping[tuple[str, str], int]
    comparisons: Mapping[tuple[str, str], int]


def summarize(reports: Reports) -> Summary:
    """Aggregate each model's scored runs, in run order, and count pairwise
    rmse wins; models are keyed in name order."""
    if not reports.rmse.size:
        raise ValueError("no reports to summarize")
    scored = ~np.isnan(reports.rmse)
    # (runs, a, b): both scored, and a's rmse strictly below b's.
    both = scored[:, :, None] & scored[:, None, :]
    comparisons = np.count_nonzero(both, axis=0).tolist()
    wins = np.count_nonzero(both & (reports.rmse[:, :, None] < reports.rmse[:, None, :]),
                            axis=0).tolist()
    column = {name: k for k, name in enumerate(reports.models)}
    names = sorted(column)
    models = {}
    for name in names:
        k = column[name]
        keep = scored[:, k]
        rmses, maes = reports.rmse[keep, k], reports.mae[keep, k]
        if rmses.size:
            models[name] = ModelAggregate(
                runs=rmses.size, errors=keep.size - rmses.size,
                mean_rmse=float(np.mean(rmses)), min_rmse=float(rmses.min()),
                max_rmse=float(rmses.max()), mean_mae=float(np.mean(maes)),
                min_mae=float(maes.min()), max_mae=float(maes.max()),
            )
        else:
            nan = float("nan")
            models[name] = ModelAggregate(0, keep.size, nan, nan, nan, nan, nan, nan)
    pairs = [(a, b) for a in names for b in names if a != b]
    return Summary(models=models,
                   wins={(a, b): wins[column[a]][column[b]] for a, b in pairs},
                   comparisons={(a, b): comparisons[column[a]][column[b]] for a, b in pairs})


def reports_to_csv_text(*grids: Reports) -> str:
    """Render the scored cells of ``grids``, one grid after another and each
    in run order, in the fixed CSV format (LF, 17 significant digits)."""
    lines = ["run,model,rmse,mae,train_fraction,seed"]
    row = f"%d,%s,%.17g,%.17g,{TRAIN_FRACTION:.17g},%d"
    for grid in grids:
        runs, columns = (cells.tolist() for cells in np.nonzero(~np.isnan(grid.rmse)))
        lines += [row % cell for cell in zip(runs, [grid.models[k] for k in columns],
                                             grid.rmse[runs, columns].tolist(),
                                             grid.mae[runs, columns].tolist(),
                                             [grid.seeds[run] for run in runs])]
    return "\n".join(lines) + "\n"
