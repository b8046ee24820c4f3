"""RMSE/MAE scoring and the randomized replication harness.

The harness repeats seeded 90/10 experiments: forecasting runs compare the
fitted ARIMA(1, 1, 0) against a persistence (last-value) reference on a
contiguous held-out window; predictor runs compare the least-squares model
against the Bayesian ridge, running-mean, and static-value baselines on
random held-out rows, for each of one or more responses of one design.

Forecast splits use a contiguous test window because scattering test
points through a time series would leak future values into training;
regression rows carry no such ordering, so predictor splits sample rows
uniformly: a run holds out a seeded sample of n_test rows, drawn without
replacement by ``Generator.choice`` in O(n_test) steps rather than by
shuffling all n rows, and trains on the rest, in row order. Each run
has its own seed, derived from the master seed and its run index by
``types.subseeds`` in one array pass for all runs, so runs are
reorder-independent and the whole harness is byte-deterministic. A run
draws what ``np.random.default_rng(run_seed)`` would: one generator is
set, run by run, to the states ``types.generator_states`` derives for all
runs in one more array pass.
Each harness call returns one ``Reports`` grid: read-only (runs, models)
rmse and mae arrays, with the message of each failed run and model in
``errors``, so a failure does not abort the batch. Only the grid's
constructor applies the failed-cell rule: it writes NaN at the errors,
and a scored cell that is not finite raises ``ValueError`` naming the
first such run and column, once every pass is scored.

Forecast runs keep one seeded split per run. A pass fits the one window
before each of its distinct split starts in one ``fit_arima_windows``
call, a window length per start; the rest is array passes over up to
``PASS_CELLS`` forecast values. The held-out windows are gathered as
one (runs, test length) array and every run's forecast comes from
``arima.forecast_paths``.

Both harnesses score through ``_reports``: a pass's residuals form one
contiguous (models, runs, n) array, and each rmse and mae is a row
reduction of it, the score a per-run harness computes with ``rmse`` and
``mae``, bit for bit. The passes' rows are stacked into the grid, whose
constructor writes NaN at the errors and checks every other cell at once.
``Reports.select`` keeps and renames columns, ``summarize`` reduces
columns and counts wins from masks, and ``reports_to_csv_text`` writes
the scored cells.

Predictor runs draw one split per run for all of their responses, so each
run's scores of the responses are paired (common random numbers: Law &
Kelton, Simulation Modeling and Analysis, ch. 11), and the draws, the index
bookkeeping and the gathers of the held-out design rows are paid once. Runs
are fitted from downdated sufficient statistics (Golub & Van Loan, Matrix
Computations 6.5, 12.5). G = X'X, X't and t't of the whole design are
computed once per response; a run's training statistics are those minus its
held-out rows' share. The running-mean baseline is downdated the same way:
a run's training mean is (sum(t) - the sum of its held-out t) /
(n - n_test), from the held-out rows the gather pass already holds, so no
run builds a training mask for it; a run whose difference is not finite
takes the mean of its training rows instead. Its last bits can differ from
that mean's, within the pairwise-summation error bound of both sums
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 4). One
``PASS_CELLS`` budget sets two sizes: a fit batch holds at most that
many held-out row indices, and a gather pass at most that many gathered
values (runs x n_test x (M + 1)). Each fit batch draws its runs' splits and
downdates their statistics one gather pass at a time: a pass gathers
[X | t] of the first response once, and each other response in turn
overwrites the gathered last column with its own held-out t. So every
response's downdate is the (M + 1)-wide product that a one-response call
computes, bit for bit, whatever other responses it is scored with. Those
products differ only in their last column, so every response's downdated
X'X block is the first response's, bit for bit. The batch then takes
every response's least-squares and Bayesian-ridge weights of every run
from one ``regression.fit_gram_batch`` call, given the first response's
X'X block and each response's X't and t't: it decomposes each run's X'X
once for all of them, and gives each response the bits of a call of its
own. It flags every fit the statistics cannot be trusted with (cond(X'X)
above ``GRAM_CONDITION_LIMIT``, a residual sum below
``CANCELLATION_LIMIT`` of t't, anything non-finite); those are refitted
with ``fit_mra``/``fit_bayesian_ridge`` on their rows. A second round of
gather passes regathers the held-out rows, predicts every response's
held-out values in one ``matmul`` and scores all responses' models in one
``_reports`` call per pass. Each run's arithmetic is independent of the
runs that share its batch or pass, so the budget changes no bit of the
reports, and no array grows with runs x N.

A call allocates one workspace, sized to its largest fit batch and gather
pass: the held-out indices and downdated statistics of a batch, and flat
buffers for a pass's gathered rows and its residual grid. Every batch and
pass writes contiguous views of it, the layout fresh arrays would have,
so the bits are those of fresh arrays. Fresh arrays of these sizes (a few
hundred KB) cost more: glibc hands such freed blocks back to the kernel,
and the next pass faults their pages in again.

Report CSV format: header ``run,model,rmse,mae,train_fraction,seed``, then
one row per scored cell of each grid in turn, run by run and, within a
run, in the grid's model order; ``train_fraction`` is always
``TRAIN_FRACTION``. Reals at 17 significant digits, UTF-8, LF line endings.
Errored cells carry no scores and are omitted from the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .arima import fit_arima_windows, forecast_error, forecast_paths
from .regression import (DesignMatrix, ResponseVector, fit_bayesian_ridge, fit_gram_batch,
                         fit_mra)
from .types import (TimeSeries, check_integer, check_real, check_size, generator_states,
                    real_array, subseeds)

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
PASS_CELLS = 1 << 16  # forecast values, held-out indices or gathered values per pass


def _paired(predicted: Sequence[float], actual: Sequence[float]) -> np.ndarray:
    p, a = real_array("predicted", predicted), real_array("actual", actual)
    if p.shape != a.shape:
        raise ValueError(f"predicted and actual must be equal-length vectors, "
                         f"got {p.shape} and {a.shape}")
    if p.size == 0:
        raise ValueError("predicted and actual must be non-empty")
    return p - a


def rmse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Root mean square error: [sum (y_i - t_i)^2 / N]^(1/2).

    The two vectors, of one non-zero length, follow ``types.real_array``:
    a NaN among them gives a NaN score, and an infinite entry or an
    overflowing sum a non-finite one, the caller's to handle, as the
    harnesses do when they record it as a failed cell or raise; neither
    warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        return math.sqrt(float(np.mean(_paired(predicted, actual)**2)))


def mae(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute error: sum |y_i - t_i| / n. A NaN or overflowing score
    is the caller's to handle, as with ``rmse``, and neither warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(np.abs(_paired(predicted, actual))))


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
    (model, run) to the message of their failure, whatever scores were
    given there; every other cell must be finite (else ``ValueError`` names
    the first that is not, in run-then-column order) with rmse >= mae >= 0.
    Iterating a grid yields one ``Cell`` per cell, in run order and, within
    a run, in ``models`` order.
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
        rmse[failed] = mae[failed] = np.nan
        overflow = np.argwhere(~failed & ~(np.isfinite(rmse) & np.isfinite(mae)))
        if overflow.size:
            i, k = overflow[0].tolist()
            raise ValueError(f"run {i}, model {models[k]!r}: scores overflow "
                             f"(rmse={float(rmse[i, k])!r}, mae={float(mae[i, k])!r})")
        scored_rmse, scored_mae = rmse[~failed], mae[~failed]
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


def _run_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each run seed in turn, a ``Generator`` in the state
    ``np.random.default_rng(seed)`` starts in: one generator, whose state
    is set before each yield, so each must be drawn from before the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state in generator_states(seeds):
        rng.bit_generator.state = state
        yield rng


def _reports(residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (runs, models) rmse and mae rows of a pass, scored from (and
    overwriting) its contiguous (models, runs, n) ``residuals``. Each score
    reduces one contiguous row, so it sums exactly as ``rmse``/``mae`` on
    that run alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        # In place, since |e|^2 == e^2 bit for bit.
        maes = np.mean(np.abs(residuals, out=residuals), axis=-1).T
        rmses = np.sqrt(np.mean(np.square(residuals, out=residuals), axis=-1)).T
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
    forecast and the scores ``PASS_CELLS`` forecast values at a time.
    """
    check_size("n_runs", n_runs)
    check_integer("seed", seed, 0)
    seeds = subseeds(seed, np.arange(n_runs))
    models = (PERSISTENCE_MODEL, FORECAST_MODEL)
    try:
        test_len = _test_length(len(series))
    except ValueError as exc:
        unscored = np.zeros((n_runs, len(models)))
        return Reports(models, seeds, unscored, unscored,
                       {(model, run): str(exc) for run in range(n_runs) for model in models})
    last_start = len(series) - test_len
    starts = [int(rng.integers(MIN_TRAIN_POINTS, last_start + 1))
              for rng in _run_generators(seeds)]
    size = max(1, PASS_CELLS // test_len)
    errors: dict[tuple[str, int], str] = {}
    rows = [_forecast_pass(series, starts[lo:lo + size], range(lo, min(lo + size, n_runs)),
                           test_len, errors)
            for lo in range(0, n_runs, size)]
    rmse, mae = (np.concatenate(part) for part in zip(*rows))
    return Reports(models, seeds, rmse, mae, errors)


def _forecast_pass(series: TimeSeries, starts: Sequence[int], runs: range, test_len: int,
                   errors: dict[tuple[str, int], str]) -> tuple[np.ndarray, np.ndarray]:
    """The rmse and mae rows of the forecast ``runs``, whose test windows
    begin at ``starts``, persistence before arima; adds the runs' failures
    to ``errors``."""
    first = np.array(starts)
    # One fit per distinct start, of the one window before it, all in one call.
    distinct, fit = np.unique(first, return_inverse=True)
    phi, c, _, fit_errors = fit_arima_windows(series, distinct, np.zeros_like(distinct))
    failed = np.array([error is not None for error in fit_errors])[fit]
    errors.update(((FORECAST_MODEL, runs[i]), str(fit_errors[fit[i]]))
                  for i in np.flatnonzero(failed).tolist())
    # phi = c = 0 on a failed fit: a finite (flat) forecast.
    phi, c = np.where(failed, 0.0, phi[fit]), np.where(failed, 0.0, c[fit])
    values = series.values
    actual = values[first[:, None] + np.arange(test_len)]
    last = values[first - 1]
    predicted, nonfinite_step = forecast_paths(last, values[first - 2], phi, c, test_len)
    for i in np.flatnonzero(nonfinite_step).tolist():
        errors[FORECAST_MODEL, runs[i]] = forecast_error(int(nonfinite_step[i]))
    residuals = np.empty((2, len(runs), test_len))
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(last[:, None], actual, out=residuals[0])
        np.subtract(predicted.T, actual, out=residuals[1])
    return _reports(residuals)


def run_predictor_experiments(X: DesignMatrix,
                              responses: Mapping[str, tuple[ResponseVector, float]],
                              n_runs: int, seed: int) -> Reports:
    """Seeded predictor comparison on random 90/10 row splits, one split
    per run for every response.

    ``responses`` maps each response's name to its ``ResponseVector`` and
    the caller's design-time static value for it (a finite real). On each
    held-out row set, each response scores the least-squares fit, the
    Bayesian ridge, the running mean of its training responses and its
    static value. The grid's columns are named ``<model>_<name>``: one
    response after another, in ``responses`` order, and the models in
    ``PREDICTOR_MODELS`` order within each. A response's columns are, bit
    for bit, those a one-entry mapping of it gives under the same seed. A
    score that overflows raises the grid's ``ValueError``, naming the
    first such run and, on it, column. Runs are fitted from downdated
    statistics in batches of up to ``PASS_CELLS`` held-out rows (see the
    module docstring).
    """
    check_size("n_runs", n_runs)
    check_integer("seed", seed, 0)
    if not isinstance(responses, Mapping) or not responses:
        raise ValueError("responses must map at least one name to (t, static_value)")
    names = list(responses)
    for name, (_, static_value) in responses.items():
        if not isinstance(name, str):
            raise TypeError(f"response names must be strings, got {name!r}")
        check_real("static_value", static_value)
    if X.n < 40:
        raise ValueError(f"need at least 40 observations, got {X.n}")
    ts = [t.t for t, _ in responses.values()]
    for name, t in zip(names, ts):
        if len(t) != X.n:
            raise ValueError(f"{name} response: design matrix and responses disagree "
                             "on length")
    statics = [float(static_value) for _, static_value in responses.values()]
    # A response rides as the last column, so one product gives its X'X,
    # X't and t't. Each response takes that column in turn, the first one
    # last, so that the gathers start from it.
    augmented = np.column_stack([X.rows, ts[0]])
    totals = np.empty((len(ts), X.m + 1, X.m + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for r in reversed(range(len(ts))):
            augmented[:, -1] = ts[r]
            totals[r] = augmented.T @ augmented
    seeds = subseeds(seed, np.arange(n_runs))
    n_test = max(1, int(round((1.0 - TRAIN_FRACTION) * X.n)))
    # Each run's held-out rows, drawn as the batches reach the run.
    draws = (rng.choice(X.n, n_test, replace=False) for rng in _run_generators(seeds))
    size = max(1, PASS_CELLS // n_test)
    work = _PredictorWork.sized(len(ts), X.m + 1, n_test, min(size, n_runs))
    columns = tuple(f"{model}_{name}" for name in names for model in PREDICTOR_MODELS)
    errors: dict[tuple[str, int], str] = {}
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, n_runs, size):
        runs = range(start, min(start + size, n_runs))
        rows += _predictor_batch(X, ts, statics, augmented, totals, runs, draws, n_test,
                                 columns, errors, work)
    rmse, mae = (np.concatenate(part) for part in zip(*rows))
    return Reports(columns, seeds, rmse, mae, errors)


def _training_rows(test_idx: np.ndarray, n: int) -> np.ndarray:
    """The mask of the rows of an n-row design that a run holding out
    ``test_idx`` trains on: all the others, in row order."""
    train = np.ones(n, dtype=bool)
    train[test_idx] = False
    return train


class _PredictorWork(NamedTuple):
    """The arrays of a predictor harness call, allocated once and sized to
    its largest fit batch and gather pass, so that no batch or pass faults
    in fresh pages: the batch's held-out row indices and downdated
    statistics, and the flat buffers whose leading cells hold a pass's
    gathered rows and its residual grid."""

    test_idx: np.ndarray
    stats: np.ndarray
    gathered: np.ndarray
    grid: np.ndarray

    @classmethod
    def sized(cls, responses: int, width: int, n_test: int, runs: int) -> _PredictorWork:
        """The workspace of fit batches of up to ``runs`` runs holding out
        ``n_test`` rows of [X | t] of ``width`` columns, for ``responses``."""
        step = min(runs, _pass_runs(n_test, width))
        return cls(np.empty((runs, n_test), dtype=np.intp),
                   np.empty((responses, runs, width, width)),
                   np.empty(step * n_test * width), np.empty(responses * 4 * step * n_test))


def _pass_runs(n_test: int, width: int) -> int:
    """The runs of a gather pass: at most ``PASS_CELLS`` gathered values."""
    return max(1, PASS_CELLS // (n_test * width))


def _predictor_batch(X: DesignMatrix, ts: Sequence[np.ndarray], statics: Sequence[float],
                     augmented: np.ndarray, totals: np.ndarray, runs: range,
                     draws: Iterator[np.ndarray], n_test: int, columns: Sequence[str],
                     errors: dict[tuple[str, int], str], work: _PredictorWork
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rmse and mae rows of a fit batch of predictor runs, one pair per
    gather pass, in ``columns`` order. ``ts`` and ``statics`` hold each
    response's values and static value, ``totals`` its (M + 1) square
    statistics, and ``augmented`` is [X | the first response]; ``draws``
    yields the held-out rows of each of ``runs`` in turn, and ``work`` is
    the call's workspace. Adds the runs' failures to ``errors``."""
    width = X.m + 1
    step = _pass_runs(n_test, width)
    passes = [slice(lo, min(lo + step, len(runs))) for lo in range(0, len(runs), step)]
    test_idx, stats = work.test_idx[:len(runs)], work.stats[:, :len(runs)]
    means = np.empty((len(ts), len(runs)))

    def gather(span: slice) -> np.ndarray:
        """The held-out rows of [X | the first response] of the runs of
        ``span``, a contiguous view of the workspace. Every index lies in
        range; "clip" writes straight into the view, where "raise" buffers."""
        index = test_idx[span]
        out = work.gathered[:index.size * width].reshape(*index.shape, width)
        return np.take(augmented, index, axis=0, mode="clip", out=out)

    # Splits, training means and downdated statistics, one gather pass at a
    # time. Each response in turn takes the gathered last column, so its
    # downdate is the product a one-response call computes. One wider
    # product of [X | t_1 | ... | t_R] would share X'X, but BLAS may round
    # it differently at another width (with OpenBLAS 0.3.31, a 9-column
    # X'X from a 10- and a 12-column product differed in the last bits).
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [t.sum() for t in ts]
        for span in passes:
            for i in range(span.start, span.stop):
                test_idx[i] = next(draws)
            held_out = gather(span)
            for r, t in enumerate(ts):
                if r:
                    held_out[..., -1] = np.take(t, test_idx[span])
                means[r, span] = (sums[r] - held_out[..., -1].sum(axis=1)) / (X.n - n_test)
                np.subtract(totals[r], np.matmul(held_out.transpose(0, 2, 1), held_out),
                            out=stats[r, span])
        # Where a sum overflowed, the mean of the run's own training rows.
        for r, i in np.argwhere(~np.isfinite(means)).tolist():
            means[r, i] = ts[r][_training_rows(test_idx[i], X.n)].mean()
    # Each response's product differs from the first's only in its last
    # column, so its X'X block is the first's, bit for bit, and one call
    # decomposes it once for every response.
    weights = np.empty((len(ts), 2, len(runs), X.m))
    weights[:, 0], mra_ok, weights[:, 1], brr_ok = fit_gram_batch(
        stats[0, :, :-1, :-1], stats[:, :, :-1, -1], stats[:, :, -1, -1], X.n - n_test)
    # The least-squares and ridge fits, each response's last two columns.
    for r, t in enumerate(ts):
        for k, (trusted, fit) in enumerate(((mra_ok, fit_mra), (brr_ok, fit_bayesian_ridge))):
            column = columns[4 * r + 2 + k]
            for i in np.flatnonzero(~trusted[r]).tolist():
                train = _training_rows(test_idx[i], X.n)
                try:
                    fitted = fit(DesignMatrix(X.rows[train], X.column_names),
                                 ResponseVector(t[train]))
                except ValueError as exc:
                    errors[column, runs[i]] = str(exc)
                    weights[r, k, i] = 0.0
                else:
                    weights[r, k, i] = fitted.weights

    # Regather each pass's held-out rows and score every model of every
    # response on them, in one residual grid of the workspace.
    rows = []
    for span in passes:
        held_out = gather(span)
        shape = (len(ts), 4) + held_out.shape[:2]
        residuals = work.grid[:math.prod(shape)].reshape(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = residuals[:, 2:]
            np.matmul(held_out[..., :-1], weights[:, :, span, :, None],
                      out=predicted[..., None])
            np.maximum(0.0, predicted, out=predicted)
            for r, t in enumerate(ts):
                actual = np.take(t, test_idx[span]) if r else held_out[..., -1]
                np.subtract(means[r, span, None], actual, out=residuals[r, 0])
                np.subtract(statics[r], actual, out=residuals[r, 1])
                np.subtract(predicted[r], actual, out=predicted[r])
        rows.append(_reports(residuals.reshape((-1,) + held_out.shape[:2])))
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
