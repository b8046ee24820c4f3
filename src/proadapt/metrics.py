"""RMSE/MAE scoring and the randomized replication harness.

The harness repeats seeded 90/10 experiments: forecasting runs compare the
fitted ARIMA(1, 1, 0) against a persistence (last-value) reference on a
contiguous held-out window; predictor runs compare the least-squares model
against the Bayesian ridge, running-mean, and static-value baselines on
random held-out rows.

Forecast splits use a contiguous test window because scattering test
points through a time series would leak future values into training;
regression rows carry no such ordering, so predictor splits sample rows
uniformly. Each run draws its own seed from the master seed through
``types.subseed``, so runs are reorder-independent and the whole harness
is byte-deterministic. A failed run is recorded on its report instead of
aborting the batch; a score that overflows raises ``ValueError`` naming
the run and model.

Forecast runs keep one seeded split per run and one ``fit_arima_windows``
call per distinct split start in a pass, on the one window before that
start; the rest is array passes over up to ``FORECAST_CELLS`` forecast
values. The held-out windows are gathered as one (runs, test length)
array and every run's forecast comes from ``arima.forecast_paths``.

Both harnesses score through ``_reports``: a pass's residuals form one
contiguous (models, runs, n) array, and each rmse and mae is a row
reduction of it, the score a per-run harness computes with ``rmse`` and
``mae``, bit for bit.

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

Report CSV format: header ``run,model,rmse,mae,train_fraction,seed``, one
row per scored run/model pair, reals at 17 significant digits, UTF-8, LF
line endings. Errored runs carry no scores and are omitted from the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .arima import fit_arima_windows, forecast_error, forecast_paths
from .regression import (DesignMatrix, ResponseVector, baseline_mean, fit_bayesian_ridge,
                         fit_gram_batch, fit_mra)
from .types import TimeSeries, subseed

__all__ = [
    "ScorePair",
    "ExperimentReport",
    "ModelAggregate",
    "Summary",
    "rmse",
    "mae",
    "run_forecast_experiments",
    "run_predictor_experiments",
    "summarize",
    "reports_to_csv_text",
    "write_reports_csv",
]

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
    """Root mean square error: [sum (y_i - t_i)^2 / N]^(1/2)."""
    errors = _paired(predicted, actual)
    return math.sqrt(float(np.mean(errors**2)))


def mae(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute error: sum |y_i - t_i| / n."""
    errors = _paired(predicted, actual)
    return float(np.mean(np.abs(errors)))


@dataclass(frozen=True)
class ScorePair:
    rmse: float
    mae: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rmse) and math.isfinite(self.mae)):
            raise ValueError("scores must be finite")
        if self.mae < 0 or self.rmse < self.mae - 1e-12 * max(1.0, self.mae):
            raise ValueError("expected rmse >= mae >= 0")


@dataclass(frozen=True)
class ExperimentReport:
    """One model's scores for one randomized run; ``error`` is set (and
    ``scores`` is None) when the run failed for this model."""

    run_index: int
    model_name: str
    scores: ScorePair | None
    train_fraction: float
    seed: int
    error: str | None = None

    def __post_init__(self) -> None:
        if self.run_index < 0:
            raise ValueError("run_index must be >= 0")
        _check_train_fraction(self.train_fraction)
        if (self.scores is None) == (self.error is None):
            raise ValueError("exactly one of scores and error must be set")


def _reports(runs: range, models: Sequence[str], residuals: np.ndarray,
             errors: Mapping[tuple[str, int], str], seeds: Sequence[int],
             train_fraction: float) -> list[ExperimentReport]:
    """Reports of ``runs`` in run order and, within a run, in ``models``
    order, scored from (and overwriting) their contiguous (models, runs, n)
    ``residuals``; ``errors[model, run]`` replaces the scores of ``model`` on
    ``run``. Each score reduces one contiguous row, so it sums
    exactly as ``rmse``/``mae`` on that run alone. A score that overflowed
    raises ``ValueError`` naming the run and model."""
    with np.errstate(over="ignore", invalid="ignore"):
        # In place, since |e|^2 == e^2 bit for bit.
        maes = np.mean(np.abs(residuals, out=residuals), axis=-1).tolist()
        rmses = np.sqrt(np.mean(np.square(residuals, out=residuals), axis=-1)).tolist()
    reports: list[ExperimentReport] = []
    for i, run in enumerate(runs):
        for k, model in enumerate(models):
            error, scores = errors.get((model, run)), None
            if error is None:
                rmse_value, mae_value = rmses[k][i], maes[k][i]
                if not (math.isfinite(rmse_value) and math.isfinite(mae_value)):
                    raise ValueError(f"run {run}, model {model!r}: scores overflow "
                                     f"(rmse={rmse_value!r}, mae={mae_value!r})")
                scores = ScorePair(rmse_value, mae_value)
            reports.append(ExperimentReport(run, model, scores, train_fraction,
                                            seeds[run], error=error))
    return reports


def _check_train_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:  # False for NaN
        raise ValueError("train_fraction must lie in (0, 1)")


def _test_length(n: int, train_fraction: float) -> int:
    """The held-out window length of an n-point series; raises ``ValueError``
    when the split leaves too few test or training points."""
    _check_train_fraction(train_fraction)
    test_len = int(round((1.0 - train_fraction) * n))
    if test_len < MIN_TEST_POINTS:
        raise ValueError(f"test window of {test_len} points is below the "
                         f"{MIN_TEST_POINTS}-point floor")
    if n - test_len < MIN_TRAIN_POINTS:
        raise ValueError(f"series too short to leave {MIN_TRAIN_POINTS} training points")
    return test_len


def run_forecast_experiments(series: TimeSeries, n_runs: int, seed: int,
                             train_fraction: float = 0.9) -> list[ExperimentReport]:
    """Seeded forecast comparison: ARIMA(1,1,0) vs the persistence reference.

    Each run cuts a contiguous test window of round((1 - train_fraction) * n)
    points at a seeded uniform-random position, fits on everything before
    it (later points are discarded, so no future observation leaks into the
    fit), forecasts the whole window, and scores both forecasters against
    it. Failures are recorded per run and model. Runs go through the
    forecast and the scores ``FORECAST_CELLS`` forecast values at a time.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seeds = [subseed(seed, run) for run in range(n_runs)]
    try:
        test_len = _test_length(len(series), train_fraction)
    except ValueError as exc:
        return [ExperimentReport(run, model, None, train_fraction, run_seed, error=str(exc))
                for run, run_seed in enumerate(seeds)
                for model in (FORECAST_MODEL, PERSISTENCE_MODEL)]
    last_start = len(series) - test_len
    starts = [int(np.random.default_rng(run_seed).integers(MIN_TRAIN_POINTS, last_start + 1))
              for run_seed in seeds]
    size = max(1, FORECAST_CELLS // test_len)
    reports: list[ExperimentReport] = []
    for lo in range(0, n_runs, size):
        runs = range(lo, min(lo + size, n_runs))
        reports += _forecast_pass(series, starts[lo:runs.stop], runs, seeds, test_len,
                                  train_fraction)
    return reports


def _forecast_pass(series: TimeSeries, starts: Sequence[int], runs: range,
                   seeds: Sequence[int], test_len: int,
                   train_fraction: float) -> list[ExperimentReport]:
    """Reports of the forecast ``runs``, whose test windows begin at
    ``starts``, in run order and, within a run, persistence before arima."""
    fits = {}  # (phi, c, error) by start, so runs that draw one start share its fit
    for start in dict.fromkeys(starts):
        phi, c, _, (error,) = fit_arima_windows(series, start, [0])
        # phi = c = 0 on a failed fit: a finite (flat) forecast.
        fits[start] = (0.0, 0.0, str(error)) if error else (phi[0], c[0], None)
    phi, c, fit_errors = zip(*(fits[start] for start in starts))
    errors = {(FORECAST_MODEL, run): error for run, error in zip(runs, fit_errors)
              if error is not None}
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
    return _reports(runs, (PERSISTENCE_MODEL, FORECAST_MODEL), residuals, errors, seeds,
                    train_fraction)


def run_predictor_experiments(X: DesignMatrix, t: ResponseVector, n_runs: int,
                              seed: int, static_value: float,
                              train_fraction: float = 0.9) -> list[ExperimentReport]:
    """Seeded predictor comparison on random 90/10 row splits.

    Scores the least-squares fit, the Bayesian ridge, the running mean of
    the training responses, and the caller's design-time ``static_value``
    on each held-out row set. Runs are fitted from downdated statistics in
    batches of up to ``PREDICTOR_CELLS`` held-out rows (see the module
    docstring).
    """
    _check_train_fraction(train_fraction)
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if X.n < 40:
        raise ValueError(f"need at least 40 observations, got {X.n}")
    if X.n != len(t):
        raise ValueError("design matrix and responses disagree on length")
    # The response rides as the last column, so one product gives X'X, X't and t't.
    augmented = np.column_stack([X.rows, t.t])
    with np.errstate(over="ignore", invalid="ignore"):
        totals = augmented.T @ augmented
    seeds = [subseed(seed, run) for run in range(n_runs)]
    n_test = max(1, int(round((1.0 - train_fraction) * X.n)))
    size = max(1, PREDICTOR_CELLS // n_test)
    reports: list[ExperimentReport] = []
    for start in range(0, n_runs, size):
        runs = range(start, min(start + size, n_runs))
        reports += _predictor_batch(X, t, augmented, totals, runs, seeds, n_test,
                                    static_value, train_fraction)
    return reports


def _permutation(run_seed: int, n: int) -> np.ndarray:
    """A run's row order: its first n_test rows are held out, the rest train."""
    return np.random.default_rng(run_seed).permutation(n)


def _predictor_batch(X: DesignMatrix, t: ResponseVector, augmented: np.ndarray,
                     totals: np.ndarray, runs: range, seeds: Sequence[int], n_test: int,
                     static_value: float, train_fraction: float) -> list[ExperimentReport]:
    """Reports of a fit batch of predictor runs, in run order and, within a
    run, in the order baseline_mean, baseline_static, mra, brr."""
    step = max(1, PREDICTOR_CELLS // (n_test * augmented.shape[1]))
    passes = [slice(lo, min(lo + step, len(runs))) for lo in range(0, len(runs), step)]
    test_idx = np.empty((len(runs), n_test), dtype=np.intp)
    stats = np.empty((len(runs),) + totals.shape)
    means = np.empty(len(runs))
    # Splits, training means and downdated statistics, one gather pass at a time.
    for span in passes:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(span.start, span.stop):
                order = _permutation(seeds[runs[i]], X.n)
                test_idx[i] = order[:n_test]
                means[i] = baseline_mean(t.t[order[n_test:]])
            held_out = augmented[test_idx[span]]
            np.subtract(totals, np.matmul(held_out.transpose(0, 2, 1), held_out),
                        out=stats[span])
    mra, mra_ok, brr, brr_ok = fit_gram_batch(stats[:, :-1, :-1], stats[:, :-1, -1],
                                              stats[:, -1, -1], X.n - n_test)
    weights = np.stack([mra, brr])
    errors: dict[tuple[str, int], str] = {}
    for k, (name, trusted, fit) in enumerate(((MRA_MODEL, mra_ok, fit_mra),
                                              (BRR_MODEL, brr_ok, fit_bayesian_ridge))):
        for i in np.flatnonzero(~trusted).tolist():
            train_idx = _permutation(seeds[runs[i]], X.n)[n_test:]
            try:
                model = fit(DesignMatrix(X.rows[train_idx], X.column_names),
                            ResponseVector(t.t[train_idx]))
            except ValueError as exc:
                errors[name, runs[i]] = str(exc)
                weights[k, i] = 0.0
            else:
                weights[k, i] = model.weights

    # Regather each pass's held-out rows and score every model on them.
    reports: list[ExperimentReport] = []
    for span in passes:
        held_out = augmented[test_idx[span]]
        test_rows, actual = held_out[..., :-1], held_out[..., -1]
        residuals = np.empty((4,) + actual.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(means[span, None], actual, out=residuals[0])
            np.subtract(float(static_value), actual, out=residuals[1])
            predicted = residuals[2:]
            np.matmul(test_rows, weights[:, span, :, None], out=predicted[..., None])
            np.subtract(np.maximum(0.0, predicted, out=predicted), actual, out=predicted)
        reports += _reports(runs[span], PREDICTOR_MODELS, residuals, errors, seeds,
                            train_fraction)
    return reports


@dataclass(frozen=True)
class ModelAggregate:
    runs: int
    errors: int
    mean_rmse: float
    min_rmse: float
    max_rmse: float
    mean_mae: float
    min_mae: float
    max_mae: float


@dataclass(frozen=True)
class Summary:
    """Per-model aggregates plus pairwise win counts.

    ``wins[(a, b)]`` counts the runs where both models scored and model
    ``a``'s rmse was strictly below model ``b``'s; ``comparisons[(a, b)]``
    is the number of runs where both scored.
    """

    models: Mapping[str, ModelAggregate] = field(default_factory=dict)
    wins: Mapping[tuple[str, str], int] = field(default_factory=dict)
    comparisons: Mapping[tuple[str, str], int] = field(default_factory=dict)


def summarize(reports: Sequence[ExperimentReport]) -> Summary:
    """Aggregate scores by model name and count pairwise rmse wins."""
    if not reports:
        raise ValueError("no reports to summarize")
    names = sorted({r.model_name for r in reports})
    scored: dict[str, dict[int, ScorePair]] = {name: {} for name in names}
    errors = {name: 0 for name in names}
    for report in reports:
        if report.scores is None:
            errors[report.model_name] += 1
        else:
            scored[report.model_name][report.run_index] = report.scores
    models = {}
    for name in names:
        pairs = scored[name]
        if pairs:
            rmses = [p.rmse for p in pairs.values()]
            maes = [p.mae for p in pairs.values()]
            models[name] = ModelAggregate(
                runs=len(pairs), errors=errors[name],
                mean_rmse=float(np.mean(rmses)), min_rmse=min(rmses), max_rmse=max(rmses),
                mean_mae=float(np.mean(maes)), min_mae=min(maes), max_mae=max(maes),
            )
        else:
            nan = float("nan")
            models[name] = ModelAggregate(0, errors[name], nan, nan, nan, nan, nan, nan)
    wins: dict[tuple[str, str], int] = {}
    comparisons: dict[tuple[str, str], int] = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            shared = scored[a].keys() & scored[b].keys()
            comparisons[(a, b)] = len(shared)
            wins[(a, b)] = sum(1 for run in shared
                               if scored[a][run].rmse < scored[b][run].rmse)
    return Summary(models=models, wins=wins, comparisons=comparisons)


def reports_to_csv_text(reports: Sequence[ExperimentReport]) -> str:
    """Render scored reports in the fixed CSV format (LF, 17 significant digits)."""
    lines = ["run,model,rmse,mae,train_fraction,seed"]
    for r in reports:
        if r.scores is None:
            continue
        lines.append(f"{r.run_index},{r.model_name},{r.scores.rmse:.17g},"
                     f"{r.scores.mae:.17g},{r.train_fraction:.17g},{r.seed}")
    return "\n".join(lines) + "\n"


def write_reports_csv(reports: Sequence[ExperimentReport], path: str | Path) -> None:
    Path(path).write_text(reports_to_csv_text(reports), encoding="utf-8", newline="\n")
