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
``numpy.random.SeedSequence``, so runs are reorder-independent and the
whole harness is byte-deterministic. A failed run is recorded on its
report instead of aborting the batch.

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

from .arima import ArimaOrder, fit_arima, forecast
from .regression import DesignMatrix, ResponseVector, baseline_mean, fit_bayesian_ridge, fit_mra
from .types import TimeSeries

__all__ = [
    "ScorePair",
    "ExperimentReport",
    "ModelAggregate",
    "Summary",
    "rmse",
    "mae",
    "split_train_test",
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
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if (self.scores is None) == (self.error is None):
            raise ValueError("exactly one of scores and error must be set")


def _score(predicted: Sequence[float], actual: Sequence[float]) -> ScorePair:
    return ScorePair(rmse=rmse(predicted, actual), mae=mae(predicted, actual))


def _run_seeds(master_seed: int, n_runs: int) -> list[int]:
    # Splittable counter scheme: each run keys its own SeedSequence, so the
    # draw for run i never depends on how many runs precede it.
    return [int(np.random.SeedSequence([master_seed, i]).generate_state(1)[0])
            for i in range(n_runs)]


def split_train_test(series: TimeSeries, train_fraction: float,
                     seed: int) -> tuple[TimeSeries, TimeSeries]:
    """Cut a contiguous test window at a seeded uniform-random position.

    The window length is round((1 - train_fraction) * n); training data is
    everything before the window and points after it are discarded, so no
    future observation leaks into the fit.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = len(series)
    test_len = int(round((1.0 - train_fraction) * n))
    if test_len < MIN_TEST_POINTS:
        raise ValueError(f"test window of {test_len} points is below the "
                         f"{MIN_TEST_POINTS}-point floor")
    last_start = n - test_len
    if last_start < MIN_TRAIN_POINTS:
        raise ValueError(f"series too short to leave {MIN_TRAIN_POINTS} training points")
    rng = np.random.default_rng(seed)
    start = int(rng.integers(MIN_TRAIN_POINTS, last_start + 1))
    return series.window(0, start), series.window(start, start + test_len)


def run_forecast_experiments(series: TimeSeries, n_runs: int, seed: int,
                             train_fraction: float = 0.9) -> list[ExperimentReport]:
    """Seeded forecast comparison: ARIMA(1,1,0) vs the persistence reference.

    Each run splits the series, fits on the training part, forecasts the
    whole test horizon, and scores both forecasters against the held-out
    window. Failures are recorded per run and model.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    order = ArimaOrder(1, 1, 0)
    reports: list[ExperimentReport] = []
    for run, run_seed in enumerate(_run_seeds(seed, n_runs)):
        try:
            train, test = split_train_test(series, train_fraction, run_seed)
        except ValueError as exc:
            for model in (FORECAST_MODEL, PERSISTENCE_MODEL):
                reports.append(ExperimentReport(run, model, None, train_fraction,
                                                run_seed, error=str(exc)))
            continue
        actual = test.values
        persistence = np.full(len(test), train.values[-1])
        reports.append(ExperimentReport(run, PERSISTENCE_MODEL,
                                        _score(persistence, actual),
                                        train_fraction, run_seed))
        try:
            model = fit_arima(train, order)
            predicted = forecast(model, len(test))
        except ValueError as exc:
            reports.append(ExperimentReport(run, FORECAST_MODEL, None,
                                            train_fraction, run_seed, error=str(exc)))
        else:
            reports.append(ExperimentReport(run, FORECAST_MODEL,
                                            _score(predicted, actual),
                                            train_fraction, run_seed))
    return reports


def run_predictor_experiments(X: DesignMatrix, t: ResponseVector, n_runs: int,
                              seed: int, static_value: float,
                              train_fraction: float = 0.9,
                              brr_iters: int = 10) -> list[ExperimentReport]:
    """Seeded predictor comparison on random 90/10 row splits.

    Scores the least-squares fit, the Bayesian ridge, the running mean of
    the training responses, and the caller's design-time ``static_value``
    on each held-out row set.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if X.n < 40:
        raise ValueError(f"need at least 40 observations, got {X.n}")
    if X.n != len(t):
        raise ValueError("design matrix and responses disagree on length")
    reports: list[ExperimentReport] = []
    for run, run_seed in enumerate(_run_seeds(seed, n_runs)):
        rng = np.random.default_rng(run_seed)
        n_test = max(1, int(round((1.0 - train_fraction) * X.n)))
        order = rng.permutation(X.n)
        test_idx, train_idx = order[:n_test], order[n_test:]
        train_X = DesignMatrix(X.rows[train_idx], X.column_names)
        train_t = ResponseVector(t.t[train_idx])
        test_rows = X.rows[test_idx]
        actual = t.t[test_idx]

        constants = {
            MEAN_BASELINE: baseline_mean(train_t.t),
            STATIC_BASELINE: float(static_value),
        }
        for name, value in constants.items():
            reports.append(ExperimentReport(run, name,
                                            _score(np.full(n_test, value), actual),
                                            train_fraction, run_seed))
        fits = {
            MRA_MODEL: lambda: fit_mra(train_X, train_t),
            BRR_MODEL: lambda: fit_bayesian_ridge(train_X, train_t, iters=brr_iters),
        }
        for name, fit in fits.items():
            try:
                weights = np.asarray(fit().weights)
            except ValueError as exc:
                reports.append(ExperimentReport(run, name, None, train_fraction,
                                                run_seed, error=str(exc)))
                continue
            predicted = np.maximum(0.0, test_rows @ weights)
            reports.append(ExperimentReport(run, name, _score(predicted, actual),
                                            train_fraction, run_seed))
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

    def win_rate(self, a: str, b: str) -> float:
        total = self.comparisons.get((a, b), 0)
        return self.wins.get((a, b), 0) / total if total else 0.0


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
