import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from forecast_oracle import split_train_test
from proadapt import (DesignMatrix, Reports, ResponseVector, TimeSeries, metrics, rmse,
                      run_forecast_experiments, run_predictor_experiments, summarize)
from proadapt.metrics import mae, reports_to_csv_text
from report_oracle import grid_rows

vectors = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40)


class TestScores:
    def test_identity_gives_zero(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_arithmetic(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
        assert mae([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5)

    def test_single_error_magnitude(self):
        assert rmse([2.0], [5.0]) == 3.0
        assert mae([2.0], [5.0]) == 3.0

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mae([], [])

    def test_nan_inputs_give_nan_scores_for_the_caller(self):
        # The docstrings leave a NaN score to the caller, as the harnesses'
        # scoring does; neither score raises or drops the NaN.
        assert math.isnan(rmse([math.nan], [1.0])) and math.isnan(mae([math.nan], [1.0]))
        assert math.isnan(rmse([1.0, 2.0], [1.0, math.nan]))
        assert math.isnan(mae([1.0, 2.0], [1.0, math.nan]))

    def test_overflow_and_infinite_inputs_give_scores_without_warnings(self):
        # Both used to raise NumPy's overflow or invalid-value RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rmse([1e200], [0.0]) == math.inf and mae([1e200], [0.0]) == 1e200
            assert rmse([1e308], [-1e308]) == mae([1e308], [-1e308]) == math.inf
            assert math.isnan(rmse([math.inf], [math.inf]))
            assert math.isnan(mae([math.inf], [math.inf]))

    @given(vectors, st.data())
    def test_rmse_dominates_mae(self, actual, data):
        predicted = data.draw(st.lists(st.floats(-1e6, 1e6),
                                       min_size=len(actual), max_size=len(actual)))
        assert rmse(predicted, actual) >= mae(predicted, actual) - 1e-9

    @given(vectors, st.data())
    def test_symmetry_and_shift_invariance(self, actual, data):
        predicted = data.draw(st.lists(st.floats(-1e3, 1e3),
                                       min_size=len(actual), max_size=len(actual)))
        clipped = [min(max(v, -1e3), 1e3) for v in actual]
        assert rmse(predicted, clipped) == pytest.approx(rmse(clipped, predicted))
        assert mae(predicted, clipped) == pytest.approx(mae(clipped, predicted))
        shifted_p = [v + 11.0 for v in predicted]
        shifted_a = [v + 11.0 for v in clipped]
        assert rmse(shifted_p, shifted_a) == pytest.approx(rmse(predicted, clipped),
                                                           abs=1e-9)

    def test_reports_reject_rmse_below_mae(self):
        with pytest.raises(ValueError, match="expected rmse >= mae >= 0"):
            grid({"m": [1.0]}, maes={"m": [2.0]})


class TestSplit:
    def test_canonical_90_10(self):
        series = TimeSeries(np.arange(100.0))
        train, test = split_train_test(series, 0.9, seed=5)
        assert len(test) == 10
        # train ends exactly where the test window begins
        np.testing.assert_array_equal(series.values[:len(train)], train.values)
        np.testing.assert_array_equal(
            series.values[len(train):len(train) + 10], test.values)

    def test_deterministic_per_seed(self):
        series = TimeSeries(np.arange(100.0))
        first = split_train_test(series, 0.9, seed=11)
        second = split_train_test(series, 0.9, seed=11)
        np.testing.assert_array_equal(first[0].values, second[0].values)
        np.testing.assert_array_equal(first[1].values, second[1].values)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            split_train_test(TimeSeries(np.arange(20.0)), 0.9, seed=1)

    def test_fraction_bounds(self):
        series = TimeSeries(np.arange(100.0))
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_train_test(series, fraction, seed=1)

    def test_tail_after_window_is_discarded(self):
        series = TimeSeries(np.arange(200.0))
        seen = set()
        for seed in range(25):
            train, test = split_train_test(series, 0.9, seed=seed)
            assert len(test) == 20
            seen.add(len(train))
            assert len(train) + len(test) <= 200
        assert len(seen) > 1  # the window position actually moves


class TestForecastExperiments:
    def test_drift_model_is_perfect_on_ramp(self):
        series = TimeSeries(np.arange(0.0, 100.0, 0.5))
        reports = run_forecast_experiments(series, 10, seed=3)
        arima = reports.rmse[:, reports.models.index("arima")]
        assert len(arima) == 10
        assert (arima < 1e-9).all()

    def test_same_master_seed_is_reproducible(self):
        rng = np.random.default_rng(31)
        series = TimeSeries(np.cumsum(rng.normal(size=300)) + 50.0)
        a = run_forecast_experiments(series, 8, seed=9)
        b = run_forecast_experiments(series, 8, seed=9)
        assert reports_to_csv_text(a) == reports_to_csv_text(b)

    def test_run_seeds_do_not_depend_on_batch_size(self):
        # splittable per-run seeds: a longer batch starts with the same runs
        rng = np.random.default_rng(34)
        series = TimeSeries(np.cumsum(rng.normal(size=300)) + 50.0)
        short = grid_rows(run_forecast_experiments(series, 3, seed=9))
        long = grid_rows(run_forecast_experiments(series, 8, seed=9))
        assert short == long[:len(short)]

    def test_ar_structure_beats_persistence(self):
        rng = np.random.default_rng(32)
        z = np.zeros(999)
        for i in range(1, 999):
            z[i] = 0.02 + 0.5 * z[i - 1] + rng.normal(0.0, 0.05)
        series = TimeSeries(np.concatenate(([0.0], np.cumsum(z))))
        summary = summarize(run_forecast_experiments(series, 20, seed=4))
        assert summary.models["arima"].mean_rmse < summary.models["persistence"].mean_rmse

    def test_failed_runs_are_isolated(self):
        # random walk with an explosive tail: late windows leave geometric
        # training data whose AR coefficient is non-stationary
        rng = np.random.default_rng(33)
        walk = np.cumsum(rng.normal(size=400)) + 100.0
        tail = walk[-1] * 1.6 ** np.arange(1, 101)
        series = TimeSeries(np.concatenate([walk, tail]))
        reports = run_forecast_experiments(series, 40, seed=6)
        arima = reports.rmse[:, reports.models.index("arima")]
        failed = [run for model, run in reports.errors if model == "arima"]
        scored = np.isfinite(arima)
        assert failed and scored.any()
        assert sorted(failed) == np.flatnonzero(~scored).tolist()
        assert not any(model == "persistence" for model, _ in reports.errors)


class TestPredictorExperiments:
    def make_linear(self, n=120, noise=0.0, seed=41):
        # large intercept keeps responses positive, so the nonnegative
        # prediction clamp never engages
        rng = np.random.default_rng(seed)
        X = DesignMatrix(np.column_stack([np.ones(n), rng.normal(size=(n, 2))]))
        truth = np.array([20.0, 1.0, -0.5])
        t = ResponseVector(X.rows @ truth + rng.normal(0.0, noise, n))
        return X, t

    def test_noiseless_linear_data_is_exact(self):
        X, t = self.make_linear()
        reports = run_predictor_experiments(X, {"t": (t, 2.0)}, 10, seed=2)
        mra = reports.rmse[:, reports.models.index("mra_t")]
        assert len(mra) == 10
        assert (mra < 1e-8).all()

    def test_reproducible(self):
        X, t = self.make_linear(noise=0.3)
        a = run_predictor_experiments(X, {"t": (t, 2.0)}, 6, seed=8)
        b = run_predictor_experiments(X, {"t": (t, 2.0)}, 6, seed=8)
        assert reports_to_csv_text(a) == reports_to_csv_text(b)

    def test_minimum_size_enforced(self):
        X, t = self.make_linear(n=30)
        with pytest.raises(ValueError):
            run_predictor_experiments(X, {"t": (t, 2.0)}, 5, seed=1)

    def test_all_four_models_reported(self):
        X, t = self.make_linear(noise=0.1)
        reports = run_predictor_experiments(X, {"t": (t, 2.0)}, 3, seed=5)
        assert reports.models == ("baseline_mean_t", "baseline_static_t", "mra_t", "brr_t")
        assert reports.rmse.shape == reports.mae.shape == (3, 4)

    @pytest.mark.parametrize("static_value, error", [
        (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
        (True, TypeError), ("2.5", TypeError), (None, TypeError)])
    def test_static_value_checked_before_any_work(self, monkeypatch, static_value, error):
        # A NaN or infinite value used to run every fit, then fail as a
        # "scores overflow" of run 0.
        monkeypatch.setattr(metrics, "subseeds", no_work)
        monkeypatch.setattr(metrics, "fit_gram_batch", no_work)
        X, t = self.make_linear(n=60, noise=0.1)
        with pytest.raises(error, match=f"^static_value must be .*, got {static_value!r}$"):
            run_predictor_experiments(X, {"t": (t, static_value)}, 3, seed=5)


    @pytest.mark.parametrize("responses, error, message", [
        (lambda t: {}, ValueError, "responses must map at least one name to (t, static_value)"),
        (lambda t: [("t", (t, 1.0))], ValueError,
         "responses must map at least one name to (t, static_value)"),
        (lambda t: {3: (t, 1.0)}, TypeError, "response names must be strings, got 3")])
    def test_responses_checked_before_any_work(self, monkeypatch, responses, error, message):
        monkeypatch.setattr(metrics, "subseeds", no_work)
        monkeypatch.setattr(metrics, "fit_gram_batch", no_work)
        X, t = self.make_linear(n=60, noise=0.1)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_predictor_experiments(X, responses(t), 3, seed=5)

    def test_a_short_response_is_named(self):
        X, t = self.make_linear(n=60, noise=0.1)
        short = ResponseVector(t.t[:-1])
        with pytest.raises(ValueError, match="^cost response: design matrix and responses "
                                             "disagree on length$"):
            run_predictor_experiments(X, {"latency": (t, 1.0), "cost": (short, 1.0)}, 3, 5)

    def test_each_response_has_its_columns_in_order(self):
        X, t = self.make_linear(noise=0.1)
        u = ResponseVector(2.0 * t.t)
        reports = run_predictor_experiments(X, {"b": (t, 1.0), "a": (u, 2.0)}, 3, seed=5)
        assert reports.models == tuple(f"{model}_{name}" for name in "ba" for model in
                                       ("baseline_mean", "baseline_static", "mra", "brr"))


def no_work(*args, **kwargs):
    raise AssertionError("the harness did work before checking its arguments")


@pytest.mark.parametrize("n_runs, error, message", [
    (True, TypeError, "n_runs must be an integer, got True"),
    (2.5, TypeError, "n_runs must be an integer, got 2.5"),
    (3.0, TypeError, "n_runs must be an integer, got 3.0"),
    ("3", TypeError, "n_runs must be an integer, got '3'"),
    (0, ValueError, "n_runs must be >= 1"),
    (-2, ValueError, "n_runs must be >= 1")])
def test_harnesses_check_n_runs_before_any_work(monkeypatch, n_runs, error, message):
    # n_runs=True used to run one run, and 2.5 failed inside range().
    monkeypatch.setattr(metrics, "subseeds", no_work)
    monkeypatch.setattr(metrics, "fit_arima_windows", no_work)
    monkeypatch.setattr(metrics, "fit_gram_batch", no_work)
    X = DesignMatrix(np.column_stack([np.ones(60), np.arange(60.0)]))
    t = ResponseVector(np.arange(60.0) + 1.0)
    with pytest.raises(error, match=f"^{message}$"):
        run_forecast_experiments(TimeSeries(np.arange(100.0)), n_runs, seed=1)
    with pytest.raises(error, match=f"^{message}$"):
        run_predictor_experiments(X, {"t": (t, 1.0)}, n_runs, seed=1)


@pytest.mark.parametrize("seed, error, message", [
    (True, TypeError, "seed must be an integer, got True"),
    (None, TypeError, "seed must be an integer, got None"),
    (2.5, TypeError, "seed must be an integer, got 2.5"),
    ("3", TypeError, "seed must be an integer, got '3'"),
    (-1, ValueError, "seed must be >= 0")])
def test_harnesses_check_seed_before_any_work(monkeypatch, seed, error, message):
    # seed=True used to run as seed 1, None failed inside len() and -1
    # inside NumPy, neither naming the argument.
    monkeypatch.setattr(metrics, "subseeds", no_work)
    monkeypatch.setattr(metrics, "fit_arima_windows", no_work)
    monkeypatch.setattr(metrics, "fit_gram_batch", no_work)
    X = DesignMatrix(np.column_stack([np.ones(60), np.arange(60.0)]))
    t = ResponseVector(np.arange(60.0) + 1.0)
    with pytest.raises(error, match=f"^{message}$"):
        run_forecast_experiments(TimeSeries(np.arange(100.0)), 2, seed=seed)
    with pytest.raises(error, match=f"^{message}$"):
        run_predictor_experiments(X, {"t": (t, 1.0)}, 2, seed=seed)


def test_harnesses_accept_numpy_integer_runs():
    reports = run_forecast_experiments(TimeSeries(np.arange(100.0)), np.int64(2), seed=1)
    assert reports.rmse.shape == (2, 2)


def test_harnesses_accept_numpy_integer_seeds():
    series = TimeSeries(np.arange(100.0))
    assert grid_rows(run_forecast_experiments(series, 2, seed=np.uint32(7))) == \
        grid_rows(run_forecast_experiments(series, 2, seed=7))


def grid(rmses: dict[str, list], maes: dict[str, list] | None = None) -> Reports:
    """The grid of the models of ``rmses``, each a list of per-run rmse
    (None: the run errored with "boom"); mae is rmse unless ``maes`` is given."""
    models = tuple(rmses)
    n_runs = len(rmses[models[0]])

    def cells(scores):
        return np.array([[math.nan if scores[m][run] is None else scores[m][run]
                          for m in models] for run in range(n_runs)])

    errors = {(m, run): "boom" for m in models for run in range(n_runs)
              if rmses[m][run] is None}
    return Reports(models, range(n_runs), cells(rmses), cells(maes or rmses), errors)


class TestSummarize:
    def test_single_model_aggregates(self):
        summary = summarize(grid({"m": [0.1, 0.3]}))
        agg = summary.models["m"]
        assert (agg.mean_rmse, agg.min_rmse, agg.max_rmse) == pytest.approx((0.2, 0.1, 0.3))

    def test_identical_scores_have_no_wins(self):
        summary = summarize(grid({"a": [0.2], "b": [0.2]}))
        assert summary.wins[("a", "b")] == 0
        assert summary.wins[("b", "a")] == 0

    def test_win_counting(self):
        summary = summarize(grid({"a": [0.1, 0.2, 0.5], "b": [0.2, 0.3, 0.4]}))
        assert summary.wins[("a", "b")] == 2
        assert summary.wins[("b", "a")] == 1
        assert summary.comparisons[("a", "b")] == 3

    def test_empty_rejected(self):
        empty = np.empty((0, 0))
        with pytest.raises(ValueError, match="no reports to summarize"):
            summarize(Reports((), (), empty, empty, {}))

    def test_errored_runs_counted_separately(self):
        summary = summarize(grid({"a": [0.1, None]}))
        assert summary.models["a"].runs == 1
        assert summary.models["a"].errors == 1

    def test_a_model_with_every_run_errored_has_no_aggregates(self):
        summary = summarize(grid({"a": [0.1, 0.2], "b": [None, None]}))
        agg = summary.models["b"]
        assert (agg.runs, agg.errors) == (0, 2)
        assert all(math.isnan(value) for value in
                   (agg.mean_rmse, agg.min_rmse, agg.max_rmse,
                    agg.mean_mae, agg.min_mae, agg.max_mae))
        assert summary.comparisons[("a", "b")] == summary.comparisons[("b", "a")] == 0
        assert summary.wins[("a", "b")] == summary.wins[("b", "a")] == 0

    def test_wins_count_only_runs_both_models_scored(self):
        # Runs 1 and 2 have one score each; only runs 0 and 3 compare.
        summary = summarize(grid({"a": [0.1, None, 0.5, 0.2], "b": [0.2, 0.1, None, 0.3]}))
        assert summary.comparisons[("a", "b")] == summary.comparisons[("b", "a")] == 2
        assert summary.wins[("a", "b")] == 2
        assert summary.wins[("b", "a")] == 0
        assert (summary.models["a"].runs, summary.models["b"].runs) == (3, 3)


class TestCsv:
    def test_format_and_precision(self):
        text = reports_to_csv_text(grid({"m": [1.0 / 3.0]}, maes={"m": [0.25]}))
        lines = text.splitlines()
        assert lines[0] == "run,model,rmse,mae,train_fraction,seed"
        fields = lines[1].split(",")
        assert fields[:2] == ["0", "m"]
        assert float(fields[2]) == 1.0 / 3.0  # 17 significant digits round-trip
        assert "\r" not in text and text.endswith("\n")

    def test_errored_rows_omitted(self):
        assert len(reports_to_csv_text(grid({"m": [0.5, None]})).splitlines()) == 2

    def test_grids_follow_one_header_in_turn(self):
        first, second = grid({"a": [0.5, 0.25]}), grid({"b": [0.125]})
        assert reports_to_csv_text(first, second).splitlines() == [
            "run,model,rmse,mae,train_fraction,seed",
            "0,a,0.5,0.5,0.90000000000000002,0", "1,a,0.25,0.25,0.90000000000000002,1",
            "0,b,0.125,0.125,0.90000000000000002,0"]
