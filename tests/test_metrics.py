import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from forecast_oracle import split_train_test
from proadapt import (DesignMatrix, ExperimentReport, ResponseVector, TimeSeries, metrics,
                      rmse, run_forecast_experiments, run_predictor_experiments, summarize)
from proadapt.metrics import ScorePair, mae, reports_to_csv_text

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

    def test_score_pair_rejects_rmse_below_mae(self):
        with pytest.raises(ValueError):
            ScorePair(rmse=1.0, mae=2.0)


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
        arima = [r for r in reports if r.model_name == "arima"]
        assert len(arima) == 10
        assert all(r.scores.rmse < 1e-9 for r in arima)

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
        short = run_forecast_experiments(series, 3, seed=9)
        long = run_forecast_experiments(series, 8, seed=9)
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
        arima = [r for r in reports if r.model_name == "arima"]
        failed = [r for r in arima if r.error is not None]
        scored = [r for r in arima if r.scores is not None]
        assert failed and scored
        assert len(failed) + len(scored) == 40
        assert all(math.isfinite(r.scores.rmse) for r in scored)


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
        reports = run_predictor_experiments(X, t, 10, seed=2, static_value=2.0)
        mra = [r for r in reports if r.model_name == "mra"]
        assert len(mra) == 10
        assert all(r.scores.rmse < 1e-8 for r in mra)

    def test_reproducible(self):
        X, t = self.make_linear(noise=0.3)
        a = run_predictor_experiments(X, t, 6, seed=8, static_value=2.0)
        b = run_predictor_experiments(X, t, 6, seed=8, static_value=2.0)
        assert reports_to_csv_text(a) == reports_to_csv_text(b)

    def test_minimum_size_enforced(self):
        X, t = self.make_linear(n=30)
        with pytest.raises(ValueError):
            run_predictor_experiments(X, t, 5, seed=1, static_value=2.0)

    def test_all_four_models_reported(self):
        X, t = self.make_linear(noise=0.1)
        reports = run_predictor_experiments(X, t, 3, seed=5, static_value=2.0)
        names = {r.model_name for r in reports}
        assert names == {"mra", "brr", "baseline_mean", "baseline_static"}

    @pytest.mark.parametrize("fraction", [0.0, -0.2, math.nan, 1.0, 1.5])
    def test_train_fraction_checked_before_any_fit(self, monkeypatch, fraction):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_gram_batch ran before train_fraction was checked")

        monkeypatch.setattr(metrics, "fit_gram_batch", no_fit)
        X, t = self.make_linear(n=60, noise=0.1)
        with pytest.raises(ValueError, match=r"^train_fraction must lie in \(0, 1\)$"):
            run_predictor_experiments(X, t, 3, seed=5, static_value=2.0,
                                      train_fraction=fraction)


def report(run, model, rmse_value, mae_value=None):
    mae_value = rmse_value if mae_value is None else mae_value
    return ExperimentReport(run, model, ScorePair(rmse_value, mae_value), 0.9, seed=0)


class TestSummarize:
    def test_single_model_aggregates(self):
        summary = summarize([report(0, "m", 0.1), report(1, "m", 0.3)])
        agg = summary.models["m"]
        assert (agg.mean_rmse, agg.min_rmse, agg.max_rmse) == pytest.approx((0.2, 0.1, 0.3))

    def test_identical_scores_have_no_wins(self):
        reports = [report(0, "a", 0.2), report(0, "b", 0.2)]
        summary = summarize(reports)
        assert summary.wins[("a", "b")] == 0
        assert summary.wins[("b", "a")] == 0

    def test_win_counting(self):
        reports = []
        for run, (a, b) in enumerate([(0.1, 0.2), (0.2, 0.3), (0.5, 0.4)]):
            reports += [report(run, "a", a), report(run, "b", b)]
        summary = summarize(reports)
        assert summary.wins[("a", "b")] == 2
        assert summary.wins[("b", "a")] == 1
        assert summary.comparisons[("a", "b")] == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_errored_runs_counted_separately(self):
        reports = [report(0, "a", 0.1),
                   ExperimentReport(1, "a", None, 0.9, seed=0, error="boom")]
        summary = summarize(reports)
        assert summary.models["a"].runs == 1
        assert summary.models["a"].errors == 1


class TestCsv:
    def test_format_and_precision(self):
        reports = [report(0, "m", 1.0 / 3.0, 0.25)]
        text = reports_to_csv_text(reports)
        lines = text.splitlines()
        assert lines[0] == "run,model,rmse,mae,train_fraction,seed"
        fields = lines[1].split(",")
        assert fields[:2] == ["0", "m"]
        assert float(fields[2]) == 1.0 / 3.0  # 17 significant digits round-trip
        assert "\r" not in text and text.endswith("\n")

    def test_errored_rows_omitted(self):
        reports = [report(0, "m", 0.5),
                   ExperimentReport(1, "m", None, 0.9, seed=0, error="boom")]
        assert len(reports_to_csv_text(reports).splitlines()) == 2
