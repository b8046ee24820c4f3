import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from proadapt import (DesignMatrix, RegressionModel, ResponseVector, baseline_mean,
                      error_function, fit_bayesian_ridge, fit_mra, predict)
from proadapt.regression import CONDITION_LIMIT


def design(rows, names=()):
    return DesignMatrix(np.array(rows, dtype=float), tuple(names))


class TestDesignMatrix:
    def test_requires_intercept_column(self):
        with pytest.raises(ValueError):
            design([[0.0, 1.0], [1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            design([[1.0, float("nan")]])

    def test_column_names_default_and_mismatch(self):
        X = design([[1.0, 2.0]])
        assert X.column_names == ("x0", "x1")
        with pytest.raises(ValueError):
            design([[1.0, 2.0]], names=("only",))


class TestErrorFunction:
    def test_symmetric_residuals(self):
        X = design([[1.0], [1.0]])
        assert error_function(X, ResponseVector([3.0, 5.0]), [4.0]) == pytest.approx(1.0)

    def test_exact_fit_is_zero(self):
        X = design([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        t = ResponseVector([1.0, 3.0, 5.0])
        assert error_function(X, t, [1.0, 2.0]) == 0.0

    def test_hand_arithmetic(self):
        X = design([[1.0, 2.0], [1.0, 3.0]])
        assert error_function(X, ResponseVector([5.0, 7.0]), [1.0, 2.0]) == 0.0

    def test_dimension_mismatch(self):
        X = design([[1.0, 2.0]])
        with pytest.raises(ValueError):
            error_function(X, ResponseVector([1.0]), [1.0])
        with pytest.raises(ValueError):
            error_function(X, ResponseVector([1.0, 2.0]), [1.0, 2.0])


class TestFitMra:
    def test_exact_linear_data(self):
        X = design([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        model = fit_mra(X, ResponseVector([1.0, 3.0, 5.0]))
        np.testing.assert_allclose(model.weights, [1.0, 2.0], atol=1e-10)
        assert model.ridge_lambda == 0.0

    def test_collinear_design_takes_ridge_fallback(self):
        X = design([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        model = fit_mra(X, ResponseVector([1.0, 2.0, 3.0]))
        assert model.ridge_lambda > 0.0
        assert all(np.isfinite(model.weights))

    def test_recovers_planted_weights(self):
        rng = np.random.default_rng(21)
        X = design(np.column_stack([np.ones(200), rng.normal(size=(200, 3))]))
        truth = np.array([0.5, -1.0, 2.0, 3.0])
        t = ResponseVector(X.rows @ truth + rng.normal(0.0, 0.01, 200))
        model = fit_mra(X, t)
        np.testing.assert_allclose(model.weights, truth, atol=0.01)

    def test_underdetermined_rejected(self):
        X = design([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            fit_mra(X, ResponseVector([1.0]))

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n, m = int(rng.integers(5, 40)), int(rng.integers(1, 5))
            X = design(np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
                       if m > 1 else np.ones((n, 1)))
            t = ResponseVector(rng.normal(size=n))
            model = fit_mra(X, t)
            if model.ridge_lambda:
                continue
            w = np.array(model.weights)
            lhs = X.rows.T @ X.rows @ w
            rhs = X.rows.T @ t.t
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * (1.0 + np.max(np.abs(rhs)))

    def test_solution_is_optimal_against_perturbations(self):
        rng = np.random.default_rng(23)
        X = design(np.column_stack([np.ones(50), rng.normal(size=(50, 2))]))
        t = ResponseVector(rng.normal(size=50))
        model = fit_mra(X, t)
        best = error_function(X, t, model.weights)
        assert best == pytest.approx(model.training_error)
        for _ in range(100):
            perturbed = np.array(model.weights) + rng.normal(0.0, 0.1, 3)
            assert error_function(X, t, perturbed) >= best

    @given(st.integers(8, 60), st.integers(2, 5), st.floats(-8.0, -4.0),
           st.integers(0, 2**32 - 1))
    def test_ridge_decision_matches_gram_condition_oracle(self, n, m, exponent, seed):
        # The last column is a combination of the others plus noise of
        # scale 10**exponent, which spreads cond(X'X) over about 1e8-1e16.
        rng = np.random.default_rng(seed)
        rows = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
        noise = 10.0**exponent * rng.normal(size=n)
        rows[:, -1] = rows[:, :-1] @ rng.normal(size=m - 1) + noise
        X, t = design(rows), ResponseVector(rng.normal(size=n))
        cond = float(np.linalg.cond(X.rows.T @ X.rows))
        assume(abs(cond / CONDITION_LIMIT - 1.0) > 1e-6)
        model = fit_mra(X, t)
        assert (model.ridge_lambda > 0) == (cond > CONDITION_LIMIT)
        if model.ridge_lambda == 0:
            expected, *_ = np.linalg.lstsq(X.rows, t.t, rcond=None)
            assert model.weights == tuple(expected.tolist())


class TestPredict:
    def test_dot_product(self):
        model = RegressionModel(weights=(1.0, 2.0))
        assert predict(model, [1.0, 3.0]).value == pytest.approx(7.0)

    def test_zero_weights(self):
        model = RegressionModel(weights=(0.0, 0.0, 0.0))
        assert predict(model, [1.0, 5.0, -2.0]).value == 0.0

    def test_negative_prediction_clamped_with_raw_kept(self):
        model = RegressionModel(weights=(-5.0, 1.0))
        result = predict(model, [1.0, 2.0])
        assert result.value == 0.0
        assert result.raw == pytest.approx(-3.0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            predict(RegressionModel(weights=(1.0, 2.0)), [1.0])

    def test_raw_prediction_is_linear(self):
        rng = np.random.default_rng(24)
        model = RegressionModel(weights=tuple(rng.normal(size=4)))
        x1, x2 = rng.normal(size=4), rng.normal(size=4)
        x1[0] = x2[0] = 1.0
        for a in (0.0, 0.25, 0.7, 1.0):
            blend = a * x1 + (1 - a) * x2
            expected = a * predict(model, x1).raw + (1 - a) * predict(model, x2).raw
            assert predict(model, blend).raw == pytest.approx(expected, rel=1e-12)


class TestBayesianRidge:
    def make_data(self, seed=25, n=60):
        rng = np.random.default_rng(seed)
        X = design(np.column_stack([np.ones(n), rng.normal(size=(n, 2))]))
        truth = np.array([1.5, -2.0, 0.7])
        return X, truth, ResponseVector(X.rows @ truth)

    def test_vanishing_prior_matches_least_squares(self):
        rng = np.random.default_rng(26)
        X = design(np.column_stack([np.ones(80), rng.normal(size=(80, 3))]))
        t = ResponseVector(rng.normal(size=80))
        ridge = fit_bayesian_ridge(X, t, alpha0=1e-12, beta0=1.0, iters=0)
        mra = fit_mra(X, t)
        np.testing.assert_allclose(ridge.weights, mra.weights, atol=1e-6)

    def test_dominant_prior_shrinks_to_zero(self):
        X, _, t = self.make_data()
        model = fit_bayesian_ridge(X, t, alpha0=1e12, beta0=1.0, iters=0)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-6)

    def test_noiseless_data_converges_to_truth(self):
        X, truth, t = self.make_data()
        model = fit_bayesian_ridge(X, t, iters=5)
        np.testing.assert_allclose(model.weights, truth, atol=1e-4)

    def test_invalid_hyperparameters(self):
        X, _, t = self.make_data()
        with pytest.raises(ValueError):
            fit_bayesian_ridge(X, t, alpha0=0.0)
        with pytest.raises(ValueError):
            fit_bayesian_ridge(X, t, beta0=-1.0)


class TestBaselines:
    def test_mean(self):
        assert baseline_mean([3.0, 5.0]) == 4.0
        assert baseline_mean([7.0]) == 7.0
        assert baseline_mean([2.0, 4.0, 6.0, 8.0]) == 5.0

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            baseline_mean([])
