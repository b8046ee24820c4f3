import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from proadapt import DesignMatrix, RegressionModel, ResponseVector, fit_mra
from proadapt.regression import CONDITION_LIMIT, fit_bayesian_ridge, predict


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


def half_sum_of_squares(X, t, weights):
    residuals = X.rows @ np.asarray(weights) - t.t
    return 0.5 * float(residuals @ residuals)


class TestErrorFunction:
    """A fit's ``training_error``: half the sum of its squared residuals."""

    def test_symmetric_residuals(self):
        # The mean 4 of 3 and 5 leaves residuals -1 and 1.
        model = fit_mra(design([[1.0], [1.0]]), ResponseVector([3.0, 5.0]))
        assert model.weights == pytest.approx((4.0,))
        assert model.training_error == pytest.approx(1.0)

    def test_exact_fit_is_zero(self):
        X = design([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        model = fit_mra(X, ResponseVector([1.0, 3.0, 5.0]))
        assert model.training_error == pytest.approx(0.0, abs=1e-24)

    def test_hand_arithmetic(self):
        # The line 5/6 + 1.5 x through (0, 1), (1, 2), (2, 4) leaves residuals
        # 1/6, -1/3 and 1/6: half their sum of squares is 1/12.
        X = design([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        t = ResponseVector([1.0, 2.0, 4.0])
        model = fit_mra(X, t)
        assert model.weights == pytest.approx((5.0 / 6.0, 1.5))
        assert model.training_error == pytest.approx(1.0 / 12.0)
        ridge = fit_bayesian_ridge(X, t)
        assert ridge.training_error == half_sum_of_squares(X, t, ridge.weights)


class TestFitMra:
    def test_exact_linear_data(self):
        X = design([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        model = fit_mra(X, ResponseVector([1.0, 3.0, 5.0]))
        np.testing.assert_allclose(model.weights, [1.0, 2.0], atol=1e-10)
        assert model.ridge_lambda == 0.0

    def test_rows_and_responses_must_agree(self):
        X = design([[1.0, 2.0], [1.0, 3.0]])
        for fit in (fit_mra, fit_bayesian_ridge):
            with pytest.raises(ValueError, match="^design matrix has 2 rows but 1 responses given$"):
                fit(X, ResponseVector([1.0]))

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

    @pytest.mark.parametrize("scale", [1e200, 1.7e308])
    def test_overflowing_fit_rejected(self, scale):
        # 1e200 overflows the training error's sum of squares; 1.7e308 also
        # overflows the weights. Either way the error names the overflow.
        x = np.arange(20.0)
        X = design(np.column_stack([np.ones(20), x, x**2]))
        t = ResponseVector(scale * (1.0 - 0.01 * (x % 3)))
        with pytest.raises(ValueError, match="least-squares fit overflows"):
            fit_mra(X, t)

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
        best = half_sum_of_squares(X, t, model.weights)
        assert best == pytest.approx(model.training_error)
        for _ in range(100):
            perturbed = np.array(model.weights) + rng.normal(0.0, 0.1, 3)
            assert half_sum_of_squares(X, t, perturbed) >= best

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

    def test_noiseless_data_converges_to_truth(self):
        X, truth, t = self.make_data()
        model = fit_bayesian_ridge(X, t)
        np.testing.assert_allclose(model.weights, truth, atol=1e-4)
