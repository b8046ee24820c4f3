"""Numerical cores checked against scipy, which is a test-only oracle: the
module is skipped where scipy is not installed."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from proadapt import DesignMatrix, ResponseVector, TimeSeries, acf, fit_arima, pacf
from proadapt.arima import FitError
from proadapt.regression import fit_bayesian_ridge

linalg = pytest.importorskip("scipy.linalg")
optimize = pytest.importorskip("scipy.optimize")


@given(st.lists(st.floats(-100, 100), min_size=10, max_size=80), st.integers(1, 8))
def test_pacf_is_the_last_yule_walker_coefficient(values, max_lag):
    # pacf's value at lag k is the last coefficient of the order-k
    # Yule-Walker system R_k phi = (r_1..r_k), R_k the Toeplitz matrix of
    # (1, r_1..r_{k-1}), here solved by scipy's Levinson solver.
    x = np.array(values)
    assume(np.ptp(x) > 1e-6 * max(1.0, float(np.abs(x).max())))
    series = TimeSeries(x)
    r = np.array(acf(series, max_lag))
    rho = np.concatenate([[1.0], r])
    # Non-degenerate: R_k well conditioned, so both solutions are accurate.
    assume(np.linalg.cond(linalg.toeplitz(rho[:max_lag])) < 1e4)
    want = [linalg.solve_toeplitz(rho[:k], r[:k])[-1] for k in range(1, max_lag + 1)]
    np.testing.assert_allclose(pacf(series, max_lag), want, rtol=1e-9, atol=1e-12)


@st.composite
def designs(draw):
    """An intercept column and up to four drawn columns, more rows than
    columns, and drawn responses."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m + 1, 40))
    cells = draw(st.lists(st.floats(-10, 10), min_size=n * (m - 1), max_size=n * (m - 1)))
    t = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    rows = np.column_stack([np.ones(n), np.reshape(cells, (n, m - 1))])
    return DesignMatrix(rows), ResponseVector(np.array(t))


@given(designs())
def test_bayesian_ridge_weights_solve_the_ridge_system(design):
    # The posterior mean m = (alpha I + beta X'X)^{-1} beta X't (Bishop, PRML
    # 3.5) solves (X'X + lambda I) m = X't at lambda = alpha / beta, the
    # returned ridge_lambda.
    X, t = design
    model = fit_bayesian_ridge(X, t)
    system = X.rows.T @ X.rows + model.ridge_lambda * np.eye(X.m)
    assume(np.linalg.cond(system) < 1e8)
    want = linalg.solve(system, X.rows.T @ t.t, assume_a="pos")
    assert (np.linalg.norm(np.array(model.weights) - want)
            <= 1e-7 * np.linalg.norm(want))


@given(st.integers(0, 2**32 - 1), st.integers(20, 200), st.floats(-0.9, 0.9),
       st.floats(-2.0, 2.0), st.floats(0.1, 5.0), st.floats(-1e3, 1e3))
def test_fit_arima_minimises_the_conditional_sum_of_squares(seed, n, phi, c, sd, level):
    # The differenced series z follows z_t = c + phi z_{t-1} + e_t; the
    # conditional least-squares fit minimises sum_t e_t^2 given z_0, here by
    # scipy's Levenberg-Marquardt with the exact Jacobian.
    rng = np.random.default_rng(seed)
    steps = np.empty(n)
    steps[0] = c / (1.0 - phi) + rng.normal(0.0, sd)
    for i in range(1, n):
        steps[i] = c + phi * steps[i - 1] + rng.normal(0.0, sd)
    series = TimeSeries(level + np.concatenate([[0.0], np.cumsum(steps)]))
    z = np.diff(series.values)
    lagged = np.column_stack([np.ones(n - 1), z[:-1]])
    # Well conditioned: the lag design's columns are far from collinear.
    assume(np.linalg.cond(lagged) < 1e3)
    try:
        model = fit_arima(series)
    except FitError:
        assume(False)
    fit = optimize.least_squares(lambda w: z[1:] - lagged @ w, x0=[0.0, 0.0],
                                 jac=lambda w: -lagged, method="lm",
                                 xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert fit.success
    np.testing.assert_allclose([model.c, model.phi], fit.x, rtol=1e-8,
                               atol=1e-10 * (1.0 + np.abs(fit.x).max()))
