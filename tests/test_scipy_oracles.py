"""Numerical cores checked against scipy, which is a test-only oracle: the
module is skipped where scipy is not installed."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from proadapt import TimeSeries, acf, pacf

linalg = pytest.importorskip("scipy.linalg")


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
