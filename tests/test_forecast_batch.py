"""``run_forecast_experiments`` in array passes against the per-run harness.

The library forecasts and scores passes of runs at once;
``forecast_oracle.reference_forecast_experiments`` splits, fits, forecasts
with the scalar ``arima_oracle.forecast`` and scores each run on its own. The library's
grid, flattened into rows, must equal the reference rows, and the text of
any error either raises must be equal too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import forecast_oracle
from forecast_oracle import reference_forecast_experiments
from proadapt import metrics
from proadapt.arima import ArimaModel, FitError
from proadapt.metrics import FORECAST_MODEL, run_forecast_experiments
from proadapt.types import TimeSeries
from report_oracle import grid_rows

TOP = 1.7976931348623157e308  # the largest float


@st.composite
def forecast_series(draw):
    """AR(1) walks, exact ramps (a rank-deficient lag design), exact +-1
    alternations (a non-stationary fit), climbs up to the largest float
    (overflowing fits and scores), and series too short for the test and
    training floors. Lengths up to 480 make test windows of up to 48 points,
    so up to 40 runs straddle the drawn ``PASS_CELLS``."""
    kind = draw(st.sampled_from(["walk", "ramp", "alternating", "constant", "huge",
                                 "short"]))
    n = draw(st.integers(1, 94)) if kind == "short" else draw(st.integers(95, 480))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i = np.arange(n)
    level = draw(st.floats(-1e3, 1e3))
    if kind == "walk":
        phi = draw(st.floats(-0.95, 0.95))
        z = rng.normal(draw(st.floats(-1.0, 1.0)), 1.0, n)
        for k in range(1, n):
            z[k] += phi * z[k - 1]
        values = level + draw(st.sampled_from([1e-3, 1.0, 1e3])) * np.cumsum(z)
    elif kind == "ramp":
        values = level + draw(st.floats(-5.0, 5.0)) * i
    elif kind == "alternating":
        values = level + i % 2
    elif kind == "constant":
        values = np.full(n, level)
    elif kind == "huge":
        # A climb of uneven steps, whose squares overflow from 1e160 on, up to
        # a plateau from a drawn peak on; 1e306 steps climb to just below the
        # largest float.
        step = 10.0 ** draw(st.sampled_from([100, 160, 250, 306]))
        climb = np.where(i < draw(st.sampled_from([12, 14, min(n // 2, 100)])),
                         step * rng.uniform(0.5, 1.5, n), 0.0)
        values = min(TOP - 2 * step, 1e3 * step) - (climb.sum() - np.cumsum(climb))
    else:
        values = rng.normal(size=n)
    return TimeSeries(values)


def outcome(harness, *args):
    """The reports of ``harness(*args)`` as rows, or the text of its ValueError."""
    try:
        reports = harness(*args)
    except ValueError as exc:
        return f"raised: {exc}"
    return reports if isinstance(reports, list) else grid_rows(reports)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(forecast_series(), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 7, 60, 500, metrics.PASS_CELLS]))
def test_passes_match_the_per_run_harness(series, n_runs, seed, cells):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "PASS_CELLS", cells)
        got = outcome(run_forecast_experiments, series, n_runs, seed)
    want = outcome(reference_forecast_experiments, series, n_runs, seed)
    assert got == want


def test_cases_reach_every_outcome():
    """The drawn cases fit, fail to fit, overflow their scores and miss the
    split floors, so the property checks each path. (A fit that succeeds
    cannot forecast past the largest float: its squared residuals would
    overflow first. ``test_nonfinite_steps_match`` covers that path.)"""
    seen = set()

    @settings(max_examples=200, database=None)
    @given(forecast_series(), st.integers(1, 40))
    def collect(series, n_runs):
        result = outcome(reference_forecast_experiments, series, n_runs, 3)
        if isinstance(result, str):
            seen.add("overflow" if "scores overflow" in result else result)
            return
        for report in result:
            if report.error is None:
                seen.add(f"scored {report.model}")
            elif "not stationary" in report.error:
                seen.add("not stationary")
            elif "point floor" in report.error or "too short" in report.error:
                seen.add("split floor")
            elif "fit overflows" in report.error:
                seen.add("fit overflows")

    collect()
    assert {"scored arima", "scored persistence", "not stationary", "fit overflows",
            "split floor", "overflow"} <= seen


def test_passes_split_the_runs(monkeypatch):
    rng = np.random.default_rng(8)
    series = TimeSeries(np.cumsum(rng.normal(size=200)) + 50.0)  # test windows of 20
    passes = []
    forecast_pass = metrics._forecast_pass

    def spy(series, starts, runs, *args):
        passes.append(runs)
        return forecast_pass(series, starts, runs, *args)

    whole = grid_rows(run_forecast_experiments(series, 13, seed=4))
    monkeypatch.setattr(metrics, "_forecast_pass", spy)
    monkeypatch.setattr(metrics, "PASS_CELLS", 50)
    assert grid_rows(run_forecast_experiments(series, 13, seed=4)) == whole
    assert passes == [range(lo, min(lo + 2, 13)) for lo in range(0, 13, 2)]


def test_long_test_windows_pass_one_run_at_a_time(monkeypatch):
    rng = np.random.default_rng(9)
    series = TimeSeries(np.cumsum(rng.normal(size=3000)) + 50.0)  # windows of 300
    monkeypatch.setattr(metrics, "PASS_CELLS", 100)
    got = grid_rows(run_forecast_experiments(series, 4, seed=2))
    assert got == reference_forecast_experiments(series, 4, seed=2)
    assert all(r.error is None for r in got if r.model == FORECAST_MODEL)


def test_nonfinite_steps_match(monkeypatch):
    # A model whose drift carries the forecast past the largest float within
    # a few steps of a 20-point test window; persistence still scores.
    trained = []  # the oracle's training lengths, one per run

    def steep_fit(train):
        trained.append(len(train))
        if len(train) % 3 == 0:
            raise FitError("drawn to fail")
        return ArimaModel(phi=0.5, c=3e307 * (1 + len(train) % 3),
                          last_observations=train.tail(2), residual_variance=1.0)

    calls = []

    def steep_windows(series, window, starts):
        calls.append((list(window), list(starts)))
        window = np.asarray(window)
        fail = window % 3 == 0  # NaN coefficients, as a failed window gets
        phi = np.where(fail, np.nan, 0.5)
        c = np.where(fail, np.nan, 3e307 * (1 + window % 3))
        variance = np.where(fail, np.nan, 1.0)
        return phi, c, variance, [FitError("drawn to fail") if f else None for f in fail]

    monkeypatch.setattr(metrics, "fit_arima_windows", steep_windows)
    monkeypatch.setattr(forecast_oracle, "fit_arima", steep_fit)
    series = TimeSeries(np.cumsum(np.random.default_rng(4).normal(size=200)))
    got = grid_rows(run_forecast_experiments(series, 30, seed=5))
    assert got == reference_forecast_experiments(series, 30, seed=5)
    errors = {r.error for r in got if r.model == FORECAST_MODEL}
    assert errors == {"drawn to fail", "forecast step 2 is not finite",
                      "forecast step 3 is not finite"}
    assert all(r.error is None for r in got if r.model != FORECAST_MODEL)
    # One fit per distinct split start, of the one window before it, all
    # in one call.
    assert len(trained) == 30 > len(set(trained))
    assert calls == [(sorted(set(trained)), [0] * len(set(trained)))]
