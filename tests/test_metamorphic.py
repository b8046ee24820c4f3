"""Metamorphic relations between whole runs.

An oracle re-derives one answer and can share a blind spot with the code.
These tests instead check how the answers of two related runs must relate,
bit for bit:

* monitor negation: negating the history, flipping each spec's direction
  and negating its threshold keeps every status, first step and error,
  and negates every forecast step;
* power-of-two scaling: scaling the idle series by 2**k scales every rq2
  RMSE and MAE by 2**k, and scaling a response and its static value by
  2**k scales every rq3/rq4 column of that response by 2**k.

Scaling by a power of two is exact in every product, quotient and sum
that neither overflows nor underflows, and negation is exact in all of
them, so each relation holds with ``==``, not up to a tolerance.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from proadapt import (TimeSeries, cli, generate_trace, run_forecast_experiments,
                      run_predictor_experiments, to_idle_series, to_regression_dataset)
from proadapt.regression import ResponseVector


def run_monitor(workdir, values, specs, flags):
    """``monitor`` on a history of ``values`` (each written by ``repr``, so
    read back exactly) and ``specs``: (exit code, parsed stdout lines,
    stderr)."""
    spec, history = workdir / "spec.json", workdir / "history.csv"
    spec.write_text(json.dumps(specs), encoding="utf-8")
    history.write_text("value\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["monitor", "--spec", str(spec), "--history", str(history), *flags])
    return code, [json.loads(line) for line in out.getvalue().splitlines()], err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic")


@st.composite
def histories(draw):
    """Histories of up to 90 points, of moderate size so that no fit or
    forecast overflows (an overflowing fit's error names c, whose sign
    flips): free values, random walks with steps scaled by 1e-3 to 1e3,
    and integer ramps, whose constant differences take the fit's
    rank-deficient path."""
    n = draw(st.integers(0, 90))
    kind = draw(st.sampled_from(["free", "walk", "ramp"]))
    if kind == "ramp":
        start, step = draw(st.integers(-50, 50)), draw(st.integers(-5, 5))
        return [float(start + step * i) for i in range(n)]
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    if kind == "free":
        return values
    return (np.cumsum(values) * draw(st.sampled_from([1e-3, 1.0, 7.5, 1e3]))).tolist()


def negated_specs(specs):
    flip = {"upper": "lower", "lower": "upper"}
    return [{**spec, "threshold": -spec["threshold"], "direction": flip[spec["direction"]]}
            for spec in specs]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(values=histories(), window=st.integers(1, 40), refit_every=st.integers(0, 5),
       horizon=st.integers(1, 8),
       margin=st.sampled_from([0.0, 0.1, 0.5, 0.99]) | st.floats(0.0, 0.99),
       specs=st.lists(st.tuples(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
                                st.sampled_from(["upper", "lower"]), st.integers(0, 2)),
                      min_size=1, max_size=3))
def test_monitor_negation(workdir, values, window, refit_every, horizon, margin, specs):
    specs = [{"name": f"spec {i}", "threshold": threshold, "direction": direction,
              "reward": reward} for i, (threshold, direction, reward) in enumerate(specs)]
    flags = [f"--window={window}", f"--refit-every={refit_every}", f"--horizon={horizon}",
             f"--risk-margin={margin!r}"]
    code, lines, err = run_monitor(workdir, values, specs, flags)
    negated_code, negated_lines, negated_err = run_monitor(
        workdir, [-v for v in values], negated_specs(specs), flags)
    # The same exit code, warnings and errors, and the same lines but for
    # the forecasts, which are exact negations (compared as floats, since
    # a zero step reads 0.0 in one run and -0.0 in the other).
    assert (negated_code, negated_err) == (code, err)
    assert len(negated_lines) == len(lines)
    for line, negated in zip(lines, negated_lines):
        forecast, negated_forecast = line.pop("forecast", []), negated.pop("forecast", [])
        assert negated == line
        assert negated_forecast == [-step for step in forecast]


@functools.lru_cache(maxsize=None)
def trace_series(seed):
    """The idle series and regression dataset of a 240-minute trace."""
    trace = generate_trace(240, seed)
    return to_idle_series(trace), to_regression_dataset(trace)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-8, 8), trace_seed=st.integers(0, 3), runs=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_forecast_scores_scale_with_the_series(k, trace_seed, runs, seed):
    idle, _ = trace_series(trace_seed)
    scale = 2.0**k
    reports = run_forecast_experiments(idle, runs, seed)
    scaled = run_forecast_experiments(TimeSeries(idle.values * scale), runs, seed)
    assert scaled.errors == reports.errors
    np.testing.assert_array_equal(scaled.rmse, reports.rmse * scale)
    np.testing.assert_array_equal(scaled.mae, reports.mae * scale)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-8, 8), trace_seed=st.integers(0, 3), runs=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), statics=st.tuples(st.floats(0.0, 100.0),
                                                          st.floats(0.0, 100.0)))
def test_predictor_scores_scale_with_the_response(k, trace_seed, runs, seed, statics):
    """Every column of both responses, the least-squares fit, the Bayesian
    ridge and both baselines, scales exactly. The ridge's evidence
    iterations start from alpha = beta = 1 whatever the scale, so its
    exactness is observed, not derived."""
    _, (X, latency, cost) = trace_series(trace_seed)
    scale = 2.0**k
    static_latency, static_cost = statics

    def reports(s):
        return run_predictor_experiments(
            X, {"latency": (ResponseVector(latency.t * s), static_latency * s),
                "cost": (ResponseVector(cost.t * s), static_cost * s)}, runs, seed)

    base, scaled = reports(1.0), reports(scale)
    assert scaled.errors == base.errors
    np.testing.assert_array_equal(scaled.rmse, base.rmse * scale)
    np.testing.assert_array_equal(scaled.mae, base.mae * scale)
