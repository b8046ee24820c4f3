"""``monitor`` in blocks of ticks against the per-tick reference loop.

``cli.main`` forecasts, classifies and serialises a block of ticks per
array pass; ``monitor_oracle.reference_monitor`` does each tick on its own
with the scalar forecast, a step-by-step classifier, ``rank_tactics`` and
``json.dumps``. Their stdout and stderr must be equal byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from monitor_oracle import reference_monitor
from proadapt import arima, cli, workflow
from proadapt.arima import ArimaModel
from proadapt.emulator import generate_trace, write_trace_csv
from proadapt.types import SlaSpec, TimeSeries
from proadapt.workflow import TacticEstimate, price_tactics

TACTICS = [{"name": "mirror_g", "mirror": "germany", "static_latency": 2.5,
            "static_cost": 30.0},
           {"name": "plain %s 5%", "static_latency": 1.0, "static_cost": 3.0},
           {"name": "mirror_o", "mirror": "ontario", "static_latency": 2.5,
            "static_cost": 30.0}]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("blocks")
    (directory / "tactics.json").write_text(json.dumps(TACTICS), encoding="utf-8")
    write_trace_csv(generate_trace(60, 5), directory / "trace.csv")
    return directory


def run_both(workdir, values, specs, window, horizon, risk_margin, tick_seconds,
             refit_every, tactics):
    """(cli stdout, cli stderr, reference stdout, reference stderr)."""
    (workdir / "history.csv").write_text(
        "value\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
    (workdir / "specs.json").write_text(json.dumps(specs), encoding="utf-8")
    argv = ["monitor", "--spec", str(workdir / "specs.json"),
            "--history", str(workdir / "history.csv"), "--window", str(window),
            "--horizon", str(horizon), "--risk-margin", repr(risk_margin),
            "--tick-seconds", repr(tick_seconds), "--refit-every", str(refit_every)]
    estimates = ()
    if tactics:
        tactics_args = (str(workdir / "tactics.json"), str(workdir / "trace.csv"))
        argv += ["--tactics", tactics_args[0], "--trace", tactics_args[1]]
        estimates = price_tactics(cli._load_tactic_context(*tactics_args))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc == 0, err.getvalue()
    want_out, want_err = reference_monitor(
        cli._load_specs(str(workdir / "specs.json")), TimeSeries(np.array(values)),
        window, horizon, risk_margin, tick_seconds, refit_every, estimates)
    return out.getvalue(), err.getvalue(), want_out, want_err


@st.composite
def histories(draw):
    """Segments of random walk (AR(1) steps, or steps hypothesis picks),
    exact alternation (phi = -1 fits), constant runs and a ramp near the
    float maximum (fits and forecast steps that overflow)."""
    values = [draw(st.floats(-3.0, 3.0))]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["walk", "walk", "walk", "steps", "alternate",
                                     "constant", "ramp"]))
        n = draw(st.integers(1, 30))
        last = values[-1]
        if kind == "walk":
            rng = np.random.default_rng(draw(st.integers(0, 2**32)))
            phi, step = draw(st.sampled_from([-0.5, 0.0, 0.7])), 0.0
            for noise in rng.normal(0.0, 0.5, n).tolist():
                step = phi * step + noise
                last += step
                values.append(last)
        elif kind == "steps":
            for step in draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)):
                last += step
                values.append(last)
        elif kind == "alternate":
            size = draw(st.sampled_from([0.5, 1.0, 2.0]))
            values += [last + size * (i % 2) for i in range(1, n + 1)]
        elif kind == "constant":
            values += [last] * n
        else:
            values += [1.6e308 + 1e306 * i for i in range(min(n, 20))]
    return values


@st.composite
def specs_lists(draw, values):
    """Upper and lower specs with tied rewards; some thresholds equal a
    history value, so that a last value or a flat forecast sits exactly on
    a threshold."""
    thresholds = (st.sampled_from([0.0, -1.0, 1.0, 2.5]) | st.floats(-5.0, 5.0)
                  | st.sampled_from(values))
    entries = draw(st.lists(st.fixed_dictionaries({
        "threshold": thresholds, "direction": st.sampled_from(["upper", "lower"]),
        "reward": st.sampled_from([0.0, 1.0, 2.0])}), min_size=1, max_size=4))
    return [{"name": f'spec "{i}" \u00e9', **entry} for i, entry in enumerate(entries)]


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), values=histories(),
       window=st.integers(11, 16) | st.sampled_from([1, 2, 10]), horizon=st.integers(1, 8),
       risk_margin=st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.99]),
       tick_seconds=st.sampled_from([0.5, 6.0, 60.0]),
       refit_every=st.integers(0, 9), tactics=st.booleans())
def test_blocks_match_reference_loop(workdir, data, values, window, horizon,
                                     risk_margin, tick_seconds, refit_every, tactics):
    specs = data.draw(specs_lists(values))
    if len(values) < window:
        values = values + [values[-1]] * (window - len(values))
    out, err, want_out, want_err = run_both(workdir, values, specs, window, horizon,
                                            risk_margin, tick_seconds, refit_every,
                                            tactics)
    assert out == want_out
    assert err == want_err


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), values=histories(), window=st.integers(11, 14),
       refit_every=st.integers(0, 9), block_ticks=st.integers(1, 7))
def test_small_blocks_match_reference_loop(workdir, data, values, window, refit_every,
                                           block_ticks):
    # Blocks of a few ticks put refits, failed refits and the run's opening
    # fit errors on either side of many block boundaries, and make refit
    # intervals that span blocks without a refit.
    specs = data.draw(specs_lists(values))
    if len(values) < window:
        values = values + [values[-1]] * (window - len(values))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BLOCK_TICKS", block_ticks)
        out, err, want_out, want_err = run_both(workdir, values, specs, window, 3, 0.1,
                                                6.0, refit_every, False)
    assert out == want_out
    assert err == want_err


@pytest.mark.parametrize("refit_every", [0, 1, 3])
def test_many_blocks_match_reference_loop(workdir, refit_every):
    # 660 ticks cross two block boundaries; the alternation at 250-300
    # fails the refits on both sides of the first one.
    walk = np.cumsum(np.random.default_rng(3).normal(0.0, 0.3, 700)).tolist()
    values = walk[:250] + [walk[249] + (i % 2) for i in range(50)] + walk[300:]
    specs = [{"name": "hot", "threshold": float(np.quantile(values, 0.4)), "reward": 2.0},
             {"name": "cold", "threshold": float(np.quantile(values, 0.6)),
              "direction": "lower", "reward": 2.0}]
    out, err, want_out, want_err = run_both(workdir, values, specs, 41, 5, 0.1, 6.0,
                                            refit_every, True)
    assert out == want_out and err == want_err
    assert len(out.splitlines()) == 2 * 660


@pytest.mark.parametrize("risk_margin", [0.0, 0.5])
def test_ties_on_the_threshold_match_reference_loop(workdir, risk_margin):
    # A flat first window fits phi = c = 0, so every forecast is flat at the
    # tick's last value: on the flat stretch the last value and every step
    # sit exactly on the thresholds 1.0 and, at margin 0.5, on the band
    # edge of 2.0.
    walk = np.cumsum(np.random.default_rng(5).normal(0.0, 0.3, 30)).tolist()
    values = [1.0] * 25 + [1.0 + v for v in walk] + [1.0] * 15
    specs = [{"name": "up", "threshold": 1.0}, {"name": "down", "threshold": 1.0,
                                                "direction": "lower"},
             {"name": "edge", "threshold": 2.0}]
    out, err, want_out, want_err = run_both(workdir, values, specs, 12, 3, risk_margin,
                                            6.0, 0, True)
    assert out == want_out and err == want_err
    assert '"status": "healthy"' in out and '"status": "broken"' in out


def test_many_distinct_lines_match_reference_loop(workdir, monkeypatch):
    # Eight specs between the troughs and crests of a noisy wave, and a
    # 60-step horizon: the ticks' (status, first step) tuples are mostly
    # distinct, more of them than a block has ticks, yet the serialised
    # parts stay one per status and first step, at most horizon + 2.
    keys, sizes, entries = set(), [], cli._TickLines.entries

    def spy(lines, tick, forecast, pairs):
        text = entries(lines, tick, forecast, pairs)
        keys.add(tuple(pairs))
        sizes.append(len(lines._parts))
        return text

    monkeypatch.setattr(cli._TickLines, "entries", spy)
    rng = np.random.default_rng(11)
    t = np.arange(700)
    values = (10.0 * np.sin(t / 25.0) + 0.04 * np.cumsum(rng.normal(0.0, 0.2, t.size))
              + rng.normal(0.0, 0.2, t.size)).tolist()
    specs = [{"name": f"spec {i} %d%%s 100%", "threshold": float(threshold),
              "direction": "upper" if i % 2 else "lower", "reward": float(i)}
             for i, threshold in enumerate(np.linspace(-9.0, 9.0, 8))]
    out, err, want_out, want_err = run_both(workdir, values, specs, 20, 60, 0.0, 6.0, 1,
                                            True)
    assert out == want_out and err == want_err
    assert len(out.splitlines()) == 8 * 681
    assert len(keys) > cli.BLOCK_TICKS
    assert len(sizes) == 681 and max(sizes) <= 60 + 2


# Names and error texts with format characters, quotes, escapes and
# characters outside ASCII.
TEXTS = st.text(st.sampled_from('%{}"\\\'/\n\t\x00\u00e9\u20ac\U0001f600 ab')
                | st.characters(), max_size=10)
SCALARS = st.floats(0.0, 1e6) | st.sampled_from([0.0, 1e-300, 1e300])


@st.composite
def tick_line_cases(draw):
    """Specs, estimates (none or some), a horizon and ticks, each with a
    finite forecast and a drawn status and first step per spec."""
    horizon = draw(st.integers(1, 6))
    names = draw(st.lists(TEXTS.filter(bool), min_size=1, max_size=4, unique=True))
    estimates = tuple(draw(st.lists(st.builds(
        TacticEstimate, TEXTS, SCALARS, SCALARS, st.floats(-1e6, 1e6)), max_size=3)))
    ticks = []
    for tick in draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6)):
        forecast = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=horizon, max_size=horizon))
        codes = draw(st.lists(st.integers(0, 2), min_size=len(names),
                              max_size=len(names)))
        steps = [draw(st.integers(1, horizon)) if workflow.STATUSES[code] is
                 workflow.SpecStatus.AT_RISK else 0 for code in codes]
        ticks.append((tick, forecast, codes, steps, draw(TEXTS)))
    return names, estimates, draw(st.sampled_from([0.5, 6.0])), ticks


@settings(max_examples=200, deadline=None)
@given(tick_line_cases())
def test_tick_lines_equal_json_dumps(case):
    names, estimates, tick_seconds, ticks = case
    specs = [SlaSpec(name, 1.0) for name in names]
    lines = cli._TickLines(specs, estimates, tick_seconds)
    for tick, forecast, codes, steps, error in ticks:
        want = []
        for name, code, step in zip(names, codes, steps):
            status = workflow.STATUSES[code]
            ranked = []
            if estimates and status is not workflow.SpecStatus.HEALTHY:
                ranked = workflow.rank_tactics(estimates, status, step or None, tick_seconds)
            want.append(json.dumps({
                "tick": tick, "name": name, "status": status.value,
                "first_violation_step": step or None, "forecast": forecast,
                "tactics": [{"name": e.tactic_name, "latency": e.predicted_latency,
                             "cost": e.predicted_cost, "utility": e.utility_score,
                             "rank": rank} for rank, e in enumerate(ranked, start=1)],
            }) + "\n")
        pairs = [code + 3 * step for code, step in zip(codes, steps)]
        assert lines.entries(tick, forecast, pairs) == "".join(want)
        assert lines.errors(tick, error) == "".join(
            json.dumps({"tick": tick, "name": name, "error": error}) + "\n"
            for name in names)


def test_blocks_stay_within_the_cell_budget(workdir, monkeypatch):
    sizes = []
    kernel = workflow.workflow_block

    def spy(specs, last, previous, phi, c, horizon, risk_margin):
        sizes.append((len(last), horizon))
        return kernel(specs, last, previous, phi, c, horizon, risk_margin)

    monkeypatch.setattr(workflow, "workflow_block", spy)
    values = (0.01 * np.arange(80) + np.sin(np.arange(80))).tolist()
    specs = [{"name": "cap", "threshold": 1e6}]
    out, err, want_out, want_err = run_both(workdir, values, specs, 12, 5000, 0.1, 6.0,
                                            0, False)
    assert out == want_out and err == want_err
    assert sum(n for n, _ in sizes) == 69
    assert all(n * horizon <= cli.BLOCK_CELLS for n, horizon in sizes)
    assert len(sizes) > 1


@pytest.mark.parametrize("refit_every", [1, 300])
def test_refits_fit_the_run_in_one_call_without_models(workdir, monkeypatch, refit_every):
    # 1,900 ticks make 8 blocks; every refit window of the run goes to one
    # fit call all the same.
    fitted, built, built_by_cli = [], [], []
    fit, post_init, main = arima.fit_arima_windows, ArimaModel.__post_init__, cli.main

    def spy_fit(history, window, starts):
        fitted.append(list(starts))
        return fit(history, window, starts)

    def spy_post_init(model):
        built.append(model)
        post_init(model)

    def spy_main(argv):
        code = main(argv)
        built_by_cli.append(len(built))  # the reference loop builds models after
        return code

    monkeypatch.setattr(arima, "fit_arima_windows", spy_fit)
    monkeypatch.setattr(ArimaModel, "__post_init__", spy_post_init)
    monkeypatch.setattr(cli, "main", spy_main)
    values = np.cumsum(np.random.default_rng(7).normal(0.0, 0.3, 1940)).tolist()
    specs = [{"name": "hot", "threshold": float(np.quantile(values, 0.5))}]
    out, err, want_out, want_err = run_both(workdir, values, specs, 41, 5, 0.1, 6.0,
                                            refit_every, False)
    assert out == want_out and err == want_err
    assert built_by_cli == [0] and built  # the spy sees the reference loop's models
    assert fitted == [list(range(0, 1900, refit_every))]


def test_refit_warnings_precede_stdout(workdir):
    # The alternation at 250-300 fails refits after good ones, and the
    # first ticks fail before any fit is good: each warning line comes
    # before the first stdout line, stdout and stderr in one buffer.
    walk = np.cumsum(np.random.default_rng(3).normal(0.0, 0.3, 700)).tolist()
    values = ([walk[0] + (i % 2) for i in range(60)] + walk[60:250]
              + [walk[249] + (i % 2) for i in range(50)] + walk[300:])
    specs = [{"name": "hot", "threshold": float(np.quantile(values, 0.4))}]
    *_, want_out, want_err = run_both(workdir, values, specs, 41, 5, 0.1, 6.0, 1, False)
    assert "warning: tick 0: " in want_err and "warning: tick 259: " in want_err
    assert '"error": ' in want_out
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert cli.main(["monitor", "--spec", str(workdir / "specs.json"), "--history",
                         str(workdir / "history.csv"), "--window", "41",
                         "--refit-every", "1"]) == 0
    assert both.getvalue() == want_err + want_out


def long_window_run(workdir, monkeypatch, window):
    """(stdout, stderr, peak traced bytes, starts per fit call) of
    ``monitor --refit-every 1`` over 300 ticks."""
    values = np.cumsum(np.random.default_rng(3).normal(0.0, 0.3, window + 299)).tolist()
    (workdir / "history.csv").write_text(
        "value\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
    (workdir / "specs.json").write_text(json.dumps([{"name": "hot", "threshold": 1.0}]),
                                        encoding="utf-8")
    calls = []
    fit = arima.fit_arima_windows

    def spy_fit(history, window, starts):
        calls.append(len(starts))
        return fit(history, window, starts)

    monkeypatch.setattr(arima, "fit_arima_windows", spy_fit)
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["monitor", "--spec", str(workdir / "specs.json"),
                           "--history", str(workdir / "history.csv"),
                           "--window", str(window), "--refit-every", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return out.getvalue(), err.getvalue(), peak, calls


def test_long_windows_fit_the_run_within_the_memory_bound(workdir, monkeypatch):
    # 300 windows of 4,000 points in one fit call: fit_arima_windows
    # gathers at most arima.WINDOW_CELLS differences at a time, so the
    # run's fit temporaries stay small.
    out, err, peak, calls = long_window_run(workdir, monkeypatch, 4000)
    assert peak < 16 * 2**20
    assert calls == [300]
    assert len(out.splitlines()) == 300 and not err


def test_default_window_fits_the_run_in_one_call(workdir, monkeypatch):
    assert long_window_run(workdir, monkeypatch, 60)[3] == [300]
