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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from monitor_oracle import reference_monitor
from proadapt import cli
from proadapt.emulator import generate_trace, write_trace_csv
from proadapt.types import TimeSeries
from proadapt.workflow import WorkflowConfig, price_tactics

TACTICS = [{"name": "mirror_g", "mirror": "germany", "static_latency": 2.5,
            "static_cost": 30.0},
           {"name": "plain", "static_latency": 1.0, "static_cost": 3.0},
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
        estimates = price_tactics(*cli._load_tactic_context(*tactics_args))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc == 0, err.getvalue()
    config = WorkflowConfig(horizon=horizon, risk_margin=risk_margin,
                            tick_seconds=tick_seconds)
    want_out, want_err = reference_monitor(
        cli._load_specs(str(workdir / "specs.json")), TimeSeries(np.array(values)),
        window, config, refit_every, estimates)
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


def test_blocks_stay_within_the_cell_budget(workdir, monkeypatch):
    sizes = []
    kernel = cli.workflow_block

    def spy(specs, last, previous, phi, c, config):
        sizes.append((len(last), config.horizon))
        return kernel(specs, last, previous, phi, c, config)

    monkeypatch.setattr(cli, "workflow_block", spy)
    values = (0.01 * np.arange(80) + np.sin(np.arange(80))).tolist()
    specs = [{"name": "cap", "threshold": 1e6}]
    out, err, want_out, want_err = run_both(workdir, values, specs, 12, 5000, 0.1, 6.0,
                                            0, False)
    assert out == want_out and err == want_err
    assert sum(n for n, _ in sizes) == 69
    assert all(n * horizon <= cli.BLOCK_CELLS for n, horizon in sizes)
    assert len(sizes) > 1
