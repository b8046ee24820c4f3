"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest

from analysis import Identity, Normaliser, quartile_spread, self_times, timings
from checks import check_monitor, check_replicate
from tracer import Tracer


def _timeline(scale: float, seed: int = 7):
    """Probes of varying length at irregular gaps, stretched by ``scale``."""
    rng = np.random.default_rng(seed)
    probe = rng.uniform(150e-6, 250e-6, 200)
    gaps = rng.uniform(4e-3, 6e-3, 200)
    starts = np.cumsum(np.concatenate([[0.01], (probe + gaps)[:-1]]))
    return scale * starts, scale * (starts + probe), scale * probe


def test_uniform_slowdown_leaves_normalised_time_unchanged():
    starts, ends, reference = _timeline(1.0)
    slow_starts, slow_ends, slow_reference = _timeline(2.0)
    fast = Normaliser(starts, ends, reference, 200e-6)
    slow = Normaliser(slow_starts, slow_ends, slow_reference, 200e-6)
    events = np.array([0.0, 0.003, 0.2, 0.5, 0.8, 1.1])
    assert np.allclose(fast.span(events[:-1], events[1:]),
                       slow.span(2 * events[:-1], 2 * events[1:]), rtol=1e-12)
    assert not np.allclose(Identity().span(events[:-1], events[1:]),
                           Identity().span(2 * events[:-1], 2 * events[1:]))


def test_probe_time_is_excluded_and_gaps_are_rescaled():
    # Probes of 100 us every 1 ms; the reference equals the nominal time,
    # so normalised time is raw time minus the time spent in probes.
    starts = np.arange(10) * 1e-3
    ends = starts + 100e-6
    clock = Normaliser(starts, ends, np.full(10, 100e-6), 100e-6)
    assert clock.span(0.0, 9e-3) == pytest.approx(9 * 0.9e-3)
    assert clock.span(0.5e-3, 0.7e-3) == pytest.approx(0.2e-3)
    assert clock.span(0.05e-3, 0.5e-3) == pytest.approx(0.4e-3)  # starts inside a probe
    assert clock.span(-2e-3, 0.0) == pytest.approx(2e-3)  # before the first probe
    # A reference twice the nominal means the host ran at half speed.
    half = Normaliser(starts, ends, np.full(10, 200e-6), 100e-6)
    assert half.span(0.0, 9e-3) == pytest.approx(9 * 0.9e-3 / 2)


def test_normaliser_rejects_unpaired_or_overlapping_probes():
    with pytest.raises(ValueError):
        Normaliser([0.0, 1.0], [0.5], [0.5], 1.0)
    with pytest.raises(ValueError):
        Normaliser([0.0, 0.4], [0.5, 0.9], [0.5, 0.5], 1.0)


def test_self_time_subtracts_direct_children_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    parents = np.array([-1, 0, 1, 0])
    assert self_times(ends - starts, parents).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert self_times(ends - starts, parents).sum() == 10.0


def test_tracer_records_parents_and_self_time_adds_up():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert tracer.parents == [-1, 0, 0]
    durations = np.array(tracer.ends) - np.array(tracer.starts)
    assert self_times(durations, tracer.parents).sum() == pytest.approx(durations[0])


def test_timings_count_steady_operations_after_setup():
    record = {"t_start": 0.0, "t_end": 10.0, "t_steady": 2.0,
              "op_spans": (np.array([2.0, 3.0]), np.array([3.0, 5.0])),
              "ops_per_span": 1, "steady_ops": 4}
    result = timings(record, Identity())
    assert result["wall_s"] == 10.0 and result["setup_s"] == 2.0
    assert result["ops_per_s"] == pytest.approx(0.5)
    assert result["op_p50_us"] == pytest.approx(1.5e6)


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((6 - 2) / 4)


def _line(tick, name, status="healthy", tactics=0, horizon=5):
    entry = {"tick": tick, "name": name, "status": status,
             "first_violation_step": 2 if status == "at_risk" else None,
             "forecast": [1.0] * horizon,
             "tactics": [{"name": f"t{r}", "latency": 1.0, "cost": 2.0, "utility": 0.0,
                          "rank": r} for r in range(1, tactics + 1)]}
    return json.dumps(entry)


def test_check_monitor_counts_each_bad_tick_once():
    names = ["a", "b"]
    good = [_line(0, "a"), _line(0, "b", "broken", tactics=2),
            _line(1, "a", "at_risk", tactics=2), _line(1, "b")]
    failed, statuses = check_monitor("\n".join(good) + "\n", 2, names, 5, 2)
    assert failed == 0 and statuses["healthy"] == 2
    bad = list(good)
    bad[1] = _line(0, "b", "broken", tactics=1)           # ranks 1..1, not 1..2
    bad[3] = json.dumps({"tick": 1, "name": "b", "error": "boom"})
    assert check_monitor("\n".join(bad) + "\n", 2, names, 5, 2)[0] == 2
    assert check_monitor("\n".join(good[:3]) + "\n", 2, names, 5, 2)[0] == 1


def _write_reports(directory, runs, drop=()):
    header = "run,model,rmse,mae,train_fraction,seed\n"
    files = {"rq2.csv": ("arima", "persistence"),
             "rq3.csv": ("mra_latency", "brr_latency", "mra_cost", "brr_cost"),
             "rq4.csv": ("mra", "baseline_mean", "baseline_static")}
    for name, models in files.items():
        rows = [f"{run},{model},2.0,1.0,0.9,7\n" for run in range(runs) for model in models
                if (name, run, model) not in drop]
        (directory / name).write_text(header + "".join(rows))
    (directory / "rq1.csv").write_text(
        "sample,tactic,overall_cost\n" + "".join(f"{i},t,1.0\n" for i in range(2 * runs)))


def test_check_replicate_counts_failed_questions(tmp_path):
    summary = "\n".join(f"experiment {i}: ..." for i in range(1, 5))
    _write_reports(tmp_path, 3)
    assert check_replicate(tmp_path, summary, 3) == 0
    assert check_replicate(tmp_path, summary.replace("experiment 4", "x"), 3) == 9
    _write_reports(tmp_path, 3, drop={("rq4.csv", 1, "baseline_static")})
    assert check_replicate(tmp_path, summary, 3) == 9  # wrong row count: all fail
    _write_reports(tmp_path, 3)
    (tmp_path / "rq3.csv").write_text((tmp_path / "rq3.csv").read_text()
                                      .replace("2,brr_cost,2.0", "2,brr_cost,nan"))
    assert check_replicate(tmp_path, summary, 3) == 1
