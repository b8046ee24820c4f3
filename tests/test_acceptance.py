"""Acceptance suite: one test per exit criterion, each printed as a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
them). Every tolerance and seed is pinned here.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from proadapt import (DesignMatrix, ResponseVector, SAMPLE_TACTIC_A,
                      SAMPLE_TACTIC_B, SlaSpec, SpecStatus, RegressionModel,
                      TacticModels, TimeSeries, difference, fit_arima, fit_mra,
                      generate_trace, ingest_trace_csv, price_tactics, rmse,
                      run_cost_impact_simulation, run_forecast_experiments,
                      run_predictor_experiments, summarize, to_idle_series,
                      to_regression_dataset, workflow_tick, write_trace_csv)
from proadapt.metrics import mae
from trace_oracle import same_columns

TRACE_SEED = 42
MASTER_SEED = 42


def timed(limit_seconds):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, f"took {elapsed:.2f}s, limit {limit_seconds}s"
        return elapsed

    return check


def report(number, description, elapsed):
    print(f"criterion {number}: PASS ({elapsed:.2f}s) - {description}")


def test_criterion_1_metric_oracles():
    done = timed(1.0)
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        predicted = rng.normal(0.0, 10.0, n)
        actual = rng.normal(0.0, 10.0, n)
        # independent oracle: plain-Python accumulation
        sq = sum((p - a) ** 2 for p, a in zip(predicted, actual))
        ab = sum(abs(p - a) for p, a in zip(predicted, actual))
        want_rmse, want_mae = math.sqrt(sq / n), ab / n
        got_rmse, got_mae = rmse(predicted, actual), mae(predicted, actual)
        assert abs(got_rmse - want_rmse) <= 1e-12 * max(1.0, abs(want_rmse))
        assert abs(got_mae - want_mae) <= 1e-12 * max(1.0, abs(want_mae))
        assert got_rmse >= got_mae - 1e-12
    report(1, "rmse/mae match brute force at 1e-12 on 1000 pairs", done())


def cofactor_inverse(matrix):
    """Explicit adjugate/determinant inverse for sizes 1..3."""
    m = [[float(v) for v in row] for row in matrix]
    size = len(m)
    if size == 1:
        return [[1.0 / m[0][0]]]

    def det2(a, b, c, d):
        return a * d - b * c

    if size == 2:
        d = det2(m[0][0], m[0][1], m[1][0], m[1][1])
        return [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]
    cof = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = det2(m[rows[0]][cols[0]], m[rows[0]][cols[1]],
                         m[rows[1]][cols[0]], m[rows[1]][cols[1]])
            cof[i][j] = (-1.0) ** (i + j) * minor
    d = sum(m[0][j] * cof[0][j] for j in range(3))
    return [[cof[j][i] / d for j in range(3)] for i in range(3)]


def test_criterion_2_normal_equations_oracle():
    done = timed(1.0)
    rng = np.random.default_rng(202)
    cases = 0
    while cases < 200:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))]) \
            if m > 1 else np.ones((n, 1))
        gram = X.T @ X
        if abs(np.linalg.det(gram)) < 1e-3:  # keep the fixed suite full rank
            continue
        t = rng.normal(size=n)
        inverse = cofactor_inverse(gram.tolist())
        expected = [sum(inverse[i][j] * float((X.T @ t)[j]) for j in range(m))
                    for i in range(m)]
        model = fit_mra(DesignMatrix(X), ResponseVector(t))
        assert model.ridge_lambda == 0.0
        assert max(abs(w - e) for w, e in zip(model.weights, expected)) < 1e-8
        cases += 1
    report(2, "fit matches cofactor-inversion brute force on 200 small designs", done())


def test_criterion_3_arima_parameter_recovery():
    done = timed(5.0)
    for phi, seed in ((-0.5, 1), (0.3, 2), (0.6, 3)):
        rng = np.random.default_rng(seed)
        z = np.zeros(2000)
        for i in range(1, 2000):
            z[i] = phi * z[i - 1] + rng.normal()
        series = TimeSeries(np.concatenate(([0.0], np.cumsum(z))))
        model = fit_arima(series)
        assert abs(model.phi - phi) < 0.05, f"phi {phi}: fitted {model.phi}"
    report(3, "phi in {-0.5, 0.3, 0.6} recovered within 0.05 at n=2000", done())


def test_criterion_4_volatile_tactic_cost_spread():
    done = timed(2.0)
    costs_a, costs_b = run_cost_impact_simulation(SAMPLE_TACTIC_A, SAMPLE_TACTIC_B,
                                                  10000, seed=MASTER_SEED)
    sd_a = float(np.std(costs_a, ddof=1))
    sd_b = float(np.std(costs_b, ddof=1))
    p99_a = float(np.percentile(costs_a, 99))
    p99_b = float(np.percentile(costs_b, 99))
    assert sd_a > sd_b, f"sd {sd_a:.3f} vs {sd_b:.3f}"
    assert p99_a > p99_b, f"p99 {p99_a:.3f} vs {p99_b:.3f}"
    report(4, f"skewed tactic is more dispersed (sd {sd_a:.2f}>{sd_b:.2f}, "
              f"p99 {p99_a:.1f}>{p99_b:.1f})", done())


def test_criterion_5_forecaster_beats_persistence():
    done = timed(30.0)
    trace = generate_trace(1440, seed=TRACE_SEED)
    idle = to_idle_series(trace)
    summary = summarize(run_forecast_experiments(idle, 50, seed=MASTER_SEED))
    arima = summary.models["arima"]
    persistence = summary.models["persistence"]
    wins = summary.wins[("arima", "persistence")]
    assert arima.errors == 0
    assert arima.mean_rmse < persistence.mean_rmse
    assert wins >= 0.70 * 50, f"only {wins} wins of 50"
    report(5, f"arima mean rmse {arima.mean_rmse:.4f} < persistence "
              f"{persistence.mean_rmse:.4f}, wins {wins}/50", done())


def test_criterion_6_prediction_beats_baselines():
    done = timed(60.0)
    trace = generate_trace(1440, seed=TRACE_SEED)
    X, latency, _ = to_regression_dataset(trace)
    reports = run_predictor_experiments(X, {"latency": (latency, 2.5)}, 50, seed=MASTER_SEED)
    summary = summarize(reports.select({f"{model}_latency": model for model in
                                        ("mra", "brr", "baseline_mean", "baseline_static")}))
    vs_mean = summary.wins[("mra", "baseline_mean")]
    vs_static = summary.wins[("mra", "baseline_static")]
    assert summary.models["mra"].errors == 0
    assert vs_mean >= 0.80 * 50, f"only {vs_mean} wins of 50 vs running mean"
    assert vs_static >= 0.90 * 50, f"only {vs_static} wins of 50 vs static value"
    report(6, f"regression beats running mean {vs_mean}/50 and "
              f"static value {vs_static}/50", done())


def random_tick_scenario(rng):
    length = int(rng.integers(15, 60))
    values = 1.0 + rng.uniform(-0.3, 0.3) + np.cumsum(rng.normal(0.0, 0.05, length))
    history = TimeSeries(np.abs(values) + 0.01)
    spec = SlaSpec("s", 1.0, reward=float(rng.uniform(0, 10)))
    n_tactics = int(rng.integers(1, 5))
    tactics = {f"t{i}": TacticModels(RegressionModel(weights=(float(rng.uniform(0, 5)),)),
                                     RegressionModel(weights=(float(rng.uniform(0, 5)),)), (1.0,))
               for i in range(n_tactics)}
    return spec, history, tactics


def test_criterion_7_estimates_iff_potentially_broken(tmp_path):
    done = timed(5.0)
    rng = np.random.default_rng(777)
    seen = {status: 0 for status in SpecStatus}
    for _ in range(500):
        spec, history, tactics = random_tick_scenario(rng)
        entries = workflow_tick([spec], history, price_tactics(tactics))
        entry = entries[0]
        if entry.error is not None:
            assert entry.estimates == ()
            continue
        status = entry.analysis.status
        seen[status] += 1
        produced = len(entry.estimates) > 0
        assert produced == (status in (SpecStatus.AT_RISK, SpecStatus.BROKEN)), \
            f"estimates {produced} for status {status}"
        if produced:
            assert len(entry.estimates) == len(tactics)
    assert seen[SpecStatus.HEALTHY] > 0
    assert seen[SpecStatus.AT_RISK] + seen[SpecStatus.BROKEN] > 0

    # proactivity demo: the monitor flags risk strictly before the first
    # observed violation of the ramping fixture
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "response_time", "threshold": 0.7,
                                     "direction": "upper", "reward": 10}))
    values = [0.30 + 0.004 * i for i in range(160)]
    history_path = tmp_path / "history.csv"
    history_path.write_text("value\n" + "".join(f"{v:.6f}\n" for v in values))
    run = subprocess.run([sys.executable, "-m", "proadapt.cli", "monitor",
                          "--spec", str(spec_path), "--history", str(history_path)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    ticks = [json.loads(line) for line in run.stdout.splitlines()]
    first_at_risk = next(t["tick"] for t in ticks if t["status"] == "at_risk")
    first_observed = next(i - 59 for i in range(59, 160) if values[i] > 0.7)
    assert first_at_risk < first_observed
    report(7, f"estimates iff at-risk/broken over 500 scenarios; risk flagged "
              f"{first_observed - first_at_risk} ticks early", done())


def test_criterion_8_determinism_and_round_trips(tmp_path):
    done = timed(10.0)

    def cli(*args):
        run = subprocess.run([sys.executable, "-m", "proadapt.cli", *args],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return run.stdout

    # every command byte-identical on rerun
    for name in ("a.csv", "b.csv"):
        cli("generate", "--minutes", "120", "--seed", "6", "--out",
            str(tmp_path / name))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    outs = []
    for sub in ("x", "y"):
        outs.append(cli("replicate", "--emulate", "--minutes", "360", "--runs", "3",
                        "--seed", "11", "--out-dir", str(tmp_path / sub)))
    assert outs[0] == outs[1]
    for name in ("rq1.csv", "rq2.csv", "rq3.csv", "rq4.csv"):
        assert (tmp_path / "x" / name).read_bytes() == \
            (tmp_path / "y" / name).read_bytes()

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "r", "threshold": 0.7}))
    history_path = tmp_path / "history.csv"
    history_path.write_text("value\n" + "".join(f"{0.3 + 0.004 * i:.6f}\n"
                                                for i in range(90)))
    monitor_args = ("monitor", "--spec", str(spec_path),
                    "--history", str(history_path))
    assert cli(*monitor_args) == cli(*monitor_args)

    # trace CSV write -> read round-trips exactly
    trace = generate_trace(60, seed=19)
    write_trace_csv(trace, tmp_path / "rt.csv")
    assert same_columns(ingest_trace_csv(tmp_path / "rt.csv"), trace)

    # difference -> integrate reconstructs bit-for-bit
    rng = np.random.default_rng(808)
    for _ in range(100):
        values = rng.uniform(1.0, 2.0, size=int(rng.integers(3, 150)))
        diffed = difference(TimeSeries(values)).values
        rebuilt = np.concatenate(([values[0]], values[0] + np.cumsum(diffed)))
        assert np.array_equal(rebuilt, values)
    report(8, "reruns byte-identical; CSV and differencing round-trips exact", done())
