import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from proadapt import (Phase, TimeSeries, WorkflowConfig, cli, fit_arima, forecast,
                      generate_trace, price_tactics, reanchor, workflow, workflow_tick,
                      write_trace_csv)
from proadapt.cli import main
from monitor_oracle import tick_entry_to_dict


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "proadapt.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def write_ramp_fixture(tmp_path, start=0.30, step=0.004, n=160):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "response_time", "threshold": 0.7,
                                "direction": "upper", "penalty": 3, "reward": 10}))
    history = tmp_path / "history.csv"
    history.write_text("value\n" + "".join(f"{start + step * i:.6f}\n"
                                           for i in range(n)))
    return spec, history


class TestGenerate:
    def test_writes_trace_and_reports_count(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = run_cli("generate", "--minutes", "1440", "--seed", "42",
                         "--out", str(out))
        assert result.returncode == 0
        assert "5760 records" in result.stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 5761
        assert sum(1 for line in lines if ",download," in line) >= 1400

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("generate", "--minutes", "90", "--seed", "3", "--out", str(a))
        run_cli("generate", "--minutes", "90", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_2(self, tmp_path):
        result = run_cli("generate", "--minutes", "5", "--out", str(tmp_path))
        assert result.returncode == 2
        assert result.stderr.strip()
        assert not result.stdout.strip()


class TestReplicate:
    def test_emulate_writes_four_reports(self, tmp_path):
        result = run_cli("replicate", "--emulate", "--minutes", "360",
                         "--runs", "5", "--seed", "7", "--out-dir", str(tmp_path))
        assert result.returncode == 0, result.stderr
        for name in ("rq1.csv", "rq2.csv", "rq3.csv", "rq4.csv"):
            assert (tmp_path / name).exists()
        assert "experiment 4" in result.stdout

    def test_single_run_reports(self, tmp_path):
        result = run_cli("replicate", "--emulate", "--minutes", "360",
                         "--runs", "1", "--seed", "7", "--out-dir", str(tmp_path))
        assert result.returncode == 0
        rq2 = (tmp_path / "rq2.csv").read_text().splitlines()
        assert len(rq2) == 3  # header + one run for each of the two forecasters
        rq4 = (tmp_path / "rq4.csv").read_text().splitlines()
        assert len(rq4) == 4  # header + mra + two baselines

    def test_rerun_is_byte_identical(self, tmp_path):
        dirs = [tmp_path / "x", tmp_path / "y"]
        outputs = []
        for d in dirs:
            result = run_cli("replicate", "--emulate", "--minutes", "360",
                             "--runs", "3", "--seed", "11", "--out-dir", str(d))
            outputs.append(result.stdout)
            assert result.returncode == 0
        assert outputs[0] == outputs[1]
        for name in ("rq1.csv", "rq2.csv", "rq3.csv", "rq4.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_ingested_trace_matches_emulated(self, tmp_path):
        trace = tmp_path / "trace.csv"
        run_cli("generate", "--minutes", "360", "--seed", "9", "--out", str(trace))
        result = run_cli("replicate", "--trace", str(trace), "--runs", "2",
                         "--seed", "5", "--out-dir", str(tmp_path))
        assert result.returncode == 0

    def test_requires_a_source(self, tmp_path):
        result = run_cli("replicate", "--runs", "2", "--out-dir", str(tmp_path))
        assert result.returncode == 2

    def test_overflowing_scores_name_the_model_and_write_no_report(self, tmp_path):
        # Download energies of 1e200 square to inf in the cost scores.
        trace = tmp_path / "trace.csv"
        write_trace_csv([replace(r, energy_joules=r.energy_joules * 1e200)
                         if r.phase is Phase.DOWNLOAD else r
                         for r in generate_trace(120, 4)], trace)
        out_dir = tmp_path / "reports"
        result = run_cli("replicate", "--trace", str(trace), "--runs", "3",
                         "--out-dir", str(out_dir))
        assert result.returncode == 1
        assert result.stderr.startswith("error: cost response: run 0, model "
                                        "'baseline_mean': scores overflow (rmse=inf")
        assert len(result.stderr.splitlines()) == 1
        assert not out_dir.exists()


class TestMonitor:
    def test_flat_history_is_all_healthy(self, tmp_path):
        spec, history = write_ramp_fixture(tmp_path, start=0.30, step=0.0, n=100)
        result = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        assert result.returncode == 0
        ticks = [json.loads(line) for line in result.stdout.splitlines()]
        assert ticks and all(t["status"] == "healthy" for t in ticks)
        assert all(t["tactics"] == [] for t in ticks)

    def test_ramp_raises_risk_before_observed_violation(self, tmp_path):
        spec, history = write_ramp_fixture(tmp_path)
        result = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        assert result.returncode == 0
        ticks = [json.loads(line) for line in result.stdout.splitlines()]
        window = 60
        values = [0.30 + 0.004 * i for i in range(160)]
        first_at_risk = next(t["tick"] for t in ticks if t["status"] == "at_risk")
        first_observed = next(i - (window - 1) for i in range(window - 1, 160)
                              if values[i] > 0.7)
        assert first_at_risk < first_observed
        statuses = {t["status"] for t in ticks}
        assert statuses == {"healthy", "at_risk", "broken"}

    def test_rerun_is_byte_identical(self, tmp_path):
        spec, history = write_ramp_fixture(tmp_path)
        first = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        second = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        assert first.stdout == second.stdout

    def test_tactics_from_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        run_cli("generate", "--minutes", "120", "--seed", "4", "--out", str(trace))
        tactics = tmp_path / "tactics.json"
        tactics.write_text(json.dumps([
            {"name": "use_germany", "static_latency": 3.0, "static_cost": 36.0,
             "mirror": "germany"},
            {"name": "use_ontario", "static_latency": 3.0, "static_cost": 36.0,
             "mirror": "ontario"},
        ]))
        spec, history = write_ramp_fixture(tmp_path, start=0.60, step=0.004, n=80)
        result = run_cli("monitor", "--spec", str(spec), "--history", str(history),
                         "--window", "60", "--tactics", str(tactics),
                         "--trace", str(trace))
        assert result.returncode == 0, result.stderr
        ticks = [json.loads(line) for line in result.stdout.splitlines()]
        risky = [t for t in ticks if t["status"] in ("at_risk", "broken")]
        assert risky
        assert all(len(t["tactics"]) == 2 for t in risky)
        assert all(t["tactics"] == [] for t in ticks if t["status"] == "healthy")

    def test_tactics_are_priced_once_per_run(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(120, 4), trace)
        tactics = tmp_path / "tactics.json"
        tactics.write_text(json.dumps([
            {"name": f"use_{m}", "static_latency": 3.0, "static_cost": 36.0, "mirror": m}
            for m in ("germany", "ontario", "massachusetts")]))
        spec, history = write_ramp_fixture(tmp_path, start=0.60, step=0.004, n=80)
        calls = []
        original = workflow.predict
        monkeypatch.setattr(workflow, "predict",
                            lambda model, x: calls.append(model) or original(model, x))
        code, out, err = run_main(capsys, "monitor", "--spec", str(spec), "--history",
                                  str(history), "--tactics", str(tactics),
                                  "--trace", str(trace))
        assert code == 0 and err == ""
        ticks = [json.loads(line) for line in out.splitlines()]
        assert sum(t["status"] != "healthy" for t in ticks) > 1
        assert len(calls) == 2 * 3

    def test_missing_history_exits_2(self, tmp_path):
        spec, _ = write_ramp_fixture(tmp_path)
        result = run_cli("monitor", "--spec", str(spec),
                         "--history", str(tmp_path / "absent.csv"))
        assert result.returncode == 2

    def test_malformed_spec_names_field(self, tmp_path):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text(json.dumps({"name": "x"}))
        result = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        assert result.returncode == 1
        assert "threshold" in result.stderr

    def test_bad_direction_named(self, tmp_path):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text(json.dumps({"name": "x", "threshold": 1.0,
                                    "direction": "sideways"}))
        result = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        assert result.returncode == 1
        assert "direction" in result.stderr


class TestContracts:
    def test_stdout_carries_only_data(self, tmp_path):
        spec, history = write_ramp_fixture(tmp_path, n=70)
        result = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        for line in result.stdout.splitlines():
            json.loads(line)  # every stdout line is data

    @pytest.mark.parametrize("args", [("frobnicate",), ("generate",)])
    def test_usage_errors_exit_2(self, args):
        assert run_cli(*args).returncode == 2

    def test_closed_stdout_exits_2_quietly(self, tmp_path):
        # About 250 kB of lines, more than a pipe buffers, so the CLI is
        # still writing when the reader goes away.
        spec, history = write_ramp_fixture(tmp_path, n=2000)
        process = subprocess.Popen(
            [sys.executable, "-m", "proadapt.cli", "monitor", "--spec", str(spec),
             "--history", str(history)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        json.loads(process.stdout.readline())
        process.stdout.close()
        stderr = process.stderr.read()
        assert process.wait() == 2
        assert stderr == b""


def run_main(capsys, *args):
    """Run the CLI in this process: (exit code, stdout, stderr)."""
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_monitor_inputs(tmp_path, values, specs):
    spec = tmp_path / "specs.json"
    spec.write_text(json.dumps(specs))
    history = tmp_path / "history.csv"
    history.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    return str(spec), str(history)


def random_walk(n, seed):
    return np.cumsum(np.random.default_rng(seed).normal(size=n)).tolist()


def alternating_break(seed):
    """200 random-walk points, 70 points stepping +0/+1 alternately (a
    unit-root window, phi = -1), then the same 200 points again."""
    walk = random_walk(200, seed)
    steps = walk[-1] + np.cumsum(np.arange(70) % 2)
    return walk + steps.tolist() + walk


def quantile_specs(values, quantiles=(0.4, 0.6, 0.8)):
    return [{"name": f"spec_{q}", "threshold": float(np.quantile(values, q)),
             "reward": float(i)} for i, q in enumerate(quantiles)]


class TestMonitorRefit:
    WINDOW, HORIZON = 30, 5

    def reference(self, specs_path, values, refit_every, tactics_args):
        """Expected lines from a loop that fits every spec separately on each
        refit tick and runs one workflow tick per spec."""
        specs = cli._load_specs(specs_path)
        estimates = (price_tactics(*cli._load_tactic_context(*tactics_args))
                     if tactics_args else ())
        config = WorkflowConfig(horizon=self.HORIZON)
        ticks = len(values) - self.WINDOW + 1
        lines, models = {}, {}
        for tick in range(ticks):
            series = TimeSeries(values[tick:tick + self.WINDOW])
            if tick == 0 or (refit_every > 0 and tick % refit_every == 0):
                models = {s.name: fit_arima(series) for s in specs}
            for spec in specs:
                entry, = workflow_tick([spec], series, estimates, config,
                                       models[spec.name])
                lines[(tick, spec.name)] = tick_entry_to_dict(entry)
        return lines

    @pytest.mark.parametrize("refit_every", [0, 1, 3])
    def test_shared_fits_match_per_spec_fits(self, tmp_path, capsys, refit_every):
        # 320 points give 291 ticks: refitting every tick crosses a fit block.
        values = (5.0 + 0.01 * np.arange(320) + 0.3 * np.array(random_walk(320, 21))).tolist()
        spec, history = write_monitor_inputs(tmp_path, values, quantile_specs(values))
        trace = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(120, 4), trace)
        tactics = tmp_path / "tactics.json"
        tactics.write_text(json.dumps([
            {"name": f"use_{m}", "static_latency": 3.0, "static_cost": 36.0, "mirror": m}
            for m in ("germany", "ontario")]))
        code, out, err = run_main(capsys, "monitor", "--spec", spec, "--history", history,
                                  "--window", str(self.WINDOW), "--horizon",
                                  str(self.HORIZON), "--refit-every", str(refit_every),
                                  "--tactics", str(tactics), "--trace", str(trace))
        assert code == 0 and err == ""
        expected = self.reference(spec, values, refit_every, (str(tactics), str(trace)))
        got = [json.loads(line) for line in out.splitlines()]
        assert len(got) == len(expected)
        assert {"healthy", "at_risk", "broken"} <= {line["status"] for line in got}
        assert any(line["tactics"] for line in got)
        for line in got:
            want = expected[(line.pop("tick"), line["name"])]
            np.testing.assert_allclose(line.pop("forecast"), want.pop("forecast"),
                                       rtol=1e-12, atol=0)
            assert line == want

    def test_failed_refit_keeps_last_good_model(self, tmp_path, capsys):
        values = alternating_break(seed=0)
        spec, history = write_monitor_inputs(tmp_path, values, quantile_specs(values))
        code, out, err = run_main(capsys, "monitor", "--spec", spec, "--history", history,
                                  "--refit-every", "1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3 * (len(values) - 60 + 1)
        assert all("error" not in line for line in lines)
        warnings = err.splitlines()
        assert warnings and all(w.startswith("warning: tick ") and "refit failed: " in w
                                and "not stationary" in w for w in warnings)
        # The first failing tick forecasts from the previous tick's model.
        first = int(warnings[0].split()[2].rstrip(":"))
        last_good = fit_arima(TimeSeries(values[first - 1:first + 59]))
        moved = reanchor(last_good, TimeSeries(values[first:first + 60]))
        line = next(line for line in lines if line["tick"] == first)
        assert line["forecast"] == forecast(moved, 5)

    def test_entries_carry_fit_error_until_a_fit_succeeds(self, tmp_path, capsys):
        # Explosive alternating steps (phi = -1.05) until the walk takes over.
        walk = random_walk(100, 3)
        values = (walk[0] + np.cumsum((-1.05) ** np.arange(70))).tolist() + walk
        spec, history = write_monitor_inputs(tmp_path, values, quantile_specs(values))
        code, out, err = run_main(capsys, "monitor", "--spec", spec, "--history", history,
                                  "--refit-every", "1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        failed = {int(w.split()[2].rstrip(":")) for w in err.splitlines()}
        assert 0 in failed
        first_fit = min(set(range(len(values) - 59)) - failed)
        for line in lines:
            if line["tick"] < first_fit:
                assert "not stationary" in line["error"] and "status" not in line
            else:
                assert "error" not in line


class TestMonitorInputErrors:
    def assert_one_error(self, capsys, *args):
        code, out, err = run_main(capsys, *args)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    def test_negative_refit_every_rejected(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--refit-every", "-3")
        assert "--refit-every" in err

    def test_nonpositive_window_rejected(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--window", "0")
        assert "--window" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-6"])
    def test_tick_seconds_must_be_finite_and_positive(self, tmp_path, capsys, value):
        spec, history = write_ramp_fixture(tmp_path)
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), f"--tick-seconds={value}")
        assert "tick_seconds must be finite and > 0" in err

    def run_tactics(self, tmp_path, capsys, text):
        spec, history = write_ramp_fixture(tmp_path)
        trace = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(30, 4), trace)
        tactics = tmp_path / "tactics.json"
        tactics.write_text(text)
        return self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                     str(history), "--tactics", str(tactics),
                                     "--trace", str(trace))

    def test_tactics_entry_must_be_object(self, tmp_path, capsys):
        err = self.run_tactics(tmp_path, capsys, json.dumps(["name static_latency static_cost"]))
        assert "tactics file entry 0" in err

    @pytest.mark.parametrize("fields", [
        '"threshold": true', '"threshold": 0.7, "penalty": false',
        '"threshold": 0.7, "reward": NaN', '"threshold": 0.7, "penalty": Infinity'])
    def test_spec_bool_and_nonfinite_fields_rejected(self, tmp_path, capsys, fields):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text('{"name": "x", ' + fields + '}')
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert "spec file entry 0" in err

    def test_duplicate_spec_names_rejected(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text(json.dumps([{"name": "x", "threshold": 1.0},
                                    {"name": "x", "threshold": 2.0}]))
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert "duplicate" in err

    @pytest.mark.parametrize("field", [
        '"static_latency": true', '"static_latency": null', '"static_latency": []',
        '"static_latency": NaN', '"static_latency": 1e400', '"static_latency": 1' + 400 * '0'])
    def test_tactic_static_fields_checked(self, tmp_path, capsys, field):
        err = self.run_tactics(tmp_path, capsys,
                               '[{"name": "t", "static_cost": 1.0, ' + field + '}]')
        assert "tactics file entry 0" in err

    @pytest.mark.parametrize("energy", [1e200, 1.7e308])
    def test_overflowing_trace_energies_rejected(self, tmp_path, capsys, energy):
        # Squares of 1e200 overflow the training error; sums of 1.7e308
        # overflow the ridge solve's weights.
        spec, history = write_ramp_fixture(tmp_path)
        trace = tmp_path / "trace.csv"
        write_trace_csv([replace(r, energy_joules=energy * (1.0 - 0.001 * (i % 7)))
                         if r.phase is Phase.DOWNLOAD else r
                         for i, r in enumerate(generate_trace(120, 4))], trace)
        tactics = tmp_path / "tactics.json"
        tactics.write_text(json.dumps([{"name": "t", "static_latency": 3.0,
                                        "static_cost": 36.0}]))
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--tactics", str(tactics),
                                    "--trace", str(trace))
        assert err.startswith("error: tactics file entry 0: least-squares fit overflows")

    def test_duplicate_tactic_names_rejected(self, tmp_path, capsys):
        entry = {"name": "t", "static_latency": 1.0, "static_cost": 1.0}
        err = self.run_tactics(tmp_path, capsys, json.dumps([entry, entry]))
        assert "tactics file entry 1: duplicate name 't'" in err

    def test_spec_number_too_large_for_a_float(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text('{"name": "x", "threshold": 1, "reward": 1' + 400 * "0" + "}")
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert "spec file entry 0" in err

    @pytest.mark.parametrize("which", ["spec", "tactics"])
    def test_deeply_nested_json_rejected(self, tmp_path, capsys, which):
        deep = "[" * 100_000 + "]" * 100_000
        if which == "tactics":
            err = self.run_tactics(tmp_path, capsys, deep)
        else:
            spec, history = write_ramp_fixture(tmp_path)
            spec.write_text(deep)
            err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                        "--history", str(history))
        assert f"{which} file: JSON nested too deeply" in err

    def test_oversized_csv_field_rejected(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        history.write_text("value\n" + "1" * 200_000 + "\n")
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert err.startswith("error: history file: field larger than field limit")
        trace = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(30, 4), trace)
        trace.write_text(trace.read_text() + "1" * 200_000 + "\n")
        code, out, err = run_main(capsys, "replicate", "--trace", str(trace),
                                  "--out-dir", str(tmp_path))
        assert code == 1 and "field larger than field limit" in err
        assert len(err.splitlines()) == 1 and err.startswith("error: line 122: ")
