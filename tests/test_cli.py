import contextlib
import csv
import io
import json
import os
import stat
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proadapt import (ArimaModel, Mirror, Phase, TimeSeries, arima, cli, emulator, fit_arima,
                      forecast, generate_trace, metrics, price_tactics, regression, workflow,
                      write_trace_csv)
from proadapt.cli import main
from limited_child import run_limited
from monitor_oracle import reference_monitor, reference_tick


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "proadapt.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=timeout)


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

    @pytest.mark.parametrize("minutes", ["0", "-3"])
    def test_minutes_below_1_name_the_flag(self, tmp_path, capsys, minutes):
        out = tmp_path / "trace.csv"
        assert run_main(capsys, "generate", "--minutes", minutes, "--out", str(out)) == (
            1, "", f"error: --minutes must be >= 1, got {minutes}\n")
        assert not out.exists()

    def test_minutes_from_2_to_the_63_name_the_flag_before_any_work(self, tmp_path, capsys,
                                                                    monkeypatch):
        def no_work(*args):
            raise AssertionError("the trace was generated")
        monkeypatch.setattr(emulator, "generate_trace", no_work)
        out = tmp_path / "trace.csv"
        assert run_main(capsys, "generate", "--minutes", str(2**63), "--out", str(out)) == (
            1, "", "error: --minutes must be < 2**63\n")
        assert not out.exists()

    def test_negative_seed_names_the_flag(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the trace was generated")
        monkeypatch.setattr(emulator, "generate_trace", no_work)
        out = tmp_path / "trace.csv"
        assert run_main(capsys, "generate", "--seed", "-1", "--out", str(out)) == (
            1, "", "error: --seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_a_failed_write_leaves_the_earlier_file(self, tmp_path):
        # The new trace (about 290 kB) passes the child's 64 KiB file-size
        # limit, so its write fails: the earlier trace stays byte for byte.
        out = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(5, 1), out)
        earlier = out.read_bytes()
        result = run_limited("-m", "proadapt.cli", "generate", "--minutes", "1440",
                             "--out", str(out), file_size=1 << 16)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""
        assert out.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("target", ["missing directory", "fifo", "symlink loop"])
    def test_an_out_that_cannot_be_replaced_exits_2(self, tmp_path, target):
        # The trace would be written in place of the fifo or the looping
        # link, not into it (and a write into the fifo would wait for a
        # reader, hence the timeout).
        out = tmp_path / "missing" / "trace.csv"
        if target == "fifo":
            out = tmp_path / "trace.csv"
            os.mkfifo(out)
        elif target == "symlink loop":
            out = tmp_path / "trace.csv"
            out.symlink_to(out)
        before = sorted(tmp_path.iterdir())
        result = run_cli("generate", "--minutes", "5", "--out", str(out), timeout=60)
        assert result.returncode == 2
        assert result.stderr == {
            "missing directory": f"error: [Errno 2] No such file or directory: "
                                 f"'{out.parent}'\n",
            "fifo": f"error: {out} is not a regular file\n",
            "symlink loop": f"error: {out} is not a regular file\n"}[target]
        assert result.stdout == ""
        assert sorted(tmp_path.iterdir()) == before
        assert target != "fifo" or stat.S_ISFIFO(out.stat().st_mode)
        assert target != "symlink loop" or os.readlink(out) == str(out)

    @pytest.mark.parametrize("target", ["directory", "fifo", "symlink loop"])
    def test_a_refused_out_opens_no_temporary(self, tmp_path, capsys, monkeypatch, target):
        # The target is checked before any temporary is opened, so a refused
        # out costs no write of the trace beside it.
        opened = []
        monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs: (
            opened.append(path) or open(path, *args, **kwargs)), raising=False)
        out = tmp_path / "trace.csv"
        if target == "directory":
            out.mkdir()
        elif target == "fifo":
            os.mkfifo(out)
        else:
            out.symlink_to(out)
        assert run_main(capsys, "generate", "--minutes", "5", "--out", str(out)) == (
            2, "", {"directory": f"error: [Errno 21] Is a directory: '{out}'\n",
                    "fifo": f"error: {out} is not a regular file\n",
                    "symlink loop": f"error: {out} is not a regular file\n"}[target])
        assert opened == []
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_a_symlinked_out_is_written_through(self, tmp_path):
        trace, link = tmp_path / "trace.csv", tmp_path / "link.csv"
        trace.write_text("old\n")
        link.symlink_to(trace)
        result = run_cli("generate", "--minutes", "5", "--seed", "3", "--out", str(link))
        assert result.returncode == 0
        assert link.is_symlink()
        assert trace.read_text() == emulator.trace_csv_text(generate_trace(5, 3))

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

    def test_symlinked_reports_are_written_through(self, tmp_path, capsys):
        # out/rq1.csv names keep/rq1.csv: the link stays, its target gets the
        # report, and no temporary is left in either directory.
        out, keep, plain = tmp_path / "out", tmp_path / "keep", tmp_path / "plain"
        for directory in (out, keep, plain):
            directory.mkdir()
        (keep / "rq1.csv").write_text("old\n")
        (out / "rq1.csv").symlink_to(Path("..") / "keep" / "rq1.csv")
        flags = ("replicate", "--emulate", "--minutes", "120", "--runs", "2")
        assert run_main(capsys, *flags, "--out-dir", str(out))[0] == 0
        assert run_main(capsys, *flags, "--out-dir", str(plain))[0] == 0
        assert (out / "rq1.csv").is_symlink()
        assert (keep / "rq1.csv").read_bytes() == (plain / "rq1.csv").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == [
            "rq1.csv", "rq2.csv", "rq3.csv", "rq4.csv"]
        assert [p.name for p in keep.iterdir()] == ["rq1.csv"]

    @pytest.mark.parametrize("case", ["one file", "missing directory"])
    def test_a_report_link_that_cannot_be_written_names_the_report(self, tmp_path, capsys,
                                                                   case):
        # Two reports that resolve to one file, or a report that links into
        # a directory that does not exist: exit 2 with a line that names the
        # report and the link's target (not the temporary), and nothing left.
        out, keep = tmp_path / "out", tmp_path / "keep"
        for directory in (out, keep):
            directory.mkdir()
        (out / "rq1.csv").symlink_to(Path("..") / "keep" / "x.csv")
        linked = Path("..") / ("keep" if case == "one file" else "nowhere") / "x.csv"
        (out / "rq2.csv").symlink_to(linked)
        code, stdout, err = run_main(capsys, "replicate", "--emulate", "--minutes", "120",
                                     "--runs", "2", "--out-dir", str(out))
        real = Path(os.path.realpath(tmp_path))
        assert (code, stdout) == (2, "")
        assert err == {
            "one file": f"error: reports {out / 'rq1.csv'} and {out / 'rq2.csv'} both "
                        f"resolve to {real / 'keep' / 'x.csv'}\n",
            "missing directory": f"error: [Errno 2] No such file or directory: "
                                 f"'{out / 'rq2.csv'}' -> '{real / 'nowhere' / 'x.csv'}'\n",
        }[case]
        assert sorted(p.name for p in out.iterdir()) == ["rq1.csv", "rq2.csv"]
        assert list(keep.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep", "out"]

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

    # A trace file sets its own length, so --trace refuses --minutes whatever its value.
    @pytest.mark.parametrize("source, message", [
        ("--emulate", "--minutes must be >= 1, got 0"),
        ("--trace", "--minutes requires --emulate")], ids=["--emulate", "--trace"])
    def test_minutes_below_1_name_the_flag_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, source, message):
        def no_work(*args):
            raise AssertionError("the trace was read or generated")
        monkeypatch.setattr(emulator, "generate_trace", no_work)
        monkeypatch.setattr(emulator, "ingest_trace_csv", no_work)
        argv = [source] + ([str(tmp_path / "trace.csv")] if source == "--trace" else [])
        out_dir = tmp_path / "reports"
        assert run_main(capsys, "replicate", *argv, "--minutes", "0", "--runs", "2",
                        "--out-dir", str(out_dir)) == (1, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_emulated_trace_defaults_to_1440_minutes(self, tmp_path, capsys, monkeypatch):
        lengths = []
        real_generate = emulator.generate_trace

        def generate(minutes, seed):
            lengths.append(minutes)
            return real_generate(120, seed)
        monkeypatch.setattr(emulator, "generate_trace", generate)
        code, out, err = run_main(capsys, "replicate", "--emulate", "--runs", "2",
                                  "--out-dir", str(tmp_path))
        assert (code, lengths) == (0, [1440])

    @pytest.mark.parametrize("source", ["--emulate", "--trace"])
    def test_negative_seed_names_the_flag_before_any_work(self, tmp_path, capsys,
                                                          monkeypatch, source):
        def no_work(*args):
            raise AssertionError("the trace was read or generated")
        monkeypatch.setattr(emulator, "generate_trace", no_work)
        monkeypatch.setattr(emulator, "ingest_trace_csv", no_work)
        argv = [source] + ([str(tmp_path / "trace.csv")] if source == "--trace" else [])
        out_dir = tmp_path / "reports"
        assert run_main(capsys, "replicate", *argv, "--seed", "-1", "--runs", "2",
                        "--out-dir", str(out_dir)) == (
            1, "", "error: --seed must be >= 0, got -1\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_1_name_the_flag_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        runs):
        # It used to read "error: n_runs must be >= 1", once the trace was generated.
        def no_work(*args):
            raise AssertionError("the trace was generated")
        monkeypatch.setattr(emulator, "generate_trace", no_work)
        out_dir = tmp_path / "reports"
        assert run_main(capsys, "replicate", "--emulate", "--runs", runs,
                        "--out-dir", str(out_dir)) == (
            1, "", f"error: --runs must be >= 1, got {runs}\n")
        assert not out_dir.exists()

    def test_runs_from_2_to_the_63_name_the_flag_before_any_work(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_work(*args):
            raise AssertionError("the trace was generated")
        monkeypatch.setattr(emulator, "generate_trace", no_work)
        out_dir = tmp_path / "reports"
        assert run_main(capsys, "replicate", "--emulate", "--runs", str(10**20),
                        "--out-dir", str(out_dir)) == (
            1, "", "error: --runs must be < 2**63\n")
        assert not out_dir.exists()

    def test_requires_a_source(self, tmp_path):
        result = run_cli("replicate", "--runs", "2", "--out-dir", str(tmp_path))
        assert result.returncode == 2

    def test_overflowing_scores_name_the_model_and_write_no_report(self, tmp_path):
        # Download energies of 1e200 square to inf in the cost scores.
        trace = tmp_path / "trace.csv"
        records = generate_trace(120, 4)
        write_trace_csv(replace(records, energy_joules=np.where(
            records.phase_is(Phase.DOWNLOAD), records.energy_joules * 1e200,
            records.energy_joules)), trace)
        out_dir = tmp_path / "reports"
        result = run_cli("replicate", "--trace", str(trace), "--runs", "3",
                         "--out-dir", str(out_dir))
        assert result.returncode == 1
        assert result.stderr.startswith("error: run 0, model 'baseline_mean_cost': "
                                        "scores overflow (rmse=inf")
        assert len(result.stderr.splitlines()) == 1
        assert not out_dir.exists()

    def test_over_10_percent_failed_scores_exit_1_with_one_error(self, tmp_path, capsys):
        # A 60-minute idle series is too short to split: both forecast
        # models fail in every run, 4 of the 20 scores.
        code, out, err = run_main(capsys, "replicate", "--emulate", "--minutes", "60",
                                  "--runs", "2", "--out-dir", str(tmp_path))
        assert code == 1
        assert err == "error: 4 of 20 run/model scores failed, more than 10%\n"
        assert out.startswith("experiment 1:")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "rq1.csv", "rq2.csv", "rq3.csv", "rq4.csv"]

    def test_at_most_10_percent_failed_scores_warn_and_exit_0(self, tmp_path, capsys):
        # Idle energies that alternate exactly fit phi = -1, so the ARIMA
        # forecast fails in every run and persistence does not: 1 score in 10.
        records = generate_trace(360, 4)
        idle = np.flatnonzero(records.phase_is(Phase.IDLE))
        energy = records.energy_joules.copy()
        energy[idle] = 1.0 + np.arange(idle.size) % 2
        trace = tmp_path / "trace.csv"
        write_trace_csv(replace(records, energy_joules=energy), trace)
        out_dir = tmp_path / "reports"
        code, out, err = run_main(capsys, "replicate", "--trace", str(trace), "--runs", "3",
                                  "--out-dir", str(out_dir))
        assert code == 0
        assert err == "warning: 3 of 30 run/model scores failed\n"
        assert (out_dir / "rq2.csv").read_text().count(",persistence,") == 3

    def test_trace_content_errors_come_before_any_experiment(self, tmp_path, capsys,
                                                            monkeypatch):
        # A trace with idle records but 3 downloads is refused before rq1,
        # rq2 or the predictor harness runs.
        ran = []
        for module, name in ((emulator, "run_cost_impact_simulation"),
                             (metrics, "run_forecast_experiments"),
                             (metrics, "run_predictor_experiments")):
            def spy(*args, name=name, original=getattr(module, name), **kwargs):
                ran.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        trace = tmp_path / "trace.csv"
        records = generate_trace(1, 3)
        write_trace_csv(records, trace)
        assert np.count_nonzero(records.phase_is(Phase.IDLE)) > 0
        code, out, err = run_main(capsys, "replicate", "--trace", str(trace), "--runs", "3",
                                  "--out-dir", str(tmp_path / "reports"))
        assert (code, out) == (1, "")
        assert err == "error: trace file: need at least 8 download records, got 3\n"
        assert ran == []
        assert not (tmp_path / "reports").exists()

    def test_report_set_is_written_all_or_nothing(self, tmp_path, capsys):
        # A directory where rq3.csv belongs fails the run before any report
        # is replaced: an earlier run's files stay as they were.
        out_dir = tmp_path / "reports"
        args = ("replicate", "--emulate", "--minutes", "120", "--runs", "2",
                "--out-dir", str(out_dir))
        assert run_main(capsys, *args)[0] == 0
        earlier = {name: (out_dir / name).read_bytes()
                   for name in ("rq1.csv", "rq2.csv", "rq4.csv")}
        (out_dir / "rq3.csv").unlink()
        (out_dir / "rq3.csv").mkdir()
        code, _, err = run_main(capsys, *args, "--seed", "3")
        assert code == 2
        assert err == f"error: [Errno 21] Is a directory: '{out_dir / 'rq3.csv'}'\n"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "rq1.csv", "rq2.csv", "rq3.csv", "rq4.csv"]
        assert {name: (out_dir / name).read_bytes() for name in earlier} == earlier

    @pytest.mark.parametrize("flag", ["--static-latency", "--static-cost"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_bad_static_value_rejected_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch, flag, value):
        def no_work(*args, **kwargs):
            raise AssertionError("replicate did work before checking its flags")

        monkeypatch.setattr(emulator, "generate_trace", no_work)
        out_dir = tmp_path / "reports"
        rc = main(["replicate", "--emulate", "--runs", "2", "--out-dir", str(out_dir),
                   f"{flag}={value}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (f"error: {flag} must be finite and >= 0, "
                                f"got {float(value)!r}\n")
        assert not out_dir.exists()

    @settings(max_examples=20)
    @given(st.sampled_from(["spread", "ties", "huge"]), st.integers(-3, 3),
           st.integers(0, 2**32 - 1))
    def test_p99_is_numpy_percentile_bit_for_bit(self, kind, shift, seed):
        # Every size from 1 to 500, so both interpolation branches are taken;
        # values that tie, are negative, or are so large that their
        # differences overflow.
        rng = np.random.default_rng(seed)
        for n in range(1, 501):
            costs = rng.normal(shift, 10.0 ** rng.integers(-3, 4), n)
            if kind == "ties":
                costs = np.round(costs, 1)
            elif kind == "huge":
                costs = np.clip(costs, -17.9, 17.9) * 1e307
            with np.errstate(over="ignore", invalid="ignore"):
                want = float(np.percentile(costs, 99))
                got = cli._percentile_99(costs)
            # Sorting does not order 0.0 and -0.0: a zero may take either sign.
            assert (struct.pack("<d", got) == struct.pack("<d", want)
                    or got == want == 0.0), (n, list(costs))


    def test_zero_static_values_accepted(self, tmp_path):
        result = run_cli("replicate", "--emulate", "--minutes", "120", "--runs", "2",
                         "--static-latency", "0", "--static-cost", "0",
                         "--out-dir", str(tmp_path))
        assert result.returncode == 0, result.stderr


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
        original = regression.predict
        monkeypatch.setattr(regression, "predict",
                            lambda model, x: calls.append(model) or original(model, x))
        code, out, err = run_main(capsys, "monitor", "--spec", str(spec), "--history",
                                  str(history), "--tactics", str(tactics),
                                  "--trace", str(trace))
        assert code == 0 and err == ""
        ticks = [json.loads(line) for line in out.splitlines()]
        assert sum(t["status"] != "healthy" for t in ticks) > 1
        assert len(calls) == 2 * 3

    def test_tactics_of_one_source_share_one_fit(self, tmp_path, capsys, monkeypatch):
        # Three tactics that name no mirror all train on the whole trace.
        # They used to build the dataset three times and fit six models.
        records = generate_trace(1440, 4)
        trace = tmp_path / "trace.csv"
        write_trace_csv(records, trace)
        entries = [{"name": f"t{i}", "static_latency": 1.0 + i, "static_cost": 10.0 * i}
                   for i in range(3)]
        tactics = tmp_path / "tactics.json"
        tactics.write_text(json.dumps(entries))
        spec, history = write_ramp_fixture(tmp_path, start=0.60, step=0.004, n=80)
        X, latency, cost = emulator.to_regression_dataset(records)
        estimates = price_tactics({
            entry["name"]: workflow.TacticModels(regression.fit_mra(X, latency),
                                                 regression.fit_mra(X, cost), X.rows[-1])
            for entry in entries})
        want, _ = reference_monitor(cli._load_specs(str(spec)), cli._load_history(str(history)),
                                    60, 5, 0.10, 6.0, 0, estimates)
        calls = []
        for module, name in ((emulator, "to_regression_dataset"), (regression, "fit_mra")):
            def spy(*args, name=name, original=getattr(module, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(module, name, spy)
        code, out, err = run_main(capsys, "monitor", "--spec", str(spec), "--history",
                                  str(history), "--tactics", str(tactics),
                                  "--trace", str(trace))
        assert (code, err) == (0, "")
        assert (calls.count("to_regression_dataset"), calls.count("fit_mra")) == (1, 2)
        assert any(json.loads(line)["tactics"] for line in out.splitlines())
        assert out == want

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


@pytest.fixture(scope="module")
def flag_check_dir(tmp_path_factory):
    """Valid input files of every command, and two malformed files."""
    path = tmp_path_factory.mktemp("flag-check")
    write_ramp_fixture(path)  # spec.json and history.csv
    write_trace_csv(generate_trace(30, 4), path / "trace.csv")
    (path / "tactics.json").write_text(json.dumps([{"name": "t", "static_latency": 1.0,
                                                    "static_cost": 1.0}]))
    (path / "bad-malformed").write_text("{bad\n")
    (path / "bad-not UTF-8").write_bytes(b"\xff\n")
    return path


class TestContracts:
    def test_stdout_carries_only_data(self, tmp_path):
        spec, history = write_ramp_fixture(tmp_path, n=70)
        result = run_cli("monitor", "--spec", str(spec), "--history", str(history))
        for line in result.stdout.splitlines():
            json.loads(line)  # every stdout line is data

    @pytest.mark.parametrize("args", [("frobnicate",), ("generate",)])
    def test_usage_errors_exit_2(self, args):
        assert run_cli(*args).returncode == 2

    @pytest.mark.parametrize("command", ["generate", "replicate", "monitor --tactics"])
    def test_command_does_not_import_numpy_ma(self, tmp_path, command):
        # np.percentile and np.unique would import numpy.ma, a start-up cost.
        spec, history = write_ramp_fixture(tmp_path)
        trace, tactics = tmp_path / "trace.csv", tmp_path / "tactics.json"
        write_trace_csv(generate_trace(120, 4), trace)
        tactics.write_text(json.dumps([{"name": "t", "mirror": "ontario",
                                        "static_latency": 3.0, "static_cost": 36.0}]))
        argv = {"generate": ["generate", "--minutes", "360", "--out", str(tmp_path / "g.csv")],
                "replicate": ["replicate", "--emulate", "--runs", "3", "--minutes", "360",
                              "--out-dir", str(tmp_path)],
                "monitor --tactics": ["monitor", "--spec", str(spec), "--history",
                                      str(history), "--tactics", str(tactics),
                                      "--trace", str(trace)]}[command]
        code = ("import sys\n"
                "from proadapt import cli\n"
                "rc = cli.main(sys.argv[1:])\n"
                "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)\n")
        result = subprocess.run([sys.executable, "-c", code, *argv],
                                capture_output=True, text=True)
        assert result.stderr == "0 False\n"

    # Every integer flag below its least value and, for a size, at 2**63:
    # (command, flag, value, the error's text). --horizon 0 used to read
    # "error: horizon must be >= 1", naming no flag.
    INTEGER_FLAG_ERRORS = [
        ("generate", "--minutes", "0", "--minutes must be >= 1, got 0"),
        ("generate", "--minutes", str(2**63), "--minutes must be < 2**63"),
        ("generate", "--seed", "-1", "--seed must be >= 0, got -1"),
        ("replicate", "--minutes", "0", "--minutes must be >= 1, got 0"),
        ("replicate", "--minutes", str(2**63), "--minutes must be < 2**63"),
        ("replicate", "--runs", "0", "--runs must be >= 1, got 0"),
        ("replicate", "--runs", str(2**63), "--runs must be < 2**63"),
        ("replicate", "--seed", "-1", "--seed must be >= 0, got -1"),
        ("monitor", "--window", "0", "--window must be >= 1, got 0"),
        ("monitor", "--window", str(2**63), "--window must be < 2**63"),
        ("monitor", "--refit-every", "-3", "--refit-every must be >= 0, got -3"),
        ("monitor", "--horizon", "0", "--horizon must be >= 1, got 0"),
        ("monitor", "--horizon", "-2", "--horizon must be >= 1, got -2"),
        ("monitor", "--horizon", str(2**63), "--horizon must be < 2**63")]

    @pytest.mark.parametrize("command, flag, value, message", INTEGER_FLAG_ERRORS,
                             ids=[" ".join(row[:3]) for row in INTEGER_FLAG_ERRORS])
    def test_integer_flags_name_the_flag_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                         command, flag, value, message):
        spec, history = write_ramp_fixture(tmp_path)
        trace, tactics = tmp_path / "trace.csv", tmp_path / "tactics.json"
        write_trace_csv(generate_trace(30, 4), trace)
        tactics.write_text(json.dumps([{"name": "t", "static_latency": 1.0,
                                        "static_cost": 1.0}]))
        for module, name in ((emulator, "generate_trace"), (emulator, "ingest_trace_csv"),
                             (arima, "fit_arima_windows"), (regression, "fit_mra"),
                             (workflow, "workflow_block")):
            def no_work(*args, name=name, **kwargs):
                raise AssertionError(f"{name} ran")
            monkeypatch.setattr(module, name, no_work)
        out = tmp_path / "out"
        argv = {"generate": ["--out", str(out)],
                "replicate": ["--emulate", "--out-dir", str(out)],
                "monitor": ["--spec", str(spec), "--history", str(history),
                            "--tactics", str(tactics), "--trace", str(trace)]}[command]
        assert run_main(capsys, command, *argv, flag, value) == (1, "", f"error: {message}\n")
        assert not out.exists()

    # One bad flag of each command: (its argv, the input file it drops,
    # the error's text). --tactics and --trace each need the other.
    BAD_FLAGS = {
        "generate": [(["--minutes", "0"], None, "--minutes must be >= 1, got 0"),
                     (["--seed", "-1"], None, "--seed must be >= 0, got -1")],
        # replicate's input file is --trace, which refuses any --minutes.
        "replicate": [(["--minutes", "1440"], None, "--minutes requires --emulate"),
                      (["--runs", "0"], None, "--runs must be >= 1, got 0"),
                      (["--seed", "-2"], None, "--seed must be >= 0, got -2"),
                      (["--static-latency=nan"], None,
                       "--static-latency must be finite and >= 0, got nan"),
                      (["--static-cost=-1"], None,
                       "--static-cost must be finite and >= 0, got -1.0")],
        "monitor": [(["--window", "0"], None, "--window must be >= 1, got 0"),
                    (["--refit-every", "-1"], None, "--refit-every must be >= 0, got -1"),
                    (["--horizon", str(2**63)], None, "--horizon must be < 2**63"),
                    (["--horizon", str(cli.BLOCK_CELLS + 1)], None,
                     f"--horizon must be <= {cli.BLOCK_CELLS}, got {cli.BLOCK_CELLS + 1}"),
                    (["--risk-margin", "1"], None, "--risk-margin must lie in [0, 1), got 1.0"),
                    (["--risk-margin=-0.5"], None,
                     "--risk-margin must be finite and >= 0, got -0.5"),
                    (["--tick-seconds", "0"], None,
                     "--tick-seconds must be finite and > 0, got 0.0"),
                    ([], "--trace", "--tactics requires --trace for training data"),
                    ([], "--tactics", "--trace requires --tactics")]}
    # Each command's input files, and each file's valid name.
    INPUT_FILES = {"generate": {"--out": "trace.csv"},
                   "replicate": {"--trace": "trace.csv"},
                   "monitor": {"--spec": "spec.json", "--history": "history.csv",
                               "--tactics": "tactics.json", "--trace": "trace.csv"}}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_bad_flag_is_reported_before_any_file_is_opened(self, flag_check_dir, data):
        # One bad flag plus one missing or malformed input file: the
        # flag's error, and no file opened. A missing file would exit 2,
        # and every other file is read under _input_file, which a spy
        # watches; generate's --out lies in a directory that does not exist.
        command = data.draw(st.sampled_from(sorted(self.BAD_FLAGS)), "command")
        flag_argv, dropped, message = data.draw(st.sampled_from(self.BAD_FLAGS[command]),
                                                "flag")
        files = {flag: flag_check_dir / name for flag, name in self.INPUT_FILES[command].items()
                 if flag != dropped}
        bad = data.draw(st.sampled_from(sorted(files)), "bad file")
        fault = data.draw(st.sampled_from(["missing", "malformed", "not UTF-8"]), "fault")
        if command == "generate" or fault == "missing":
            files[bad] = flag_check_dir / "missing" / files[bad].name
        else:
            files[bad] = flag_check_dir / f"bad-{fault}"
        argv = [command, *(arg for flag, path in files.items() for arg in (flag, str(path)))]
        if command == "replicate":
            argv += ["--out-dir", str(flag_check_dir / "missing")]
        opened = []
        real_input_file = cli._input_file

        def input_file(what):
            opened.append(what)
            return real_input_file(what)

        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "_input_file", input_file), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + flag_argv)
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")
        assert opened == []
        assert not (flag_check_dir / "missing").exists()

    # Each defect of a tactics file entry that test_tactics_file_messages
    # covers, plus a repeated name: (the entry's JSON text, its error's
    # text). Entry names "t0", "t1", ... are the valid entries'.
    TACTIC_DEFECTS = [
        ('{"name": "", "static_latency": 1.0, "static_cost": 1.0}',
         "tactic name must be non-empty"),
        ('{"name": "", "static_latency": 1.0, "static_cost": 1' + 400 * "0" + "}",
         "int too large to convert to float"),
        ('{"name": "", "static_latency": NaN, "static_cost": 1.0}',
         "tactic name must be non-empty"),
        ('{"name": "x", "static_latency": NaN, "static_cost": 1.0}',
         "static_latency must be finite and >= 0, got nan"),
        ('{"name": "x", "static_latency": 1.0, "static_cost": NaN}',
         "static_cost must be finite and >= 0, got nan"),
        ('{"name": "x", "static_latency": 1.0, "static_cost": 1e400}',
         "static_cost must be finite and >= 0, got inf"),
        ('{"name": "x", "static_latency": -1, "static_cost": 1.0}',
         "static_latency must be finite and >= 0, got -1.0"),
        ('{"name": "t0", "static_latency": 1.0, "static_cost": -0.5}',
         "static_cost must be finite and >= 0, got -0.5"),
        ('{"name": "t0", "static_latency": 1.0, "static_cost": 1.0}', "duplicate name 't0'"),
        ('{"name": "x", "static_latency": 1.0, "static_cost": 1.0, "mirror": "mars"}',
         "unknown mirror 'mars'")]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_bad_tactic_is_reported_before_the_trace_is_read(self, flag_check_dir, data):
        # One defective entry among valid ones, beside a valid, malformed
        # or missing trace: the entry's error, and the trace never read, no
        # dataset built and no model fitted.
        text, message = data.draw(st.sampled_from(self.TACTIC_DEFECTS), "defect")
        position = data.draw(st.integers(int("duplicate" in message), 3), "position")
        mirrors = data.draw(st.lists(st.sampled_from([None, *(m.value for m in Mirror)]),
                                     min_size=position, max_size=position + 3), "mirrors")
        valid = [json.dumps({"name": f"t{i}", "static_latency": 1.0, "static_cost": 1.0,
                             **({"mirror": mirror} if mirror else {})})
                 for i, mirror in enumerate(mirrors)]
        tactics = flag_check_dir / "defective.json"
        tactics.write_text("[" + ", ".join(valid[:position] + [text] + valid[position:]) + "]")
        trace = flag_check_dir / data.draw(st.sampled_from(
            ["trace.csv", "bad-malformed", "bad-not UTF-8", "missing/trace.csv"]), "trace")
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def called(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return mock.patch.object(module, name, called)

        out, err = io.StringIO(), io.StringIO()
        with spy(emulator, "ingest_trace_csv"), spy(emulator, "to_regression_dataset"), \
                spy(regression, "fit_mra"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["monitor", "--spec", str(flag_check_dir / "spec.json"), "--history",
                         str(flag_check_dir / "history.csv"), "--tactics", str(tactics),
                         "--trace", str(trace)])
        assert (code, out.getvalue(), err.getvalue()) == (
            1, "", f"error: tactics file entry {position}: {message}\n")
        assert calls == []

    @pytest.mark.parametrize("argv, flag", [
        (["generate", "--minutes", "100000000", "--out"], "--minutes 100000000"),
        (["replicate", "--emulate", "--minutes", "60", "--runs", "1000000000", "--out-dir"],
         "--runs 1000000000")],
        ids=["generate", "replicate"])
    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, argv, flag):
        # Sizes of gigabytes, asked for only under the child's lowered
        # limit. The line names the flag that sized the failed stage.
        result = run_limited("-m", "proadapt.cli", *argv, str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: out of memory: {flag}: ")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("mode", ["w", "a"])
    @pytest.mark.parametrize("limit", [1_000, 10_000, 50_001, 123_457])
    def test_a_failed_write_leaves_stdout_in_whole_lines(self, tmp_path, limit, mode):
        # About 390 kB of lines into a file the child may not grow past
        # ``limit``: the write fails part way through a line, and the file
        # is cut back to the last whole block of ticks. A file opened to
        # append keeps its earlier line.
        spec, history = write_ramp_fixture(tmp_path, n=3000)
        earlier = '{"earlier": true}\n' if mode == "a" else ""
        (tmp_path / "stdout.txt").write_text(earlier, encoding="utf-8")
        with open(tmp_path / "stdout.txt", mode) as stdout:
            result = run_limited("-m", "proadapt.cli", "monitor", "--spec", str(spec),
                                 "--history", str(history), file_size=limit, stdout=stdout)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        text = (tmp_path / "stdout.txt").read_text(encoding="utf-8")
        assert text.startswith(earlier)
        assert text == "" or text.endswith("\n")
        for line in text.splitlines():
            json.loads(line)


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
        estimates = (price_tactics(cli._load_tactic_context(*tactics_args))
                     if tactics_args else ())
        ticks = len(values) - self.WINDOW + 1
        lines, models = {}, {}
        for tick in range(ticks):
            series = TimeSeries(values[tick:tick + self.WINDOW])
            if tick == 0 or (refit_every > 0 and tick % refit_every == 0):
                models = {s.name: fit_arima(series) for s in specs}
            for spec in specs:
                lines[(tick, spec.name)], = reference_tick(
                    [spec], series, estimates, self.HORIZON, 0.10, 6.0, models[spec.name])
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
        moved = ArimaModel(last_good.phi, last_good.c, values[first + 58:first + 60],
                           last_good.residual_variance)
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

    def test_refit_every_beyond_the_run_fits_once(self, tmp_path, capsys):
        # 341 ticks span two blocks; a K past the last tick, even one too
        # large for an array index, refits nowhere after tick 0.
        values = random_walk(400, 4)
        spec, history = write_monitor_inputs(tmp_path, values, quantile_specs(values))
        runs = [run_main(capsys, "monitor", "--spec", spec, "--history", history,
                         "--refit-every", every) for every in ("0", "341", str(10**30))]
        assert runs[0][0] == 0 and len(runs[0][1].splitlines()) == 3 * 341
        assert runs[1] == runs[0] and runs[2] == runs[0]


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

    @pytest.mark.parametrize("horizon", [cli.BLOCK_CELLS + 1, 10**9])
    def test_horizon_over_block_cells_rejected_before_any_fit(self, tmp_path, capsys,
                                                              monkeypatch, horizon):
        # A block of one tick holds horizon forecast values, so a longer
        # horizon cannot fit in BLOCK_CELLS: it is rejected up front, not
        # forecast.
        calls = []
        for module, name in ((arima, "fit_arima_windows"), (regression, "fit_mra"),
                             (workflow, "workflow_block")):
            def spy(*args, name=name, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran")
            monkeypatch.setattr(module, name, spy)
        spec, history = write_ramp_fixture(tmp_path, n=200)
        trace = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(30, 4), trace)
        tactics = tmp_path / "tactics.json"
        tactics.write_text(json.dumps([{"name": "t", "static_latency": 1.0,
                                        "static_cost": 1.0}]))
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--horizon", str(horizon),
                                    "--tactics", str(tactics), "--trace", str(trace))
        assert err == f"error: --horizon must be <= {cli.BLOCK_CELLS}, got {horizon}\n"
        assert calls == []

    @pytest.mark.parametrize("flag, message", [
        ("--tactics", "--tactics requires --trace for training data"),
        ("--trace", "--trace requires --tactics")])
    @pytest.mark.parametrize("path", ["file", ""])
    def test_tactics_and_trace_need_each_other(self, tmp_path, capsys, flag, message, path):
        # Checked with the flags, before any file is opened: no file exists.
        # An empty path is a path too; it used to pass for an absent flag.
        missing = [str(tmp_path / name) for name in ("spec.json", "history.csv")]
        assert run_main(capsys, "monitor", "--spec", missing[0], "--history", missing[1],
                        flag, str(tmp_path / path) if path else "") == (
            1, "", f"error: {message}\n")

    @pytest.mark.parametrize("args", [
        pytest.param(("replicate", "--trace", ""), id="replicate-trace"),
        pytest.param(("monitor", "--spec", ""), id="spec"),
        pytest.param(("monitor", "--history", ""), id="history"),
        pytest.param(("monitor", "--tactics", "", "--trace", ""), id="tactics-and-trace")])
    def test_an_empty_path_is_a_missing_file(self, tmp_path, capsys, args):
        # It used to be read as an absent flag: replicate emulated a trace,
        # monitor ran without tactics, and --spec "" read the directory '.'.
        spec, history = write_ramp_fixture(tmp_path)
        reports = tmp_path / "reports"
        command, *argv = args
        defaults = {"replicate": {"--runs": "2", "--out-dir": str(reports)},
                    "monitor": {"--spec": str(spec), "--history": str(history)}}[command]
        for flag, value in defaults.items():
            if flag not in argv:
                argv += [flag, value]
        assert run_main(capsys, command, *argv) == (
            2, "", "error: [Errno 2] No such file or directory: ''\n")
        assert not reports.exists()

    def test_empty_spec_list_rejected(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text("[]")
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history))
        assert err == "error: spec file holds no specs\n"

    def test_empty_tactics_list_rejected(self, tmp_path, capsys):
        # Refused before the trace, which does not exist, is opened.
        spec, history = write_ramp_fixture(tmp_path)
        tactics = tmp_path / "tactics.json"
        tactics.write_text("[]")
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--tactics", str(tactics),
                                    "--trace", str(tmp_path / "missing.csv"))
        assert err == "error: tactics file holds no tactics\n"

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
        assert err == f"error: --tick-seconds must be finite and > 0, got {float(value)!r}\n"

    @pytest.mark.parametrize("value, message", [
        ("nan", "must be finite and >= 0, got nan"), ("-inf", "must be finite and >= 0, got -inf"),
        ("-0.1", "must be finite and >= 0, got -0.1"), ("1", "must lie in [0, 1), got 1.0"),
        ("inf", "must be finite and >= 0, got inf")])
    def test_risk_margin_errors_name_the_flag(self, tmp_path, capsys, value, message):
        # Both flags' errors used to name the argument, not the flag.
        spec, history = write_ramp_fixture(tmp_path)
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), f"--risk-margin={value}")
        assert err == f"error: --risk-margin {message}\n"

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

    @pytest.mark.parametrize("fields, field, got", [
        ('"threshold": "1e3"', "threshold", '"1e3"'),
        ('"threshold": 0.7, "penalty": "3"', "penalty", '"3"'),
        ('"threshold": null', "threshold", "null"),
        ('"threshold": 0.7, "reward": [1]', "reward", "[1]"),
        ('"threshold": 0.7, "penalty": {"a": 1}', "penalty", '{"a": 1}')])
    def test_spec_numbers_must_be_json_numbers(self, tmp_path, capsys, fields, field, got):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text('{"name": "x", ' + fields + '}')
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert err == f"error: spec file entry 0: field '{field}' must be a number, got {got}\n"

    @pytest.mark.parametrize("field, got", [
        ('"static_latency": "2.5"', '"2.5"'), ('"static_latency": null', "null"),
        ('"static_latency": []', "[]"), ('"static_latency": {}', "{}")])
    def test_tactic_numbers_must_be_json_numbers(self, tmp_path, capsys, field, got):
        err = self.run_tactics(tmp_path, capsys,
                               '[{"name": "t", "static_cost": 1.0, ' + field + '}]')
        assert err == ("error: tactics file entry 0: field 'static_latency' must be a "
                       f"number, got {got}\n")

    def test_duplicate_spec_names_rejected(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        spec.write_text(json.dumps([{"name": "x", "threshold": 1.0},
                                    {"name": "x", "threshold": 2.0}]))
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert "duplicate" in err

    def test_duplicate_spec_names_are_found_in_linear_time(self, tmp_path):
        # Each spec used to be compared with every earlier one: 20,000 took about 11 s.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"name": f"s{i}", "threshold": 1.0} for i in range(20_000)]
                                   + [{"name": "s0", "threshold": 1.0}]))
        start = time.perf_counter()
        with pytest.raises(ValueError) as raised:
            cli._load_specs(str(spec))
        assert time.perf_counter() - start < 3
        assert str(raised.value) == "spec file entry 20000: duplicate name 's0'"

    @pytest.mark.parametrize("field", [
        '"static_latency": true', '"static_latency": null', '"static_latency": []',
        '"static_latency": NaN', '"static_latency": 1e400', '"static_latency": 1' + 400 * '0',
        '"static_latency": -1'])
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
        records = generate_trace(120, 4)
        write_trace_csv(replace(records, energy_joules=np.where(
            records.phase_is(Phase.DOWNLOAD),
            energy * (1.0 - 0.001 * (np.arange(len(records)) % 7)), records.energy_joules)),
            trace)
        tactics = tmp_path / "tactics.json"
        tactics.write_text(json.dumps([{"name": "t", "static_latency": 3.0,
                                        "static_cost": 36.0}]))
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--tactics", str(tactics),
                                    "--trace", str(trace))
        assert err.startswith("error: tactics file entry 0: least-squares fit overflows")

    @pytest.mark.parametrize("entries, message", [
        ('{"name": "", "static_latency": 1.0, "static_cost": 1.0}',
         "entry 0: tactic name must be non-empty"),
        # Both static values are read as floats before the name is checked.
        ('{"name": "", "static_latency": 1.0, "static_cost": 1' + 400 * "0" + "}",
         "entry 0: int too large to convert to float"),
        ('{"name": "", "static_latency": NaN, "static_cost": 1.0}',
         "entry 0: tactic name must be non-empty"),
        ('{"name": "t", "static_latency": NaN, "static_cost": 1.0}',
         "entry 0: static_latency must be finite and >= 0, got nan"),
        ('{"name": "t", "static_latency": 1.0, "static_cost": NaN}',
         "entry 0: static_cost must be finite and >= 0, got nan"),
        ('{"name": "t", "static_latency": 1.0, "static_cost": 1e400}',
         "entry 0: static_cost must be finite and >= 0, got inf"),
        ('{"name": "t", "static_latency": -1, "static_cost": 1.0}',
         "entry 0: static_latency must be finite and >= 0, got -1.0"),
        # The second entry's values are checked before its name is found a duplicate.
        ('{"name": "t", "static_latency": 1.0, "static_cost": 1.0}, '
         '{"name": "t", "static_latency": 1.0, "static_cost": -0.5}',
         "entry 1: static_cost must be finite and >= 0, got -0.5"),
        ('{"name": "t", "static_latency": 1.0, "static_cost": 1.0, "mirror": "mars"}',
         "entry 0: unknown mirror 'mars'")])
    def test_tactics_file_messages(self, tmp_path, capsys, entries, message):
        err = self.run_tactics(tmp_path, capsys, f"[{entries}]")
        assert err == f"error: tactics file {message}\n"

    def test_zero_static_values_accepted(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        trace = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(30, 4), trace)
        tactics = tmp_path / "tactics.json"
        tactics.write_text('[{"name": "t", "static_latency": 0, "static_cost": 0.0}]')
        code, out, err = run_main(capsys, "monitor", "--spec", str(spec), "--history",
                                  str(history), "--tactics", str(tactics), "--trace", str(trace))
        assert code == 0 and err == "" and out

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
        assert len(err.splitlines()) == 1 and err.startswith("error: trace file: line 122: ")

    # Each input file's errors name the file: text that is not JSON, and
    # bytes that are not UTF-8.
    @pytest.mark.parametrize("content, message", [
        (b"{bad", "Expecting property name enclosed in double quotes: line 1 column 2 "
                  "(char 1)"),
        (b'[{"name": "\xff"}]', "'utf-8' codec can't decode byte 0xff in position 11: "
                               "invalid start byte")])
    @pytest.mark.parametrize("which", ["spec", "tactics"])
    def test_json_file_errors_name_the_file(self, tmp_path, capsys, which, content, message):
        spec, history = write_ramp_fixture(tmp_path)
        trace, tactics = tmp_path / "trace.csv", tmp_path / "tactics.json"
        write_trace_csv(generate_trace(30, 4), trace)
        tactics.write_text("[]")
        (spec if which == "spec" else tactics).write_bytes(content)
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--tactics", str(tactics),
                                    "--trace", str(trace))
        assert err == f"error: {which} file: {message}\n"

    def test_history_errors_name_the_file(self, tmp_path, capsys):
        spec, history = write_ramp_fixture(tmp_path)
        history.write_bytes(b"value\n0.5\n\xff\n")
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert err == ("error: history file: 'utf-8' codec can't decode byte 0xff in "
                       "position 10: invalid start byte\n")

    @pytest.mark.parametrize("tail, message", [
        (b"1,2,3\n", "line 122: expected 5 fields, got 3"),
        (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position ")])
    def test_trace_errors_name_the_file(self, tmp_path, capsys, tail, message):
        spec, history = write_ramp_fixture(tmp_path)
        trace, tactics = tmp_path / "trace.csv", tmp_path / "tactics.json"
        write_trace_csv(generate_trace(30, 4), trace)
        trace.write_bytes(trace.read_bytes() + tail)
        tactics.write_text(json.dumps([{"name": "t", "static_latency": 1.0,
                                        "static_cost": 1.0}]))
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec), "--history",
                                    str(history), "--tactics", str(tactics),
                                    "--trace", str(trace))
        assert err.startswith(f"error: trace file: {message}")
        code, out, replicate_err = run_main(capsys, "replicate", "--trace", str(trace),
                                            "--out-dir", str(tmp_path))
        assert code == 1 and replicate_err == err

    def test_trace_content_errors_name_the_file(self, tmp_path, capsys):
        # They used to print the dataset's message alone, such as "error:
        # need at least 8 download records, got 3", naming neither the file
        # nor the tactic whose mirror the trace lacks.
        records = generate_trace(240, 4)
        download = records.phase_is(Phase.DOWNLOAD)
        ontario = download & records.mirror_is(Mirror.ONTARIO)
        cases = [  # (records, first tactic's mirror or None, the message)
            (generate_trace(1, 3), None, "need at least 8 download records, got 3"),
            (generate_trace(1, 3), "germany",
             "tactics file entry 0 (mirror 'germany'): need at least 8 download records, "
             "got 1"),
            (records.select(~ontario | (np.cumsum(ontario) <= 2)), "germany",
             "tactics file entry 1 (mirror 'ontario'): need at least 8 download records, "
             "got 2"),
            (records.select(download), None, "trace contains no idle records")]
        spec, history = write_ramp_fixture(tmp_path)
        trace, tactics = tmp_path / "trace.csv", tmp_path / "tactics.json"
        for trace_records, mirror, message in cases:
            write_trace_csv(trace_records, trace)
            entries = [{"name": "a", "static_latency": 1.0, "static_cost": 1.0},
                       {"name": "b", "mirror": "ontario", "static_latency": 1.0,
                        "static_cost": 1.0}]
            if mirror:
                entries[0]["mirror"] = mirror
            tactics.write_text(json.dumps(entries))
            if "tactics file" not in message:
                code, out, err = run_main(capsys, "replicate", "--trace", str(trace),
                                          "--runs", "3", "--out-dir", str(tmp_path / "reports"))
                assert (code, err) == (1, f"error: trace file: {message}\n")
            if "idle" not in message:
                err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                            "--history", str(history), "--tactics",
                                            str(tactics), "--trace", str(trace))
                assert err == f"error: trace file: {message}\n"
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("name", ["null", "7", "[1, 2]", '{"x": 1}'])
    @pytest.mark.parametrize("which", ["spec", "tactics"])
    def test_name_must_be_a_string(self, tmp_path, capsys, which, name):
        if which == "tactics":
            err = self.run_tactics(tmp_path, capsys, '[{"name": ' + name
                                   + ', "static_latency": 1.0, "static_cost": 1.0}]')
        else:
            spec, history = write_ramp_fixture(tmp_path)
            spec.write_text('[{"name": ' + name + ', "threshold": 0.7}]')
            err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                        "--history", str(history))
        assert err == (f"error: {which} file entry 0: field 'name' must be a string, "
                       f"got {name}\n")

    @pytest.mark.parametrize("row", ["0.5,50.0", "0.5,", ",0.5", '"0.5",""'])
    def test_history_row_with_more_than_one_field_rejected(self, tmp_path, capsys, row):
        spec, history = write_ramp_fixture(tmp_path)
        lines = history.read_text().splitlines()
        lines[3] = row
        history.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")  # a blank row
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert err == "error: history file line 5: expected one value, got 2 fields\n"

    @pytest.mark.parametrize("row", ["abc", "0x1p3", "1,5"])
    def test_history_value_that_is_not_a_number_names_its_line(self, tmp_path, capsys, row):
        # It used to read "error: history file: could not convert ...", naming no line.
        spec, history = write_ramp_fixture(tmp_path)
        lines = history.read_text().splitlines()
        lines[3] = f'"{row}"'
        history.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")  # a blank row
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert err == (f"error: history file line 5: could not convert string to float: "
                       f"{row!r}\n")

    @pytest.mark.parametrize("row", ["nan", "inf", "-Infinity", "1e999"])
    def test_history_value_that_is_not_finite_names_its_line(self, tmp_path, capsys, row):
        # It used to read "error: values contains NaN or infinite entries",
        # naming neither the file nor the line.
        spec, history = write_ramp_fixture(tmp_path)
        lines = history.read_text().splitlines()
        lines[3] = row
        history.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")  # a blank row
        err = self.assert_one_error(capsys, "monitor", "--spec", str(spec),
                                    "--history", str(history))
        assert err == (f"error: history file line 5: value must be finite, "
                       f"got {float(row)!r}\n")


breaks = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_with_breaks(draw, header, rows, bad, padded):
    """``header``, ``rows`` (lists of cells) and the row text ``bad``, each
    line ended by a drawn line break, with blank lines drawn between rows.
    Each cell at an index in ``padded`` may be quoted around line breaks
    (``float`` strips them)."""
    lines = [header]
    for row in rows:
        if draw(st.booleans()):
            lines.append("")
        cells = []
        for j, cell in enumerate(row):
            if j in padded and draw(st.booleans()):
                before = "".join(draw(st.lists(breaks, max_size=2)))
                after = "".join(draw(st.lists(breaks, max_size=2)))
                cell = f'"{before}{cell}{after}"'
            cells.append(cell)
        lines.append(",".join(cells))
    lines.append(bad)
    return "".join(line + draw(breaks) for line in lines)


def trace_with_breaks(n):
    return csv_with_breaks(emulator.TRACE_HEADER,
                           [[f"{k + 1}.0", "germany", "download", "1.0", "1.0"]
                            for k in range(n)],
                           f"{n + 1}.0,germany,download,-1.0,1.0", (0, 3, 4))


def history_with_breaks(n):
    return st.sampled_from(["abc", "1.0,2.0"]).flatmap(
        lambda bad: csv_with_breaks("value", [[f"{k}.5"] for k in range(n)], bad, (0,)))


def last_record(path):
    """The file's last record and the line it starts on, by a separate
    ``csv.reader`` pass: one past the reader's ``line_num`` after the
    record before."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        start, last = 1, None
        for row in reader:
            if row:
                last = start, row
            start = reader.line_num + 1
    return last


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(trace_with_breaks))
@example('timestamp,mirror,phase,latency_seconds,energy_joules\n"1.0\n",germany,download,1.0,'
         '1.0\n2.0,germany,download,-1.0,1.0\n')
def test_trace_errors_name_the_physical_line(tmp_path_factory, text):
    # Records used to be counted, so a quoted field over two lines moved
    # every later error one line up.
    path = tmp_path_factory.getbasetemp() / "trace_breaks.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(emulator.TraceFormatError) as raised:
        emulator.ingest_trace_csv(path)
    line, _ = last_record(path)
    assert str(raised.value) == f"line {line}: latency_seconds must be finite and >= 0"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(history_with_breaks))
@example('value\n"1.0\n"\n2.0\nabc\n')
def test_history_errors_name_the_physical_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "history_breaks.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError) as raised:
        cli._load_history(str(path))
    line, row = last_record(path)
    error = (f"expected one value, got {len(row)} fields" if len(row) > 1
             else f"could not convert string to float: {row[0]!r}")
    assert str(raised.value) == f"history file line {line}: {error}"
