"""Fuzzers for the monitor's input parsers.

Arbitrary JSON goes to ``--spec`` and ``--tactics``, arbitrary CSV text to
``--history`` and ``--trace``. Whatever the input, ``monitor`` either
exits 0 with one strict-JSON object per tick and spec on stdout, or exits
1 or 2 with exactly one ``error:`` line on stderr. An uncaught exception
fails the test with its traceback. Each ``@example`` is an input that once
ended in a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from proadapt import cli
from proadapt.emulator import generate_trace, trace_csv_text

WINDOW = 12  # the shortest window an ARIMA(1, 1, 0) fit accepts, plus one
FUZZ = settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])

SPEC = [{"name": "gold", "threshold": 5.0, "reward": 2.0},
        {"name": "silver", "threshold": 9.0, "direction": "lower", "reward": 1.0}]
TACTICS = [{"name": "mirror_a", "mirror": "germany", "static_latency": 2.5,
            "static_cost": 30.0},
           {"name": "plain", "static_latency": 1.0, "static_cost": 3.0}]
VALID_TRACE = trace_csv_text(generate_trace(30, 5)).splitlines()
TRACE = "\n".join(VALID_TRACE) + "\n"
HISTORY = "value\n" + "".join(f"{5.0 + math.sin(i / 3.0)!r}\n" for i in range(20))

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
huge_ints = st.integers(10**308, 10**400) | st.integers(-10**400, -10**308)
scalars = (st.none() | st.booleans() | st.integers(-10, 10) | huge_ints
           | st.floats() | text)
json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(text, inner, max_size=3), max_leaves=8)


def objects(fields: dict) -> st.SearchStrategy:
    """JSON objects over ``fields`` (name -> plausible values), each field
    present or not, and holding a plausible or an arbitrary value."""
    return st.fixed_dictionaries({}, optional={
        name: plausible | json_values for name, plausible in fields.items()})


numbers = st.floats(-10.0, 10.0) | st.integers(-3, 10) | st.sampled_from(
    [0, 0.0, -0.0, math.inf, -math.inf, math.nan, True, False, "1.5", "x", None, [],
     10**400])
spec_objects = objects({"name": st.sampled_from(["gold", "silver", ""]) | text,
                        "threshold": numbers,
                        "direction": st.sampled_from(["upper", "lower", "both"]),
                        "penalty": numbers, "reward": numbers})
tactic_objects = objects({"name": st.sampled_from(["a", "b", ""]) | text,
                          "mirror": st.sampled_from(["germany", "ontario", "mars"]),
                          "static_latency": numbers, "static_cost": numbers})
spec_documents = st.lists(spec_objects, max_size=4) | spec_objects | json_values
tactic_documents = st.lists(tactic_objects, max_size=3) | tactic_objects | json_values

cells = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
         | st.sampled_from(["", "nan", "-inf", "1e999", "0x10", " 1.5 ", "1_0", '"2.5"',
                            "germany", "ontario", "idle", "download"])
         | text)
history_texts = (st.lists(st.lists(cells, min_size=0, max_size=2).map(",".join),
                          max_size=WINDOW + 8).map(lambda rows: "value\n" + "\n".join(rows))
                 | st.lists(st.floats(-1e308, 1e308).map(repr), max_size=WINDOW + 8)
                 .map(lambda rows: "value\n" + "\n".join(rows))
                 | text)


@st.composite
def trace_texts(draw):
    """A valid trace with some cells, rows or the header replaced."""
    lines = list(draw(st.sampled_from([VALID_TRACE, VALID_TRACE[:40]])))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        if draw(st.booleans()):
            fields[draw(st.integers(0, len(fields) - 1))] = draw(cells)
        else:
            fields = draw(st.lists(cells, max_size=6))
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def strict_json(line: str) -> dict:
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(line, parse_constant=reject)


def monitor(workdir, spec=SPEC, history=HISTORY, tactics=None, trace=None):
    """Write the inputs (JSON documents as JSON, CSV as text) and run monitor."""
    files = {"spec.json": json.dumps(spec), "history.csv": history}
    argv = ["monitor", "--spec", str(workdir / "spec.json"),
            "--history", str(workdir / "history.csv"), "--window", str(WINDOW)]
    if tactics is not None:
        files["tactics.json"], files["trace.csv"] = json.dumps(tactics), trace
        argv += ["--tactics", str(workdir / "tactics.json"),
                 "--trace", str(workdir / "trace.csv")]
    for name, content in files.items():
        (workdir / name).write_text(content, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_clean(rc, out, err):
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if rc == 0:
        assert not errors
        for line in out.splitlines():
            record = strict_json(line)
            assert isinstance(record["tick"], int) and isinstance(record["name"], str)
    else:
        assert rc in (1, 2)
        assert len(errors) == 1, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_valid_inputs_run(workdir):
    rc, out, err = monitor(workdir, tactics=TACTICS, trace=TRACE)
    assert rc == 0, err
    assert len(out.splitlines()) == 2 * (20 - WINDOW + 1)
    assert_clean(rc, out, err)


@FUZZ
@given(spec_documents)
@example([{"name": "gold", "threshold": 1.0, "reward": 10**400}])
def test_spec_file(workdir, spec):
    assert_clean(*monitor(workdir, spec=spec))


@FUZZ
@given(tactic_documents)
@example([{"name": "a", "static_latency": None, "static_cost": 1.0}])
@example([{"name": "a", "static_latency": [], "static_cost": 10**400}])
def test_tactics_file(workdir, tactics):
    assert_clean(*monitor(workdir, tactics=tactics, trace=TRACE))


@FUZZ
@given(history_texts)
@example("value\n" + "1" * 200_000)
@example("value\n" + "".join(f"{1.6e308 + 1e306 * i!r}\n" for i in range(20)))
def test_history_file(workdir, history):
    assert_clean(*monitor(workdir, history=history))


@FUZZ
@given(trace_texts())
@example("\n".join(VALID_TRACE[:5] + ["2" * 200_000]))
def test_trace_file(workdir, trace):
    assert_clean(*monitor(workdir, tactics=TACTICS, trace=trace))


static_values = st.floats(0.0, 1e4) | st.sampled_from(
    [0.0, -0.0, -1.0, -1e-300, 1e308, math.inf, -math.inf, math.nan])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 6), st.integers(30, 300), static_values, static_values)
def test_replicate_flags(workdir, runs, minutes, static_latency, static_cost):
    """``replicate`` under drawn flags exits 0, 1 or 2 without a traceback,
    and with one ``error:`` line (``warning:`` lines allowed) unless 0."""
    argv = ["replicate", "--emulate", "--runs", str(runs), "--minutes", str(minutes),
            "--out-dir", str(workdir / "reports"), f"--static-latency={static_latency!r}",
            f"--static-cost={static_cost!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert all(line.startswith(("error:", "warning:")) for line in lines), lines
    errors = [line for line in lines if line.startswith("error:")]
    assert rc in (0, 1, 2)
    assert len(errors) == (rc != 0), lines



# Each monitor flag's small in-range values, and the invalid values one of
# them may take instead.
MONITOR_FLAGS = {"window": st.integers(1, 14), "horizon": st.integers(1, 6),
                 "risk-margin": st.sampled_from([0.0, 0.1, 0.5, 0.99]),
                 "tick-seconds": st.sampled_from([0.5, 6.0]),
                 "refit-every": st.integers(0, 6)}
INVALID_FLAG_VALUES = ["0", "-1", "nan", "inf", str(cli.BLOCK_CELLS + 1)]
history_values = st.floats(-10.0, 10.0) | st.sampled_from([1.6e308, -1.7e308])
LINE_KEYS = (["tick", "name", "status", "first_violation_step", "forecast", "tactics"],
             ["tick", "name", "error"])
# An error line of the CLI, or argparse's for a flag that does not parse.
ERROR_LINE = re.compile(r"(proadapt monitor: )?error: ")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flags=st.fixed_dictionaries(MONITOR_FLAGS),
       invalid=st.sampled_from([None] * len(MONITOR_FLAGS) + list(MONITOR_FLAGS)),
       invalid_value=st.sampled_from(INVALID_FLAG_VALUES),
       values=st.integers(0, 30).flatmap(
           lambda n: st.lists(history_values, min_size=n, max_size=n)),
       spec=st.lists(st.fixed_dictionaries({
           "threshold": st.floats(-10.0, 10.0),
           "direction": st.sampled_from(["upper", "lower"])}), min_size=1, max_size=3)
       .map(lambda entries: [{"name": f"spec {i}", **e} for i, e in enumerate(entries)]),
       tactics=st.booleans())
def test_monitor_flags(workdir, flags, invalid, invalid_value, values, spec, tactics):
    """``monitor`` under drawn flags, at most one of them invalid, and small
    files exits 0, 1 or 2 without a traceback; unless 0, with one
    ``error:`` line (``warning:`` lines allowed). Its stdout ends at a line
    boundary, each line a JSON object with the documented keys."""
    if invalid is not None:
        flags[invalid] = invalid_value
    history = "value\n" + "".join(f"{v!r}\n" for v in values)
    files = {"spec.json": json.dumps(spec), "history.csv": history,
             "tactics.json": json.dumps(TACTICS), "trace.csv": TRACE}
    for name, content in files.items():
        (workdir / name).write_text(content, encoding="utf-8")
    argv = ["monitor", "--spec", str(workdir / "spec.json"),
            "--history", str(workdir / "history.csv")]
    argv += [f"--{flag}={value}" for flag, value in flags.items()]
    if tactics:
        argv += ["--tactics", str(workdir / "tactics.json"),
                 "--trace", str(workdir / "trace.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag that does not parse
            rc = exc.code
    out, lines = out.getvalue(), err.getvalue().splitlines()
    errors = [line for line in lines if ERROR_LINE.match(line)]
    assert rc in (0, 1, 2)
    assert len(errors) == (rc != 0), lines
    assert all(line.startswith(("warning:", "usage:", " ")) for line in lines
               if line not in errors), lines
    assert out.endswith("\n") or out == ""
    for line in out.splitlines():
        assert list(strict_json(line)) in LINE_KEYS
