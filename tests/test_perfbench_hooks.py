"""The hooks perfbench's traced mode needs from ``proadapt``.

perfbench (outside ``src``) installs its span tracer on the package,
rebinds ``cli``'s two replicate harness functions to timing wrappers and
counts failed reports, clamped predictions and ridge fallbacks from
results. This runs the same installation on a small ``replicate`` and a
small ``monitor`` in a child process, so that a change to ``src`` that
breaks a hook fails here: ``cli.__getattr__``, ``Reports.__iter__`` with
``Cell.error``, ``Prediction.raw`` and ``RegressionModel.ridge_lambda``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from proadapt import generate_trace, write_trace_csv

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import proadapt
from proadapt import cli
from runner import record_calls
from tracer import Tracer

tracer = Tracer()
tracer.install(proadapt)
calls = {"run_forecast_experiments": [], "run_predictor_experiments": []}
for name, recorded in calls.items():
    record_calls(cli, name, recorded)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[3])]
spans = tracer.arrays()
print(json.dumps({"codes": codes, "calls": {k: len(v) for k, v in calls.items()},
                  "spans": sorted({spans["span_names"][i] for i in spans["span_name_ids"]}),
                  "counters": sorted(spans["counters"])}))
"""


def test_traced_runs_record_harness_calls_spans_and_counters(tmp_path):
    values = [0.5 + 0.01 * (i % 7) + 0.002 * i for i in range(200)]
    (tmp_path / "history.csv").write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    (tmp_path / "specs.json").write_text(json.dumps([{"name": "hot", "threshold": 0.8}]))
    (tmp_path / "tactics.json").write_text(json.dumps([
        {"name": "mirror_g", "mirror": "germany", "static_latency": 2.5,
         "static_cost": 30.0}]))
    write_trace_csv(generate_trace(240, 3), tmp_path / "trace.csv")
    runs = [["replicate", "--emulate", "--minutes", "240", "--runs", "3",
             "--out-dir", str(tmp_path)],
            ["monitor", "--spec", str(tmp_path / "specs.json"), "--history",
             str(tmp_path / "history.csv"), "--refit-every", "1", "--tactics",
             str(tmp_path / "tactics.json"), "--trace", str(tmp_path / "trace.csv")]]
    result = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src"),
         json.dumps(runs)], capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    assert got["codes"] == [0, 0]
    assert got["calls"] == {"run_forecast_experiments": 1, "run_predictor_experiments": 2}
    assert {"arima.fit_arima_windows", "workflow.workflow_block"} <= set(got["spans"])
    assert {"metrics.failed_reports", "regression.predict.clamped",
            "regression.fit_mra.ridge_fallbacks"} <= set(got["counters"])
