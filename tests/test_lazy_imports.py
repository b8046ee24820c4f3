"""Each command loads only the modules it runs, and the package's lazy
re-exports are the objects their modules define.

The module sets are read in fresh interpreters, since this process has
long since loaded every module.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import proadapt
from proadapt import cli, metrics

# Every name proadapt re-exports, by the module that defines it.
REEXPORTS = {
    "arima": ["ArimaModel", "FitError", "ResidualDiagnostics", "acf", "check_residuals",
              "difference", "fit_arima", "fit_arima_windows", "forecast", "pacf"],
    "emulator": ["Mirror", "Phase", "SAMPLE_TACTIC_A", "SAMPLE_TACTIC_B", "TraceFormatError",
                 "Trace", "generate_trace", "ingest_trace_csv",
                 "run_cost_impact_simulation", "to_idle_series", "to_regression_dataset",
                 "write_trace_csv"],
    "metrics": ["Reports", "Summary", "rmse", "run_forecast_experiments",
                "run_predictor_experiments", "summarize"],
    "regression": ["DesignMatrix", "RegressionModel", "ResponseVector", "fit_mra"],
    "types": ["Direction", "SlaSpec", "TimeSeries", "UtilityParams", "order_specs_by_reward"],
    "workflow": ["SpecStatus", "TacticEstimate", "TacticModels", "price_tactics",
                 "rank_tactics"],
}
HARNESS = ("run_forecast_experiments", "run_predictor_experiments")


def module_snapshots(code: str, *args: str) -> dict[str, set[str]]:
    """Run ``code`` in a fresh interpreter with ``args`` as ``sys.argv[1:]``.
    ``code`` may call ``snapshot(label)``; return the proadapt submodules
    loaded at each snapshot and, under ``"end"``, once ``code`` has run."""
    script = ("import json, sys\n"
              "SNAPSHOTS = {}\n"
              "def snapshot(label):\n"
              "    SNAPSHOTS[label] = [m for m in sys.modules if m.startswith('proadapt.')]\n"
              f"{code}\n"
              "snapshot('end')\n"
              "print(json.dumps(SNAPSHOTS), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return {label: set(modules)
            for label, modules in json.loads(result.stderr.splitlines()[-1]).items()}


def test_importing_the_package_loads_no_submodule():
    assert module_snapshots("import proadapt")["end"] == set()


def test_monitor_without_tactics_loads_only_the_loop(tmp_path):
    spec, history = tmp_path / "spec.json", tmp_path / "history.csv"
    spec.write_text(json.dumps({"name": "latency", "threshold": 0.7}))
    history.write_text("value\n" + "".join(f"{0.3 + 0.004 * i:.6f}\n" for i in range(80)))
    loaded = module_snapshots(
        "import proadapt\n"
        "from proadapt import cli\n"
        "assert cli.main(['monitor', '--spec', sys.argv[1], '--history', sys.argv[2],"
        " '--refit-every', '5']) == 0\n", str(spec), str(history))["end"]
    # Not emulator, metrics nor regression.
    assert loaded == {"proadapt.types", "proadapt.arima", "proadapt.workflow", "proadapt.cli"}


def test_generate_loads_the_emulator_and_no_harness(tmp_path):
    loaded = module_snapshots(
        "from proadapt import cli\n"
        "assert cli.main(['generate', '--minutes', '30', '--out', sys.argv[1]]) == 0\n",
        str(tmp_path / "trace.csv"))["end"]
    # Not arima, workflow nor metrics.
    assert loaded == {"proadapt.types", "proadapt.emulator", "proadapt.regression",
                      "proadapt.cli"}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in REEXPORTS.items()
                                          for name in names])
def test_each_reexport_is_its_modules_object(module, name):
    namespace = {}
    exec(f"from proadapt import {name}", namespace)
    assert namespace[name] is getattr(sys.modules[f"proadapt.{module}"], name)
    assert getattr(proadapt, name) is namespace[name]


def test_star_import_binds_exactly_all():
    assert sorted(proadapt.__all__) == sorted(name for names in REEXPORTS.values()
                                              for name in names)
    namespace = {}
    exec("from proadapt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(proadapt.__all__)


def test_unknown_names_are_not_attributes():
    with pytest.raises(AttributeError, match="no_such_name"):
        proadapt.no_such_name
    with pytest.raises(ImportError):
        exec("from proadapt import no_such_name", {})
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_replicate_calls_the_harness_through_rebound_names(tmp_path, capsys):
    # As perfbench's runner does to time replicate's harness calls: read each
    # name from cli, then rebind it there to a wrapper.
    calls = {name: 0 for name in HARNESS}
    for name in HARNESS:
        original = getattr(cli, name)
        assert original is getattr(metrics, name)

        def timed(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        setattr(cli, name, timed)
    try:
        rc = cli.main(["replicate", "--emulate", "--minutes", "120", "--runs", "3",
                       "--out-dir", str(tmp_path)])
    finally:
        for name in HARNESS:
            delattr(cli, name)
    capsys.readouterr()
    assert rc == 0
    # One predictor call scores both responses on one split per run.
    assert calls == {"run_forecast_experiments": 1, "run_predictor_experiments": 1}
    assert [getattr(cli, name) for name in HARNESS] == [getattr(metrics, name)
                                                        for name in HARNESS]
