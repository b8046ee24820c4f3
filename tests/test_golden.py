"""Golden output digests: the CLI's and the demos' output, bit for bit.

Seeded inputs are generated by committed code, each command runs through
``cli.main`` in this process, and the SHA-256 of its stdout and of every
report file is compared with ``golden_digests.json``; so is the stdout of
each ``demos/*.py`` script, also run in this process, and the stdout and
stderr of one ``monitor`` run over an edge-case history. Each seed also
runs one ``replicate`` large enough that its harnesses split their runs
into several fit batches and gather passes. A refactor that claims to
keep behaviour passes unchanged; a change that moves output bits on
purpose re-records the digests and says so.

Float formatting and NumPy's reductions can differ between NumPy
releases, so the digests hold only for the NumPy version they were
recorded with; under any other version the test is skipped.

Re-record (after a declared output change) with:

    PYTHONPATH=src python tests/test_golden.py

which prints each digest whose value changed, as ``key: old -> new``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from proadapt import cli
from proadapt.emulator import generate_trace, to_idle_series, write_trace_csv

DIGESTS = Path(__file__).with_name("golden_digests.json")
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SEEDS = (1, 2)
HISTORY_MINUTES = 800  # one idle reading per minute
TRACE_MINUTES = 240
BATCHED_MINUTES = 1440  # a day's trace, so the predictor harness has rows to spare
BATCHED_RUNS = 500  # several predictor fit batches and gather passes, two rq2 passes
RISK_MARGIN = 0.10
SPEC_QUANTILES = (("gold", 0.35, 3.0), ("silver", 0.45, 2.0), ("bronze", 0.55, 1.0))
MIRRORS = ("germany", "massachusetts", "ontario")
EDGE_SEED = 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(seed: int, directory: Path) -> dict[str, Path]:
    """history.csv, specs.json (three upper bounds at quantiles of the
    history), tactics.json (three mirror tactics) and trace.csv."""
    directory.mkdir(parents=True, exist_ok=True)
    idle = to_idle_series(generate_trace(HISTORY_MINUTES, seed)).values
    paths = {name: directory / name
             for name in ("history.csv", "specs.json", "tactics.json", "trace.csv")}
    paths["history.csv"].write_text(
        "value\n" + "".join(f"{v!r}\n" for v in idle.tolist()), encoding="utf-8")
    specs = [{"name": f"idle_energy_{name}",
              "threshold": round(float(np.quantile(idle, q)) / (1.0 - RISK_MARGIN), 6),
              "direction": "upper", "penalty": 2.0 * reward, "reward": reward}
             for name, q, reward in SPEC_QUANTILES]
    paths["specs.json"].write_text(json.dumps(specs), encoding="utf-8")
    tactics = [{"name": f"mirror_{m}", "mirror": m, "static_latency": 2.5,
                "static_cost": 30.0} for m in MIRRORS]
    paths["tactics.json"].write_text(json.dumps(tactics), encoding="utf-8")
    write_trace_csv(generate_trace(TRACE_MINUTES, seed + 100), paths["trace.csv"])
    return paths


def ar_walk(n: int, start: float, rng: np.random.Generator) -> list[float]:
    """A random walk whose steps follow an AR(1) with phi = 0.7."""
    step, out = 0.0, []
    for noise in rng.normal(0.0, 0.4, n).tolist():
        step = 0.7 * step + noise
        start += step
        out.append(start)
    return out


def write_edge_inputs(directory: Path) -> dict[str, Path]:
    """Inputs for a ``monitor`` run that reaches every per-tick branch.

    The history opens with an exact +-1 alternation (the first fit fails:
    phi = -1), walks, alternates exactly again (failed refits keep the last
    good model), walks again and ends in a ramp 1.6e308 + 1e306 * i whose
    forecasts overflow. The specs are a lower bound whose name holds a
    quote and a non-ASCII letter, a zero threshold, and an upper bound whose
    reward ties the lower bound's.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(EDGE_SEED)
    walk = ar_walk(40, 0.0, rng)
    alternation = [walk[-1] + (i % 2) for i in range(24)]
    values = ([1.0, -1.0] * 7 + walk + alternation + ar_walk(30, alternation[-1], rng)
              + [1.6e308 + 1e306 * i for i in range(20)])
    paths = {name: directory / name
             for name in ("history.csv", "specs.json", "tactics.json", "trace.csv")}
    paths["history.csv"].write_text(
        "value\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
    specs = [{"name": 'floor "q" \u00e9t\u00e9', "threshold": -1.5, "direction": "lower",
              "reward": 1.0},
             {"name": "zero", "threshold": 0.0, "reward": 2.0},
             {"name": "cap", "threshold": 2.5, "reward": 1.0}]
    paths["specs.json"].write_text(json.dumps(specs), encoding="utf-8")
    tactics = [{"name": f"mirror_{m}", "mirror": m, "static_latency": 2.5,
                "static_cost": 30.0} for m in MIRRORS]
    paths["tactics.json"].write_text(json.dumps(tactics), encoding="utf-8")
    write_trace_csv(generate_trace(TRACE_MINUTES, EDGE_SEED + 100), paths["trace.csv"])
    return paths


def run_both(argv: list[str]) -> tuple[bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc == 0, argv
    return out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc == 0, argv
    return out.getvalue().encode("utf-8")


def replicate_digests(key: str, minutes: int, runs: int, seed: int,
                      out_dir: Path) -> dict[str, str]:
    """Digests of the stdout and the reports of one emulated ``replicate``
    run, keyed ``<key>.stdout`` and ``<key>.rq1.csv`` to ``<key>.rq4.csv``."""
    stdout = run(["replicate", "--emulate", "--minutes", str(minutes), "--runs", str(runs),
                  "--seed", str(seed), "--out-dir", str(out_dir)])
    digests = {f"{key}.stdout": sha256(stdout)}
    for name in ("rq1.csv", "rq2.csv", "rq3.csv", "rq4.csv"):
        digests[f"{key}.{name}"] = sha256((out_dir / name).read_bytes())
    return digests


def compute_digests(seed: int, directory: Path) -> dict[str, str]:
    paths = write_inputs(seed, directory)
    monitor = ["monitor", "--spec", str(paths["specs.json"]),
               "--history", str(paths["history.csv"])]
    tactics = ["--tactics", str(paths["tactics.json"]), "--trace", str(paths["trace.csv"])]
    return {
        "generate.csv": sha256(paths["trace.csv"].read_bytes()),
        "monitor.stdout": sha256(run(monitor)),
        "monitor-refit.stdout": sha256(run(monitor + ["--refit-every", "1"])),
        "monitor-tactics.stdout": sha256(run(monitor + tactics)),
        **replicate_digests("replicate", TRACE_MINUTES, 5, seed, directory / "replicate"),
        **replicate_digests("replicate-batched", BATCHED_MINUTES, BATCHED_RUNS, seed,
                            directory / "batched"),
    }


def edge_digests(directory: Path) -> dict[str, str]:
    paths = write_edge_inputs(directory)
    stdout, stderr = run_both([
        "monitor", "--spec", str(paths["specs.json"]), "--history", str(paths["history.csv"]),
        "--window", "12", "--horizon", "3", "--risk-margin", "0", "--refit-every", "7",
        "--tactics", str(paths["tactics.json"]), "--trace", str(paths["trace.csv"])])
    return {"monitor.stdout": sha256(stdout), "monitor.stderr": sha256(stderr)}


def demo_digest(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return sha256(out.getvalue().encode("utf-8"))


def load_golden() -> dict:
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.skip(f"golden digests were recorded with NumPy {golden['numpy']}, "
                    f"running NumPy {np.__version__}")
    return golden


@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden_digests(seed, tmp_path):
    golden = load_golden()
    assert compute_digests(seed, tmp_path) == golden["digests"][str(seed)]


def test_edge_case_monitor_matches_golden_digest(tmp_path):
    golden = load_golden()
    assert edge_digests(tmp_path) == golden["edge"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_stdout_matches_golden_digest(demo):
    golden = load_golden()
    assert demo_digest(demo) == golden["demos"][demo.name]


def changed_digests(old: dict, new: dict, prefix: str = "") -> list[str]:
    """One ``key: old -> new`` line for each leaf of two digest records
    whose value differs (a missing leaf reads as None), keys joined by
    dots, in key order."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b, name = old.get(key), new.get(key), f"{prefix}{key}"
        if isinstance(a, dict) or isinstance(b, dict):
            lines += changed_digests(a if isinstance(a, dict) else {},
                                     b if isinstance(b, dict) else {}, f"{name}.")
        elif a != b:
            lines.append(f"{name}: {a} -> {b}")
    return lines


if __name__ == "__main__":
    previous = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__,
                  "digests": {str(seed): compute_digests(seed, Path(tmp) / str(seed))
                              for seed in SEEDS},
                  "edge": edge_digests(Path(tmp) / "edge"),
                  "demos": {path.name: demo_digest(path) for path in DEMOS}}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    changes = changed_digests(previous, record)
    sys.stdout.write("".join(f"{line}\n" for line in changes))
    sys.stdout.write(f"wrote {DIGESTS}: {len(changes)} changed\n")
