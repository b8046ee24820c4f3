"""proadapt benchmark: three CLI workloads with host-normalised timings.

Usage, from the repository root:

    python3 perfbench/run.py --workload monitor-refit --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from ``--seed``, then for ``--seconds``
seconds (and at least ``MIN_INVOCATIONS`` times) starts one runner process
per invocation of ``proadapt.cli.main``, checks every invocation's output
and prints the medians over invocations. The last stdout line is the
result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The line before it is the full record (raw timings, probe
figures, input and output digests, environment), also saved under
``.perfbench_work/``. See ``perfbench/README.md`` for every metric.
"""

import os

# One BLAS thread in this process and in every runner (set before NumPy
# loads): on a 2-CPU host a spinning second OpenBLAS thread competes with
# the reference probe, and the outputs are the same either way.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from analysis import (Identity, Normaliser, percentile, quartile_spread,  # noqa: E402
                      self_times, timings)
from checks import check_monitor, check_replicate  # noqa: E402
from probe import NOMINAL_S  # noqa: E402
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The probe part each workload is normalised by: the one whose code mix is
# closest to where the workload spends its time (NumPy calls on small arrays
# in the fits; interpreter work in the estimate-and-rank path).
PROBE_PART = {"monitor-refit": "numpy", "monitor-tactics": "python", "replicate": "numpy"}
MIN_INVOCATIONS = 3
# No invocation starts, and none runs on, past this many seconds from the
# start, so that the command ends within 180 s even if the program hangs.
BUDGET_S = 150
WINDOW, HORIZON = 60, 5
REPLICATE_RUNS = 400
PRICED_SHARE_RANGE = (0.30, 0.70)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def prepare(workload: str, seed: int, directory: Path) -> dict:
    """Generate the inputs and return the command line and its operation count."""
    import inputs
    if workload == "replicate":
        argv = ["replicate", "--emulate", "--minutes", "1440", "--runs",
                str(REPLICATE_RUNS), "--seed", str(inputs.subseed(seed, 3))]
        return {"workload": workload, "command": "replicate", "argv": argv,
                "ops": 3 * REPLICATE_RUNS, "inputs": {}}
    tactics = workload == "monitor-tactics"
    paths = inputs.monitor_inputs(seed, directory, tactics)
    argv = ["monitor", "--spec", str(paths["specs.json"]),
            "--history", str(paths["history.csv"]),
            "--window", str(WINDOW), "--horizon", str(HORIZON)]
    if tactics:
        argv += ["--tactics", str(paths["tactics.json"]), "--trace", str(paths["trace.csv"])]
    else:
        argv += ["--refit-every", "1"]
    specs = json.loads(paths["specs.json"].read_text(encoding="utf-8"))
    return {"workload": workload, "command": "monitor", "argv": argv,
            "ops": inputs.HISTORY_POINTS - WINDOW + 1,
            "spec_names": [s["name"] for s in specs],
            "n_tactics": len(inputs.MIRRORS) if tactics else 0,
            "inputs": {name: sha256(path) for name, path in paths.items()}}


def invoke(job: dict, directory: Path, trace: bool, timeout: float) -> dict:
    """Run one runner process and return its timestamps and checked output."""
    directory.mkdir(parents=True)
    argv = list(job["argv"])
    if job["command"] == "replicate":
        argv += ["--out-dir", str(directory)]
    config = {"src": str(SRC), "argv": argv, "trace": trace, "command": job["command"],
              "lines_per_tick": len(job.get("spec_names", ())),
              "out": str(directory / "timings.npz")}
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    stdout_path = directory / "stdout.txt"
    with open(stdout_path, "wb") as stdout, open(directory / "stderr.txt", "wb") as stderr:
        try:
            subprocess.run([sys.executable, str(HERE / "runner.py"),
                            str(directory / "config.json")],
                           stdout=stdout, stderr=stderr, cwd=ROOT, check=True,
                           timeout=timeout)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"runner failed: {exc}\n"
                             + (directory / "stderr.txt").read_text(errors="replace"))
            return {"ok": False, "failed": job["ops"], "trace": trace}
    data = dict(np.load(directory / "timings.npz"))
    meta = json.loads(str(data.pop("meta")))
    marks = data["tick_marks"].size if job["command"] == "monitor" else data["calls"].shape[0]
    result = {"ok": meta["rc"] == 0 and marks >= 2, "trace": trace, "meta": meta,
              "data": data}
    text = stdout_path.read_text(encoding="utf-8")
    if job["command"] == "monitor":
        result["failed"], result["statuses"] = check_monitor(
            text, job["ops"], job["spec_names"], HORIZON, job["n_tactics"])
        result["outputs"] = {"stdout": sha256(stdout_path)}
    else:
        result["failed"] = check_replicate(directory, text, REPLICATE_RUNS)
        result["outputs"] = {name: sha256(directory / name)
                             for name in ("stdout.txt", "rq1.csv", "rq2.csv",
                                          "rq3.csv", "rq4.csv")
                             if (directory / name).exists()}
    if not result["ok"]:
        result["failed"] = job["ops"]
    return result


def timing_record(job: dict, result: dict) -> dict:
    """The runner's timestamps in the shape ``analysis.timings`` reads."""
    data = result["data"]
    t_start, _, t_end = data["t"]
    if job["command"] == "monitor":
        marks = data["tick_marks"]
        return {"t_start": t_start, "t_end": t_end, "t_steady": marks[0],
                "op_spans": (marks[:-1], marks[1:]), "ops_per_span": 1,
                "steady_ops": marks.size - 1}
    calls = data["calls"]
    return {"t_start": t_start, "t_end": t_end, "t_steady": calls[0, 0],
            "op_spans": (calls[:, 0], calls[:, 1]), "ops_per_span": REPLICATE_RUNS,
            "steady_ops": 3 * REPLICATE_RUNS}


def measure(job: dict, result: dict) -> None:
    """Add normalised and raw timings, probe figures and, when traced,
    per-layer figures to ``result``."""
    data = result["data"]
    part = PROBE_PART[job["workload"]]
    starts, splits, ends = data["probe_starts"], data["probe_splits"], data["probe_ends"]
    reference = splits - starts if part == "numpy" else ends - splits
    clock = Normaliser(starts, ends, reference, NOMINAL_S[part])
    record = timing_record(job, result)
    result["norm"] = timings(record, clock)
    result["raw"] = timings(record, Identity())
    result["norm"]["peak_rss_mib"] = result["meta"]["maxrss_kib"] / 1024.0
    t_start, t_imported, t_end = data["t"]
    result["probe_us"] = float(np.median(reference)) * 1e6
    result["probe_overhead"] = float((ends - starts).sum() / (t_end - t_start))
    if result["trace"]:
        result["layers"] = layer_figures(result, clock)


def layer_figures(result: dict, clock) -> dict:
    data, meta = result["data"], result["meta"]
    names = meta["span_names"]
    ids = data["span_name_ids"]
    duration = clock.span(data["span_starts"], data["span_ends"])
    own = self_times(duration, data["span_parents"])
    figures: dict = {}
    for name_id, name in enumerate(names):
        chosen = ids == name_id
        figures[f"{name}.calls"] = int(chosen.sum())
        figures[f"{name}.self_s"] = float(own[chosen].sum())
        figures[f"{name}.p50_us"] = percentile(duration[chosen], 50) * 1e6
        figures[f"{name}.p99_us"] = percentile(duration[chosen], 99) * 1e6
    for layer in LAYERS:
        figures[f"{layer}.self_s"] = sum(figures[f"{n}.self_s"] for n in names
                                         if n.startswith(layer + "."))
    t_start, t_imported, t_end = data["t"]
    figures["cli.self_s"] = figures["cli.main.self_s"]
    figures["cli.import_s"] = float(clock.span(t_start, t_imported))
    figures["trace.wall_s"] = float(clock.span(t_start, t_end))
    figures["trace.accounted_share"] = (figures["cli.import_s"] + float(own.sum())) \
        / figures["trace.wall_s"]
    counters = meta["counters"]
    figures.update(counters)
    fits = counters.get("arima.fit_arima.input_calls", 0)
    if fits:
        figures["arima.fit_arima.redundant_share"] = \
            1.0 - counters["arima.fit_arima.distinct_inputs"] / fits
        figures["arima.fit_arima.shared_share"] = \
            counters["arima.fit_arima.shared_input_calls"] / fits
    spec_ticks = counters.get("workflow.spec_ticks", 0)
    if spec_ticks:
        figures["workflow.priced_share"] = counters["workflow.priced_spec_ticks"] / spec_ticks
    return figures


def environment(workload: str, results: list) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    timed = [r for r in results if "norm" in r]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": BLAS_ENV,
        "blas_threads_measured": sorted({r["meta"]["blas_threads"] for r in timed}),
        "probe_part": PROBE_PART[workload],
        "probe_nominal_us": NOMINAL_S[PROBE_PART[workload]] * 1e6,
        "probe_median_us": statistics.median(r["probe_us"] for r in timed) if timed else None,
    }


def median_of(results: list, key: str, metric: str) -> float:
    return float(statistics.median(r[key][metric] for r in results))


def summarise(workload: str, seed: int, trace: bool, job: dict, results: list,
              declared: dict) -> tuple[dict, dict]:
    """(full record, result line) for the run."""
    attempted = job["ops"] * len(results)
    failed = sum(r["failed"] for r in results)
    plain = [r for r in results if "norm" in r and not r["trace"]]
    traced = [r for r in results if "layers" in r]
    outputs = {}
    for r in results:
        for name, digest in r.get("outputs", {}).items():
            outputs.setdefault(name, set()).add(digest)
    deterministic = all(len(digests) == 1 for digests in outputs.values())
    correct = failed == 0 and deterministic and len(plain) > 0
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "invocations": len(results), "timed_invocations": len(plain),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "argv": job["argv"],
        "inputs_sha256": job["inputs"],
        "outputs_sha256": {name: sorted(d) for name, d in outputs.items()},
        "outputs_deterministic": deterministic,
        "environment": environment(workload, results),
    }
    if job["command"] == "monitor":
        statuses: dict = {}
        for r in results:
            for status, count in r.get("statuses", {}).items():
                statuses[status] = statuses.get(status, 0) + count
        spec_ticks = sum(statuses.values())
        priced = (statuses.get("at_risk", 0) + statuses.get("broken", 0)) / max(spec_ticks, 1)
        record["status_mix"] = statuses
        record["priced_share"] = priced
        if workload == "monitor-tactics":
            low, high = PRICED_SHARE_RANGE
            record["priced_share_in_range"] = low <= priced <= high
            correct = correct and record["priced_share_in_range"]
    if plain:
        record["normalised"] = {m: median_of(plain, "norm", m) for m in plain[0]["norm"]}
        record["raw"] = {m: median_of(plain, "raw", m) for m in plain[0]["raw"]}
        record["probe_overhead"] = statistics.median(r["probe_overhead"] for r in plain)
        record["per_invocation_wall_s"] = [r["norm"]["wall_s"] for r in plain]
        if len(plain) > 1:
            record["per_invocation_spread"] = {
                m: quartile_spread([r["norm"][m] for r in plain]) for m in plain[0]["norm"]}
    record["correct"] = correct

    figures: dict = {}
    if trace and plain and traced:
        names = set().union(*(r["layers"] for r in traced))
        figures = {n: float(statistics.median(r["layers"].get(n, 0.0) for r in traced))
                   for n in names}
        traced_wall = statistics.median(r["norm"]["wall_s"] for r in traced)
        figures["host.tracing_overhead"] = traced_wall / record["normalised"]["wall_s"] - 1.0
        figures["host.probe_us"] = record["environment"]["probe_median_us"]
        figures["host.probe_overhead"] = record["probe_overhead"]
        for metric in ("wall_s", "setup_s", "op_p50_us"):
            figures[f"raw.{metric}"] = record["raw"][metric]
        record["per_layer"] = figures
    source = figures if trace else record.get("normalised", {})
    metrics = {name: {"value": float(source.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return record, line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("monitor-refit", "monitor-tactics", "replicate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "proadapt" / "cli.py").is_file():
        print(f"error: no proadapt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    job = prepare(args.workload, args.seed, run_dir / "inputs")
    results = []
    began = time.perf_counter()
    while (len(results) < (2 if args.trace else 1) * MIN_INVOCATIONS
           or time.perf_counter() - began < args.seconds) \
            and time.perf_counter() - began < BUDGET_S:
        # With --trace 1, traced and untraced invocations alternate; the
        # untraced ones give the baseline for the tracing overhead.
        traced = bool(args.trace) and len(results) % 2 == 1
        result = invoke(job, run_dir / f"{len(results):03d}", traced,
                        timeout=BUDGET_S - (time.perf_counter() - began))
        if result["ok"]:
            measure(job, result)
        result.pop("data", None)
        results.append(result)
        shutil.rmtree(run_dir / f"{len(results) - 1:03d}")

    record, line = summarise(args.workload, args.seed, bool(args.trace), job, results,
                             declared)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
