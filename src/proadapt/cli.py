"""Command-line entry point.

Three subcommands:

* ``generate``  - emulate a volatility trace and write it as CSV.
* ``replicate`` - run the four replication experiments (two-tactic cost
  impact, idle-energy forecasting, download latency/cost prediction, and
  the volatility-aware vs baseline comparison) and write rq1.csv-rq4.csv
  plus a summary table on stdout.
* ``monitor``   - slide a window over a recorded history, run the decision
  workflow over blocks of ticks, and emit one JSON line per tick and spec.

Every command is deterministic under fixed flags and seed. Exit codes:
0 success, 1 validation/domain error, 2 IO/usage error. stdout carries
only data and summaries; diagnostics go to stderr.

This module imports only ``types`` at module level; each command imports
the other modules it runs when it starts, so ``generate`` loads only the
emulator's modules and ``monitor`` without ``--tactics`` only ``arima``
and ``workflow``.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .types import Direction, SlaSpec, Tactic, TimeSeries, order_specs_by_reward, subseed

if TYPE_CHECKING:
    from .metrics import Summary
    from .workflow import TacticEstimate, TickBlock

DEFAULT_SEED = 42
BLOCK_TICKS = 256  # monitor ticks per block, and so refits per block, at most
# Values per array pass: forecast values (ticks x horizon) and window
# values (refits x window) per block of monitor ticks.
BLOCK_CELLS = 1 << 18


def _print_model_table(summary: Summary, names: Sequence[str]) -> None:
    print(f"  {'model':<22}{'runs':>5}{'mean rmse':>12}{'min':>9}{'max':>9}"
          f"{'mean mae':>12}")
    for name in names:
        agg = summary.models[name]
        print(f"  {name:<22}{agg.runs:>5}{agg.mean_rmse:>12.4f}{agg.min_rmse:>9.4f}"
              f"{agg.max_rmse:>9.4f}{agg.mean_mae:>12.4f}")


def _check_minutes(minutes: int) -> None:
    if minutes < 1:
        raise ValueError(f"--minutes must be >= 1, got {minutes}")


def cmd_generate(args: argparse.Namespace) -> int:
    from .emulator import Phase, generate_trace, write_trace_csv

    _check_minutes(args.minutes)
    trace = generate_trace(args.minutes, args.seed)
    write_trace_csv(trace, args.out)
    downloads = int(np.count_nonzero(trace.phase_is(Phase.DOWNLOAD)))
    print(f"{len(trace)} records ({downloads} downloads) written to {args.out}")
    return 0


def _percentile_99(values: np.ndarray) -> float:
    """``np.percentile(values, 99)`` of finite values, bit for bit, from one
    sort: the same linear interpolation between the two order statistics
    around (n - 1) * 0.99 (``np.percentile`` would import ``numpy.ma``)."""
    ordered = np.sort(values)
    index = (ordered.size - 1) * 0.99
    below = math.floor(index)
    a, b = float(ordered[below]), float(ordered[min(below + 1, ordered.size - 1)])
    t = index - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def __getattr__(name: str):
    """``metrics``' replicate harness functions ``run_forecast_experiments``
    and ``run_predictor_experiments``, while they are not rebound here.

    perfbench's runner times replicate's harness calls by reading these two
    names from this module and rebinding them to timing wrappers. So they
    stay attributes of the module although ``metrics`` loads only when
    ``replicate`` runs, and ``cmd_replicate`` calls them through the module
    object, where a rebinding takes effect.
    """
    if name in ("run_forecast_experiments", "run_predictor_experiments"):
        from . import metrics
        return getattr(metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _write_report_set(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each text of ``texts`` to the file of its name in ``out_dir``,
    all or none: every text goes to a temporary file in ``out_dir`` first,
    and the files are replaced only once all of them are written and no
    target is a directory. The temporaries never outlive the call."""
    out_dir.mkdir(parents=True, exist_ok=True)
    temporaries = []
    try:
        for name, text in texts.items():
            temporary = out_dir / f".{name}.{os.getpid()}.tmp"
            with open(temporary, "x", encoding="utf-8", newline="\n") as handle:
                temporaries.append(temporary)
                handle.write(text)
        for name in texts:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(out_dir / name))
        for temporary, name in zip(temporaries, texts):
            os.replace(temporary, out_dir / name)
    finally:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)


def cmd_replicate(args: argparse.Namespace) -> int:
    from .emulator import (SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, generate_trace,
                           ingest_trace_csv, run_cost_impact_simulation, to_idle_series,
                           to_regression_dataset)
    from .metrics import (BRR_MODEL, FORECAST_MODEL, MEAN_BASELINE, MRA_MODEL,
                          PERSISTENCE_MODEL, STATIC_BASELINE, reports_to_csv_text, summarize)

    harness = sys.modules[__name__]
    _check_minutes(args.minutes)
    # The rule Tactic applies to its static values, checked before any work.
    for flag, value in (("--static-latency", args.static_latency),
                        ("--static-cost", args.static_cost)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{flag} must be finite and >= 0, got {value!r}")
    if args.trace:
        trace = ingest_trace_csv(args.trace)
    else:
        trace = generate_trace(args.minutes, subseed(args.seed, 0))

    # Every report is computed before any file is written, and the set is
    # written all or nothing, so a failure leaves no partial report set.
    impact = run_cost_impact_simulation(SAMPLE_TACTIC_A, SAMPLE_TACTIC_B,
                                        args.runs, subseed(args.seed, 1))
    idle = to_idle_series(trace)
    forecast_reports = harness.run_forecast_experiments(idle, args.runs, subseed(args.seed, 2))
    X, latency, cost = to_regression_dataset(trace)
    predictor_reports = []
    for response, t, key, static in (("latency", latency, 3, args.static_latency),
                                     ("cost", cost, 4, args.static_cost)):
        try:
            predictor_reports.append(harness.run_predictor_experiments(
                X, t, args.runs, subseed(args.seed, key), static_value=static))
        except ValueError as exc:
            raise ValueError(f"{response} response: {exc}") from None
    latency_reports, cost_reports = predictor_reports

    rq1_lines = ["sample,tactic,overall_cost"]
    for tactic, costs in ((SAMPLE_TACTIC_A, impact.overall_costs_a),
                          (SAMPLE_TACTIC_B, impact.overall_costs_b)):
        rq1_lines += [f"{i},{tactic.name},{c:.17g}" for i, c in enumerate(costs)]
    rq3 = (latency_reports.select({MRA_MODEL: "mra_latency", BRR_MODEL: "brr_latency"}),
           cost_reports.select({MRA_MODEL: "mra_cost", BRR_MODEL: "brr_cost"}))
    rq4 = latency_reports.select({name: name for name in
                                  (MRA_MODEL, MEAN_BASELINE, STATIC_BASELINE)})
    _write_report_set(Path(args.out_dir), {
        "rq1.csv": "\n".join(rq1_lines) + "\n",
        "rq2.csv": reports_to_csv_text(forecast_reports),
        "rq3.csv": reports_to_csv_text(*rq3),
        "rq4.csv": reports_to_csv_text(rq4),
    })

    print(f"experiment 1: overall cost of {args.runs} executions per tactic")
    for tactic, costs in ((SAMPLE_TACTIC_A, impact.overall_costs_a),
                          (SAMPLE_TACTIC_B, impact.overall_costs_b)):
        sd = float(np.std(costs, ddof=1)) if costs.size > 1 else 0.0
        print(f"  {tactic.name}: mean={float(np.mean(costs)):.3f} sd={sd:.3f} "
              f"p99={_percentile_99(costs):.3f}")

    print(f"experiment 2: idle-energy forecasting over {args.runs} runs")
    s2 = summarize(forecast_reports)
    _print_model_table(s2, [FORECAST_MODEL, PERSISTENCE_MODEL])
    print(f"  wins: {FORECAST_MODEL} beats {PERSISTENCE_MODEL} in "
          f"{s2.wins[(FORECAST_MODEL, PERSISTENCE_MODEL)]} of "
          f"{s2.comparisons[(FORECAST_MODEL, PERSISTENCE_MODEL)]} runs")

    s_lat, s_cost = summarize(latency_reports), summarize(cost_reports)
    print(f"experiment 3: download latency/cost prediction over {args.runs} runs")
    print("  latency response:")
    _print_model_table(s_lat, [MRA_MODEL, BRR_MODEL])
    print("  cost response:")
    _print_model_table(s_cost, [MRA_MODEL, BRR_MODEL])
    print(f"  wins (latency): {MRA_MODEL} beats {BRR_MODEL} in "
          f"{s_lat.wins[(MRA_MODEL, BRR_MODEL)]} of "
          f"{s_lat.comparisons[(MRA_MODEL, BRR_MODEL)]} runs")

    print("experiment 4: volatility-aware prediction vs baselines (latency)")
    _print_model_table(s_lat, [MRA_MODEL, MEAN_BASELINE, STATIC_BASELINE])
    for baseline in (MEAN_BASELINE, STATIC_BASELINE):
        print(f"  wins: {MRA_MODEL} beats {baseline} in "
              f"{s_lat.wins[(MRA_MODEL, baseline)]} of "
              f"{s_lat.comparisons[(MRA_MODEL, baseline)]} runs")

    # More than 10% failed scores fail the command; the reports stay written.
    grids = (forecast_reports, latency_reports, cost_reports)
    failed = sum(len(grid.errors) for grid in grids)
    cells = sum(grid.rmse.size for grid in grids)
    if failed > 0.1 * cells:
        print(f"error: {failed} of {cells} run/model scores failed, more than 10%",
              file=sys.stderr)
        return 1
    if failed:
        print(f"warning: {failed} of {cells} run/model scores failed", file=sys.stderr)
    return 0


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{what}: JSON nested too deeply") from None


def _check_entry(entry, i: int, what: str, required: Sequence[str],
                 numbers: Sequence[str]) -> None:
    """Entry ``i`` of a JSON list must be an object with the ``required``
    fields and a string ``name``, and each of its ``numbers`` fields that is
    present must be a JSON number (not a boolean, string, null, list or
    object)."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} entry {i}: expected a JSON object")
    for field in required:
        if field not in entry:
            raise ValueError(f"{what} entry {i}: missing field '{field}'")
    if not isinstance(entry["name"], str):
        raise ValueError(f"{what} entry {i}: field 'name' must be a string, "
                         f"got {json.dumps(entry['name'])}")
    for field in numbers:
        value = entry.get(field, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{what} entry {i}: field '{field}' must be a number, "
                             f"got {json.dumps(value)}")


def _load_specs(path: str) -> list[SlaSpec]:
    raw = _read_json(path, "spec file")
    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        raise ValueError("spec file holds no specs")
    specs = []
    for i, entry in enumerate(entries):
        _check_entry(entry, i, "spec file", ("name", "threshold"),
                     ("threshold", "penalty", "reward"))
        direction_text = entry.get("direction", "upper")
        try:
            direction = Direction(direction_text)
        except ValueError:
            raise ValueError(f"spec file entry {i}: field 'direction' must be "
                             f"'upper' or 'lower', got {direction_text!r}") from None
        try:
            specs.append(SlaSpec(name=entry["name"],
                                 threshold=float(entry["threshold"]),
                                 direction=direction,
                                 penalty=float(entry.get("penalty", 0.0)),
                                 reward=float(entry.get("reward", 0.0))))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"spec file entry {i}: {exc}") from None
        if specs[-1].name in (spec.name for spec in specs[:-1]):
            raise ValueError(f"spec file entry {i}: duplicate name {specs[-1].name!r}")
    return specs


def _load_history(path: str) -> TimeSeries:
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            rows = list(csv.reader(handle))
        except csv.Error as exc:
            raise ValueError(f"history file: {exc}") from None
    if not rows or rows[0] != ["value"]:
        raise ValueError("history file must start with a 'value' header")
    if max(map(len, rows)) > 1:
        line, row = next((line, row) for line, row in enumerate(rows, 1) if len(row) > 1)
        raise ValueError(f"history file line {line}: expected one value, "
                         f"got {len(row)} fields")
    try:
        values = [float(row[0]) for row in rows[1:] if row]
    except ValueError as exc:
        raise ValueError(f"history file: {exc}") from None
    return TimeSeries(np.array(values))


def _load_tactic_context(tactics_path: str, trace_path: str | None):
    """Build tactics, trained models, and current feature vectors from a
    tactics JSON file plus the trace that supplies training data."""
    from .emulator import Mirror, Phase, ingest_trace_csv, to_regression_dataset
    from .regression import fit_mra
    from .workflow import TacticModels

    if not trace_path:
        raise ValueError("--tactics requires --trace for training data")
    raw = _read_json(tactics_path, "tactics file")
    if not isinstance(raw, list):
        raise ValueError("tactics file must hold a JSON list")
    trace = ingest_trace_csv(trace_path)
    others = ~trace.phase_is(Phase.DOWNLOAD)
    tactics, registry, features = [], {}, {}
    for i, entry in enumerate(raw):
        _check_entry(entry, i, "tactics file", ("name", "static_latency", "static_cost"),
                     ("static_latency", "static_cost"))
        subset = trace
        if "mirror" in entry:
            try:
                mirror = Mirror(entry["mirror"])
            except ValueError:
                raise ValueError(f"tactics file entry {i}: unknown mirror "
                                 f"{entry['mirror']!r}") from None
            subset = trace.select(others | trace.mirror_is(mirror))
        X, latency, cost = to_regression_dataset(subset)
        try:
            tactic = Tactic(name=entry["name"],
                            static_latency=float(entry["static_latency"]),
                            static_cost=float(entry["static_cost"]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"tactics file entry {i}: {exc}") from None
        if tactic.name in registry:
            raise ValueError(f"tactics file entry {i}: duplicate name {tactic.name!r}")
        tactics.append(tactic)
        try:
            registry[tactic.name] = TacticModels(latency_model=fit_mra(X, latency),
                                                 cost_model=fit_mra(X, cost))
        except ValueError as exc:
            raise ValueError(f"tactics file entry {i}: {exc}") from None
        features[tactic.name] = tuple(X.rows[-1])
    return tactics, registry, features


class _TickLines:
    """The JSON lines of one monitor tick, byte for byte what ``json.dumps``
    writes for each entry ``{"tick", "name", "status",
    "first_violation_step", "forecast", "tactics"}`` or ``{"tick", "name",
    "error"}``.

    Each spec name is serialised once per run. The estimates and the tick
    length are fixed for the run, so the status and ranked tactics parts of
    a line depend only on (status, first step): each distinct pair is
    serialised once, by ``rank_tactics`` and ``json.dumps``. A tick's lines
    then differ only in the tick, the forecast and the pairs of its specs:
    each distinct tuple of pairs in a block gets one ``%``-template of all
    the tick's lines, so a tick is one ``repr`` and one format.
    """

    def __init__(self, ordered: Sequence[SlaSpec], estimates: Sequence[TacticEstimate],
                 tick_seconds: float) -> None:
        self._names = [json.dumps(spec.name) for spec in ordered]
        self._estimates = estimates
        self._tick_seconds = tick_seconds
        self._parts: dict[int, tuple[str, str]] = {}  # %-escaped, by pair key
        self._templates: dict[tuple[int, ...], str] = {}

    def errors(self, tick: int, error: str) -> str:
        text = json.dumps(error)
        return "".join(f'{{"tick": {tick}, "name": {name}, "error": {text}}}\n'
                       for name in self._names)

    def keys(self, block: TickBlock) -> list[tuple[int, ...]]:
        """Start ``block``: clear the templates, so that they never outnumber
        a block's ticks, and return each tick's template key, which holds
        status code + 3 * first step per spec."""
        self._templates.clear()
        return list(map(tuple, (block.status + 3 * block.first_step).tolist()))

    def entries(self, tick: int, forecast: list[float], key: tuple[int, ...]) -> str:
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = self._template(key)
        # A list of finite floats reprs as its JSON text.
        return template % ((tick, repr(forecast)) * len(key))

    def _template(self, key: tuple[int, ...]) -> str:
        lines = []
        for name, pair in zip(self._names, key):
            if pair not in self._parts:
                step, code = divmod(pair, 3)
                self._parts[pair] = tuple(part.replace("%", "%%")
                                          for part in self._part(code, step))
            head, tail = self._parts[pair]
            lines.append(f'{{"tick": %d, "name": {name.replace("%", "%%")}, {head}%s{tail}')
        return "".join(lines)

    def _part(self, code: int, step: int) -> tuple[str, str]:
        from .workflow import STATUSES, SpecStatus, rank_tactics

        status = STATUSES[code]
        head = json.dumps({"status": status.value, "first_violation_step": step or None})
        ranked = []
        if self._estimates and status is not SpecStatus.HEALTHY:
            ranked = rank_tactics(self._estimates, status, step or None, self._tick_seconds)
        tactics = json.dumps([
            {"name": e.tactic_name, "latency": e.predicted_latency,
             "cost": e.predicted_cost, "utility": e.utility_score, "rank": rank}
            for rank, e in enumerate(ranked, start=1)])
        return f'{head[1:-1]}, "forecast": ', f', "tactics": {tactics}}}\n'


def _block_models(history: TimeSeries, window: int, ticks: int, every: int, size: int):
    """Per block of at most ``size`` ticks, yield (lo, hi, fit_errors, phi, c).

    The block's refit ticks, every ``every``-th tick, are fitted in one
    call. ``fit_errors`` holds the fit error of each tick of the block
    before the first good fit (such ticks open the run); the arrays ``phi``
    and ``c`` hold the model coefficients of the block's later ticks. A
    failed refit keeps the last good model and prints a warning.
    """
    from .arima import fit_arima_windows

    # Entry 0 of a block's model arrays is the model carried into the
    # block, the last good fit before it: NaN while there is none.
    carried_phi, carried_c, fit_error = np.full(1, np.nan), np.full(1, np.nan), ""
    for lo in range(0, ticks, size):
        hi = min(lo + size, ticks)
        refits = range(lo + -lo % every, hi, every)  # the refit ticks from lo on
        refit_phi, refit_c, _, refit_errors = fit_arima_windows(history, window, refits)
        phi, c = np.concatenate([carried_phi, refit_phi]), np.concatenate([carried_c, refit_c])
        errors = [None, *refit_errors]
        good = np.array([error is None for error in errors])
        messages = {0: fit_error}
        for i in np.flatnonzero(~good).tolist():
            messages[i] = fit_error = str(errors[i])
            print(f"warning: tick {refits[i - 1]}: refit failed: {fit_error}",
                  file=sys.stderr)
        # Each tick's last refit (0: the carried model), then its model:
        # the last good one up to that refit.
        last_refit = (np.arange(lo, hi) - refits.start) // every + 1
        model = np.maximum.accumulate(np.where(good, np.arange(good.size), 0))[last_refit]
        opening = int(np.count_nonzero(model == 0)) if np.isnan(carried_phi[0]) else 0
        fit_errors = [messages[i] for i in last_refit[:opening].tolist()]
        carried_phi, carried_c = phi[model[-1:]], c[model[-1:]]
        yield lo, hi, fit_errors, phi[model[opening:]], c[model[opening:]]


def cmd_monitor(args: argparse.Namespace) -> int:
    from .arima import forecast_error
    from .workflow import WorkflowConfig, price_tactics, workflow_block

    specs = _load_specs(args.spec)
    history = _load_history(args.history)
    window = args.window
    if window < 1:
        raise ValueError(f"--window must be >= 1, got {window}")
    if args.refit_every < 0:
        raise ValueError(f"--refit-every must be >= 0, got {args.refit_every}")
    if len(history) < window:
        raise ValueError(f"history has {len(history)} points but the window needs {window}")
    if args.horizon > BLOCK_CELLS:  # a block of one tick would not fit in BLOCK_CELLS
        raise ValueError(f"--horizon must be <= {BLOCK_CELLS}, got {args.horizon}")
    config = WorkflowConfig(horizon=args.horizon, risk_margin=args.risk_margin,
                            tick_seconds=args.tick_seconds)
    # The tactics' models and features are fixed for the run, so are their prices.
    estimates = (price_tactics(*_load_tactic_context(args.tactics, args.trace))
                 if args.tactics else ())

    ordered = order_specs_by_reward(specs)
    lines = _TickLines(ordered, estimates, config.tick_seconds)
    values = history.values
    ticks = len(history) - window + 1
    # 0, or a K of at least the ticks, fits once, on the first window.
    every = min(args.refit_every or ticks, ticks)
    # One model per refit tick, shared by every spec: all specs watch the
    # one history. Ticks go through the kernel a block at a time, and each
    # is written as soon as it is serialised. A block refits at most
    # BLOCK_CELLS // window times (once when a window is longer).
    size = min(BLOCK_TICKS, BLOCK_CELLS // config.horizon,
               every * max(1, BLOCK_CELLS // window))
    for lo, hi, fit_errors, phi, c in _block_models(history, window, ticks, every, size):
        for tick, error in enumerate(fit_errors, start=lo):
            sys.stdout.write(lines.errors(tick, error))
        start = lo + len(fit_errors)
        if start == hi:
            continue
        end = hi + window - 1  # one past the last value of the block's last window
        block = workflow_block(ordered, values[start + window - 1:end],
                               values[start + window - 2:end - 1], phi, c, config)
        for tick, forecast, step, key in zip(
                range(start, hi), block.forecasts.tolist(), block.nonfinite_step.tolist(),
                lines.keys(block)):
            sys.stdout.write(lines.errors(tick, forecast_error(step)) if step
                             else lines.entries(tick, forecast, key))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proadapt",
        description="Volatility-aware adaptation: trace emulation, replication "
                    "experiments, and SLA monitoring.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emulate a volatility trace CSV")
    gen.add_argument("--minutes", type=int, default=1440,
                     help="trace duration in minutes (default 1440)")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", required=True, help="output trace CSV path")
    gen.set_defaults(func=cmd_generate)

    rep = sub.add_parser("replicate", help="run the replication experiments")
    source = rep.add_mutually_exclusive_group(required=True)
    source.add_argument("--emulate", action="store_true",
                        help="generate the evaluation trace internally")
    source.add_argument("--trace", help="ingest an existing trace CSV instead")
    rep.add_argument("--minutes", type=int, default=1440,
                     help="emulated trace duration (default 1440)")
    rep.add_argument("--runs", type=int, default=50,
                     help="randomized experiments per question (default 50)")
    rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    rep.add_argument("--out-dir", default=".",
                     help="directory for rq1.csv..rq4.csv (default .)")
    # The design-time values a volatility-unaware operator would have
    # written down for the download tactic, not derived from any trace.
    rep.add_argument("--static-latency", type=float, default=2.5,
                     help="design-time latency constant for the static baseline")
    rep.add_argument("--static-cost", type=float, default=30.0,
                     help="design-time cost constant for the static baseline")
    rep.set_defaults(func=cmd_replicate)

    mon = sub.add_parser("monitor", help="run the decision workflow over a history")
    mon.add_argument("--spec", required=True,
                     help="JSON file with one spec object or a list of them")
    mon.add_argument("--history", required=True,
                     help="CSV file with a 'value' header, one observation per line")
    mon.add_argument("--window", type=int, default=60,
                     help="sliding window length in observations (default 60)")
    mon.add_argument("--horizon", type=int, default=5,
                     help="forecast steps per tick (default 5)")
    mon.add_argument("--risk-margin", type=float, default=0.10,
                     help="fraction of the threshold treated as the risk band")
    mon.add_argument("--tick-seconds", type=float, default=6.0,
                     help="seconds between observations (default 6)")
    mon.add_argument("--refit-every", type=int, default=0,
                     help="refit the forecaster every K ticks (0 = fit once)")
    mon.add_argument("--tactics", help="optional tactics JSON for estimation")
    mon.add_argument("--trace", help="trace CSV that trains the tactic models")
    mon.set_defaults(func=cmd_monitor)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: send what is still buffered to devnull
        # so that the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
