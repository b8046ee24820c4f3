"""Command-line entry point.

Three subcommands:

* ``generate``  - emulate a volatility trace and write it as CSV.
* ``replicate`` - run the four replication experiments (two-tactic cost
  impact, idle-energy forecasting, download latency/cost prediction, and
  the volatility-aware vs baseline comparison) and write rq1.csv-rq4.csv
  plus a summary table on stdout.
* ``monitor``   - fit a recorded history's refit windows in one call, run the
  decision workflow over blocks of ticks, and emit one JSON line per tick and spec.

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
import contextlib
import csv
import errno
import json
import math
import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .types import (Direction, SlaSpec, TimeSeries, check_integer, check_real, check_size,
                    order_specs_by_reward, subseeds)

if TYPE_CHECKING:
    from .metrics import Reports, Summary
    from .workflow import TacticEstimate, TacticModels

DEFAULT_SEED = 42
BLOCK_TICKS = 256  # monitor ticks per block at most
BLOCK_CELLS = 1 << 18  # forecast values (ticks x horizon) per block of monitor ticks at most


def _print_model_table(summary: Summary, names: Sequence[str]) -> None:
    print(f"  {'model':<22}{'runs':>5}{'mean rmse':>12}{'min':>9}{'max':>9}"
          f"{'mean mae':>12}")
    for name in names:
        agg = summary.models[name]
        print(f"  {name:<22}{agg.runs:>5}{agg.mean_rmse:>12.4f}{agg.min_rmse:>9.4f}"
              f"{agg.max_rmse:>9.4f}{agg.mean_mae:>12.4f}")


@contextlib.contextmanager
def _sized_by(flag: str, value: int):
    """Name ``flag`` and its ``value`` in a ``MemoryError`` of the block,
    whose work that flag sizes."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"{flag} {value}: {exc}".rstrip(": ")) from None


def cmd_generate(args: argparse.Namespace) -> int:
    from .emulator import Phase, generate_trace, trace_csv_text

    check_size("--minutes", args.minutes)
    check_integer("--seed", args.seed, 0)
    with _sized_by("--minutes", args.minutes):
        trace = generate_trace(args.minutes, args.seed)
        text = trace_csv_text(trace)
    out = Path(args.out)
    _write_report_set(out.parent, {out.name: text})
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
    """Write each text of ``texts`` to the file of its name in the existing
    directory ``out_dir``, all or none. A name is resolved first, so a
    symlink is written through to the file it names; two names that
    resolve to one file are refused, and so is a target that exists and is
    not a regular file (a directory, a device, a pipe or a symlink loop
    would be replaced, not written), before any temporary is opened. Every
    text then goes to a temporary file in its target's directory, and the
    files are replaced only once all of them are written. The temporaries
    never outlive the call, and an error names the report and the file it
    resolves to, never a temporary."""
    if not out_dir.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out_dir))
    reports = [out_dir / name for name in texts]
    targets = [Path(os.path.realpath(report)) for report in reports]
    first: dict[Path, Path] = {}
    for report, target in zip(reports, targets):
        if first.setdefault(target, report) != report:
            raise OSError(f"reports {first[target]} and {report} both resolve to {target}")
    for target in targets:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        # A resolved path that is still a symlink is a loop.
        if target.is_symlink() or (target.exists() and not target.is_file()):
            raise OSError(f"{target} is not a regular file")
    temporaries = []
    try:
        for report, target, text in zip(reports, targets, texts.values()):
            temporary = target.parent / f".{target.name}.{os.getpid()}.tmp"
            try:
                handle = open(temporary, "x", encoding="utf-8", newline="\n")
            except OSError as exc:
                resolved = str(target) if target != Path(os.path.abspath(report)) else None
                raise type(exc)(exc.errno, exc.strerror, str(report), None, resolved) from None
            with handle:
                temporaries.append(temporary)
                handle.write(text)
        for temporary, target in zip(temporaries, targets):
            os.replace(temporary, target)
    finally:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)


def cmd_replicate(args: argparse.Namespace) -> int:
    from .emulator import (SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, generate_trace,
                           ingest_trace_csv, run_cost_impact_simulation, to_idle_series,
                           to_regression_dataset)
    from .metrics import (BRR_MODEL, FORECAST_MODEL, MEAN_BASELINE, MRA_MODEL,
                          PERSISTENCE_MODEL, PREDICTOR_MODELS, STATIC_BASELINE,
                          reports_to_csv_text, summarize)

    harness = sys.modules[__name__]
    check_size("--minutes", args.minutes)
    check_integer("--seed", args.seed, 0)
    check_size("--runs", args.runs)
    # The rule a tactics file applies to its static values, checked before any work.
    for flag, value in (("--static-latency", args.static_latency),
                        ("--static-cost", args.static_cost)):
        check_real(flag, value, 0)
    trace_seed, impact_seed, forecast_seed, predictor_seed = subseeds(args.seed, range(4))

    # The trace and both series come before any experiment runs, so every
    # error about a trace file's content does too.
    with (_input_file("trace file") if args.trace
          else _sized_by("--minutes", args.minutes)):
        trace = (ingest_trace_csv(args.trace) if args.trace
                 else generate_trace(args.minutes, trace_seed))
        idle = to_idle_series(trace)
        X, latency, cost = to_regression_dataset(trace)

    # Every report is computed before any file is written, and the set is
    # written all or nothing, so a failure leaves no partial report set.
    with _sized_by("--runs", args.runs):
        impact = tuple(zip((SAMPLE_TACTIC_A, SAMPLE_TACTIC_B), run_cost_impact_simulation(
            SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, args.runs, impact_seed)))
        forecast_reports = harness.run_forecast_experiments(idle, args.runs, forecast_seed)
        # One split per run, shared by both responses.
        predictor_reports = harness.run_predictor_experiments(
            X, {"latency": (latency, args.static_latency), "cost": (cost, args.static_cost)},
            args.runs, predictor_seed)

    def response(name: str, models: Sequence[str], suffix: str = "") -> Reports:
        """The ``models`` columns of response ``name``, each renamed to its
        model's name plus ``suffix``."""
        return predictor_reports.select({f"{model}_{name}": model + suffix
                                         for model in models})

    rq1_lines = ["sample,tactic,overall_cost"]
    for tactic, costs in impact:
        rq1_lines += [f"{i},{tactic.name},{c:.17g}" for i, c in enumerate(costs)]
    rq3 = [response(name, (MRA_MODEL, BRR_MODEL), f"_{name}") for name in ("latency", "cost")]
    rq4 = response("latency", (MRA_MODEL, MEAN_BASELINE, STATIC_BASELINE))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report_set(out_dir, {
        "rq1.csv": "\n".join(rq1_lines) + "\n",
        "rq2.csv": reports_to_csv_text(forecast_reports),
        "rq3.csv": reports_to_csv_text(*rq3),
        "rq4.csv": reports_to_csv_text(rq4),
    })

    print(f"experiment 1: overall cost of {args.runs} executions per tactic")
    for tactic, costs in impact:
        sd = float(np.std(costs, ddof=1)) if costs.size > 1 else 0.0
        print(f"  {tactic.name}: mean={float(np.mean(costs)):.3f} sd={sd:.3f} "
              f"p99={_percentile_99(costs):.3f}")

    print(f"experiment 2: idle-energy forecasting over {args.runs} runs")
    s2 = summarize(forecast_reports)
    _print_model_table(s2, [FORECAST_MODEL, PERSISTENCE_MODEL])
    print(f"  wins: {FORECAST_MODEL} beats {PERSISTENCE_MODEL} in "
          f"{s2.wins[(FORECAST_MODEL, PERSISTENCE_MODEL)]} of "
          f"{s2.comparisons[(FORECAST_MODEL, PERSISTENCE_MODEL)]} runs")

    s_lat, s_cost = (summarize(response(name, PREDICTOR_MODELS))
                     for name in ("latency", "cost"))
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
    grids = (forecast_reports, predictor_reports)
    failed = sum(len(grid.errors) for grid in grids)
    cells = sum(grid.rmse.size for grid in grids)
    if failed > 0.1 * cells:
        print(f"error: {failed} of {cells} run/model scores failed, more than 10%",
              file=sys.stderr)
        return 1
    if failed:
        print(f"warning: {failed} of {cells} run/model scores failed", file=sys.stderr)
    return 0


@contextlib.contextmanager
def _input_file(what: str):
    """Start each error about the content of the file read in the block with ``what``."""
    try:
        yield
    except RecursionError:
        raise ValueError(f"{what}: JSON nested too deeply") from None
    except (csv.Error, ValueError) as exc:  # malformed, or bytes that are not UTF-8
        raise ValueError(f"{what}: {exc}") from None


@contextlib.contextmanager
def _entry(what: str, i: int):
    """Start each error raised in the block, about entry ``i`` of the JSON
    list in the file ``what``, with ``what`` and ``i``."""
    try:
        yield
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ValueError(f"{what} entry {i}: {exc}") from None


def _check_entry(entry, required: Sequence[str], numbers: Sequence[str]) -> None:
    """An entry of a JSON list must be an object with the ``required``
    fields and a string ``name``, and each of its ``numbers`` fields that is
    present must be a JSON number (not a boolean, string, null, list or
    object)."""
    if not isinstance(entry, dict):
        raise ValueError("expected a JSON object")
    for field in required:
        if field not in entry:
            raise ValueError(f"missing field '{field}'")
    if not isinstance(entry["name"], str):
        raise ValueError(f"field 'name' must be a string, got {json.dumps(entry['name'])}")
    for field in numbers:
        value = entry.get(field, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field '{field}' must be a number, got {json.dumps(value)}")


def _load_specs(path: str) -> list[SlaSpec]:
    with _input_file("spec file"):
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        raise ValueError("spec file holds no specs")
    specs = []
    for i, entry in enumerate(entries):
        with _entry("spec file", i):
            _check_entry(entry, ("name", "threshold"), ("threshold", "penalty", "reward"))
            direction_text = entry.get("direction", "upper")
            try:
                direction = Direction(direction_text)
            except ValueError:
                raise ValueError(f"field 'direction' must be 'upper' or 'lower', "
                                 f"got {direction_text!r}") from None
            specs.append(SlaSpec(name=entry["name"],
                                 threshold=float(entry["threshold"]),
                                 direction=direction,
                                 penalty=float(entry.get("penalty", 0.0)),
                                 reward=float(entry.get("reward", 0.0))))
            if specs[-1].name in (spec.name for spec in specs[:-1]):
                raise ValueError(f"duplicate name {specs[-1].name!r}")
    return specs


def _load_history(path: str) -> TimeSeries:
    with open(path, newline="", encoding="utf-8") as handle, _input_file("history file"):
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["value"]:
        raise ValueError("history file must start with a 'value' header")
    if max(map(len, rows)) > 1:
        line, row = next((line, row) for line, row in enumerate(rows, 1) if len(row) > 1)
        raise ValueError(f"history file line {line}: expected one value, "
                         f"got {len(row)} fields")
    try:
        return TimeSeries([float(row[0]) for row in rows[1:] if row])
    except ValueError:  # a value is not a number or not finite: name the line of the first
        for line, row in enumerate(rows[1:], 2):
            try:
                check_real("value", float(row[0]) if row else 0.0)
            except ValueError as exc:
                raise ValueError(f"history file line {line}: {exc}") from None
        raise


def _load_tactic_context(tactics_path: str, trace_path: str | None) -> dict[str, TacticModels]:
    """Each tactic's trained models and current feature vector, by name in
    file order, from a tactics JSON file plus the trace that supplies the
    training data. Tactics with the same mirror, or with none, share one
    ``TacticModels``."""
    from .emulator import Mirror, ingest_trace_csv, to_regression_dataset
    from .regression import fit_mra
    from .workflow import TacticModels

    if not trace_path:
        raise ValueError("--tactics requires --trace for training data")
    with _input_file("tactics file"):
        raw = json.loads(Path(tactics_path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise ValueError("tactics file must hold a JSON list")
    with _input_file("trace file"):
        trace = ingest_trace_csv(trace_path)
    static = ("static_latency", "static_cost")
    tactics = {}
    # One model pair per source (a mirror's records, or None for the whole
    # trace), shared by its tactics: its first entry builds the dataset and,
    # once its own checks pass, fits it.
    trained: dict[Mirror | None, TacticModels] = {}
    for i, entry in enumerate(raw):
        with _entry("tactics file", i):
            _check_entry(entry, ("name", *static), static)
            mirror = None
            if "mirror" in entry:
                try:
                    mirror = Mirror(entry["mirror"])
                except ValueError:
                    raise ValueError(f"unknown mirror {entry['mirror']!r}") from None
        if mirror not in trained:
            subset, source = trace, "trace file"
            if mirror is not None:
                subset = trace.select(trace.mirror_is(mirror))
                source += f": tactics file entry {i} (mirror {mirror.value!r})"
            with _input_file(source):
                X, latency, cost = to_regression_dataset(subset)
        with _entry("tactics file", i):
            name = entry["name"]
            values = [float(entry[field]) for field in static]
            if not name:
                raise ValueError("tactic name must be non-empty")
            for field, value in zip(static, values):
                check_real(field, value, 0)
            if name in tactics:
                raise ValueError(f"duplicate name {name!r}")
            if mirror not in trained:
                trained[mirror] = TacticModels(fit_mra(X, latency), fit_mra(X, cost),
                                               X.rows[-1])
            tactics[name] = trained[mirror]
    return tactics


def _silence_stdout() -> None:
    """Point stdout's descriptor at devnull, so that the interpreter's final
    flush of what is still buffered cannot write again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


@contextlib.contextmanager
def _whole_lines():
    """Yield ``mark``, which flushes stdout and, when stdout is a regular
    file, records the file's size (its end even when opened to append,
    before anything is written). If a write or flush in the block fails,
    such a file is cut back to the last mark and stdout silenced, so the
    file ends in whole lines. Any other stdout (a pipe, a ``StringIO``) is
    only flushed."""
    try:
        fd = sys.stdout.fileno()
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
    except (AttributeError, OSError, ValueError):  # no descriptor
        regular = False
    offset = 0

    def mark() -> None:
        nonlocal offset
        sys.stdout.flush()
        if regular:
            offset = os.fstat(fd).st_size

    mark()
    try:
        yield mark
    except OSError:
        if regular:
            os.ftruncate(fd, offset)
            os.lseek(fd, offset, os.SEEK_SET)  # where a stderr sharing the file writes
            _silence_stdout()
        raise


class _TickLines:
    """The JSON lines of one monitor tick, byte for byte what ``json.dumps``
    writes for each entry ``{"tick", "name", "status",
    "first_violation_step", "forecast", "tactics"}`` or ``{"tick", "name",
    "error"}``.

    Each spec name is serialised once per run. The estimates and the tick
    length are fixed for the run, so the text of a line around its forecast
    depends only on (status, first step): each distinct pair is serialised
    once, by ``rank_tactics`` and ``json.dumps``. A tick is then one
    ``repr`` of its forecast (finite floats, so its JSON text) and one
    concatenation per spec.
    """

    def __init__(self, ordered: Sequence[SlaSpec], estimates: Sequence[TacticEstimate],
                 tick_seconds: float) -> None:
        self._names = [f', "name": {json.dumps(spec.name)}, ' for spec in ordered]
        self._estimates = estimates
        self._tick_seconds = tick_seconds
        self._parts: dict[int, tuple[str, str]] = {}  # by status code + 3 * first step

    def errors(self, tick: int, error: str) -> str:
        text = json.dumps(error)
        return "".join(f'{{"tick": {tick}{name}"error": {text}}}\n' for name in self._names)

    def entries(self, tick: int, forecast: list[float], pairs: Sequence[int]) -> str:
        parts = self._parts
        start, values = f'{{"tick": {tick}', repr(forecast)
        lines = []
        for name, pair in zip(self._names, pairs):
            if pair not in parts:
                parts[pair] = self._part(pair)
            head, tail = parts[pair]
            lines.append(f"{start}{name}{head}{values}{tail}")
        return "".join(lines)

    def _part(self, pair: int) -> tuple[str, str]:
        from .workflow import STATUSES, SpecStatus, rank_tactics

        step, code = divmod(pair, 3)
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


def cmd_monitor(args: argparse.Namespace) -> int:
    from .arima import fit_arima_windows, forecast_error
    from .workflow import price_tactics, workflow_block

    specs = _load_specs(args.spec)
    history = _load_history(args.history)
    window = args.window
    check_size("--window", window)
    check_integer("--refit-every", args.refit_every, 0)
    if len(history) < window:
        raise ValueError(f"history has {len(history)} points but the window needs {window}")
    check_size("--horizon", args.horizon)
    if args.horizon > BLOCK_CELLS:  # a block of one tick would not fit in BLOCK_CELLS
        raise ValueError(f"--horizon must be <= {BLOCK_CELLS}, got {args.horizon}")
    # The rules of workflow_block's risk_margin and rank_tactics'
    # tick_seconds, checked here to name the flags before any work.
    check_real("--risk-margin", args.risk_margin, 0)
    if args.risk_margin >= 1:
        raise ValueError(f"--risk-margin must lie in [0, 1), got {args.risk_margin}")
    check_real("--tick-seconds", args.tick_seconds, 0, strict=True)
    # The tactics' models and features are fixed for the run, so are their prices.
    estimates = (price_tactics(_load_tactic_context(args.tactics, args.trace))
                 if args.tactics else ())

    ordered = order_specs_by_reward(specs)
    lines = _TickLines(ordered, estimates, args.tick_seconds)
    ticks = len(history) - window + 1
    # 0, or a K of at least the ticks, fits once, on the first window.
    every = min(args.refit_every or ticks, ticks)
    # One model per refit tick, shared by every spec: all specs watch the
    # one history. The run's refit windows are fitted in one call, and a
    # failed refit keeps the last good model.
    phi, c, _, errors = fit_arima_windows(history, window, range(0, ticks, every))
    good = np.array([error is None for error in errors])
    for i in np.flatnonzero(~good).tolist():
        print(f"warning: tick {i * every}: refit failed: {errors[i]}", file=sys.stderr)
    # Each tick's model: the last good refit at or before it, -1 for the
    # ticks before the first good fit, which open the run with their last
    # refit's error.
    model = np.maximum.accumulate(np.where(good, np.arange(good.size), -1))[
        np.arange(ticks) // every]
    opening = int(np.count_nonzero(model < 0))
    # Each block of lines is flushed whole, so a failed write leaves a file
    # of whole lines.
    with _whole_lines() as mark:
        for tick in range(opening):
            sys.stdout.write(lines.errors(tick, str(errors[tick // every])))
        mark()
        # The other ticks go through the kernel a block at a time, and each
        # is written as soon as it is serialised. Each tick's window ends at
        # last[tick] (previous is empty for a window of 1, which never fits).
        last, previous = history.values[window - 1:], history.values[window - 2:-1]
        size = min(BLOCK_TICKS, BLOCK_CELLS // args.horizon)
        for lo in range(opening, ticks, size):
            hi = min(lo + size, ticks)
            block = workflow_block(ordered, last[lo:hi], previous[lo:hi], phi[model[lo:hi]],
                                   c[model[lo:hi]], args.horizon, args.risk_margin)
            for tick, forecast, step, pairs in zip(
                    range(lo, hi), block.forecasts.tolist(), block.nonfinite_step.tolist(),
                    (block.status + 3 * block.first_step).tolist()):
                sys.stdout.write(lines.errors(tick, forecast_error(step)) if step
                                 else lines.entries(tick, forecast, pairs))
            mark()
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
        _silence_stdout()  # the reader closed stdout
        return 2
    except MemoryError as exc:
        # A size the host cannot hold: one line, not NumPy's traceback.
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
