"""Span tracer installed from outside proadapt.

``Tracer.install`` wraps every public function of each proadapt module,
plus the ``TimeSeries`` constructor, and rebinds the wrapper wherever a
module holds the original: ``cli``, ``workflow`` and ``metrics`` import
with ``from .x import y``, so patching ``arima.fit_arima`` alone would miss
``cli.fit_arima``. A span records its name, its start and end on
``time.perf_counter`` and the span it was called from. Spans and counters
stay in memory until the runner saves them when the command has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("types", "arima", "regression", "workflow", "metrics", "emulator")


def _count_fit_input(tracer, args, result):
    tracer.fit_inputs[args[0].values.tobytes()] += 1


def _count_ridge(tracer, args, result):
    tracer.counters["regression.fit_mra.ridge_fallbacks"] += result.ridge_lambda > 0


def _count_clamped(tracer, args, result):
    tracer.counters["regression.predict.clamped"] += result.raw < 0


def _count_records(name):
    def hook(tracer, args, result):
        tracer.counters[f"emulator.{name}.records"] += len(result)
    return hook


def _count_rows(tracer, args, result):
    tracer.counters["emulator.to_regression_dataset.rows"] += result[0].n


def _count_failed_reports(tracer, args, result):
    tracer.counters["metrics.failed_reports"] += sum(r.error is not None for r in result)


def _count_priced(tracer, args, result):
    tracer.counters["workflow.spec_ticks"] += len(result)
    tracer.counters["workflow.priced_spec_ticks"] += sum(
        e.analysis is not None and e.analysis.status.value != "healthy" for e in result)


# Counters taken from a call's arguments and result: (tracer, args, result).
HOOKS = {
    "arima.fit_arima": _count_fit_input,
    "regression.fit_mra": _count_ridge,
    "regression.predict": _count_clamped,
    "emulator.generate_trace": _count_records("generate_trace"),
    "emulator.ingest_trace_csv": _count_records("ingest_trace_csv"),
    "emulator.to_regression_dataset": _count_rows,
    "metrics.run_forecast_experiments": _count_failed_reports,
    "metrics.run_predictor_experiments": _count_failed_reports,
    "workflow.workflow_tick": _count_priced,
}


class Tracer:
    """Spans as parallel lists (name id, start, end, parent index) plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.fit_inputs: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        fails = f"{name}.fails"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[index] = clock()
                stack.pop()
                counters[fails] += 1
                raise
            ends[index] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS + ("cli",)]
        for layer, module in zip(LAYERS, modules[1:]):
            for name in module.__all__:
                original = getattr(module, name)
                if not inspect.isfunction(original):
                    continue
                traced = self.wrap(f"{layer}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)
        series = modules[1].TimeSeries
        series.__init__ = self.wrap("types.TimeSeries", series.__init__)

    def arrays(self) -> dict:
        calls = sum(self.fit_inputs.values())
        shared = sum(n for n in self.fit_inputs.values() if n > 1)
        counters = dict(self.counters)
        counters["arima.fit_arima.distinct_inputs"] = len(self.fit_inputs)
        counters["arima.fit_arima.shared_input_calls"] = shared
        counters["arima.fit_arima.input_calls"] = calls
        return {
            "span_names": list(self.names),
            "span_name_ids": self.name_ids,
            "span_starts": self.starts,
            "span_ends": self.ends,
            "span_parents": self.parents,
            "counters": counters,
        }
