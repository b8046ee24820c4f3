"""One timed invocation of a proadapt CLI command, in this process.

Usage: python3 perfbench/runner.py CONFIG.json

``run.py`` writes the config and starts one runner process per
invocation, with stdout redirected to a file and BLAS pinned to one
thread. The runner starts the reference probe, imports proadapt from the
checkout's ``src``, optionally installs the span tracer, calls
``proadapt.cli.main`` and saves raw ``perf_counter`` timestamps to an
``.npz`` file. All arithmetic on them happens in ``run.py``.
"""

import time

T_START = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (the probe needs NumPy before proadapt loads)

from probe import Probe  # noqa: E402


class TickClock:
    """stdout wrapper that timestamps each completed group of lines.

    ``monitor`` prints one line per spec per tick, so with ``lines_per_tick``
    set to the number of specs each timestamp marks the end of one tick.
    """

    def __init__(self, stream, lines_per_tick: int) -> None:
        self._stream = stream
        self._per_tick = lines_per_tick
        self._left = lines_per_tick
        self.marks: list[float] = []

    def write(self, text: str) -> int:
        written = self._stream.write(text)
        newlines = text.count("\n")
        if newlines:
            self._left -= newlines
            while self._left <= 0:
                self.marks.append(time.perf_counter())
                self._left += self._per_tick
        return written

    def __getattr__(self, name):
        return getattr(self._stream, name)


def record_calls(module, name: str, calls: list) -> None:
    """Rebind ``module.name`` so each call appends its (start, end)."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        calls.append((start, time.perf_counter()))
        return result

    setattr(module, name, timed)


def blas_threads() -> int:
    """Thread count OpenBLAS reports at run time, or -1 if it cannot be read."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for library in libraries:
        try:
            query = ctypes.CDLL(library).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.restype = ctypes.c_int
        return int(query())
    return -1


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    probe = Probe()
    probe.start()
    src = Path(config["src"]).resolve()
    sys.path.insert(0, str(src))
    import proadapt
    from proadapt import cli
    t_imported = time.perf_counter()
    if Path(cli.__file__).resolve().parent != src / "proadapt":
        raise SystemExit(f"imported proadapt from {cli.__file__}, not from {src}")

    tracer = None
    if config["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(proadapt)
    calls: list = []
    stdout = sys.stdout
    if config["command"] == "monitor":
        sys.stdout = TickClock(stdout, config["lines_per_tick"])
    else:
        for name in ("run_forecast_experiments", "run_predictor_experiments"):
            record_calls(cli, name, calls)
    run = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    try:
        rc = run(config["argv"])
    finally:
        ticks = sys.stdout
        sys.stdout = stdout
        stdout.flush()
    t_end = time.perf_counter()
    probe.stop()

    meta = {"rc": rc, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "blas_threads": blas_threads()}
    arrays = {
        "probe_starts": probe.starts, "probe_splits": probe.splits,
        "probe_ends": probe.ends,
        "t": [T_START, t_imported, t_end],
        "tick_marks": ticks.marks if isinstance(ticks, TickClock) else [],
        "calls": np.asarray(calls, dtype=float).reshape(-1, 2),
    }
    if tracer is not None:
        spans = tracer.arrays()
        meta["span_names"] = spans.pop("span_names")
        meta["counters"] = spans.pop("counters")
        arrays.update(spans)
    arrays = {key: np.asarray(value) for key, value in arrays.items()}
    np.savez(config["out"], meta=np.array(json.dumps(meta)), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
