"""Seeded inputs for the benchmark workloads.

The same seed gives byte-identical files. The monitor history is the
5000-point idle-energy series of an emulated trace; it drifts upwards, so
a threshold placed at a quantile of the series splits the ticks into a
healthy part and a potentially-broken part of known size. The tactics'
training trace is a separate 1440-minute emulated trace.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from proadapt.emulator import generate_trace, to_idle_series, write_trace_csv

HISTORY_POINTS = 5000
TRACE_MINUTES = 1440
RISK_MARGIN = 0.10  # the monitor's --risk-margin default
# A spec turns potentially broken once the series passes
# (1 - RISK_MARGIN) * threshold, so these quantiles price roughly 65%, 55%
# and 45% of the ticks of the three specs: a little over half overall. The
# median tick then has two specs priced, clear of the boundary between the
# tick costs with one and with two priced specs.
SPEC_QUANTILES = (("gold", 0.35, 3.0), ("silver", 0.45, 2.0), ("bronze", 0.55, 1.0))
MIRRORS = ("germany", "massachusetts", "ontario")


def subseed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def monitor_inputs(seed: int, directory: Path, tactics: bool) -> dict[str, Path]:
    """Write history.csv and specs.json, plus tactics.json and trace.csv
    when ``tactics`` is set."""
    directory.mkdir(parents=True, exist_ok=True)
    idle = to_idle_series(generate_trace(HISTORY_POINTS, subseed(seed, 1))).values
    paths = {name: directory / name for name in ("history.csv", "specs.json")}
    paths["history.csv"].write_text(
        "value\n" + "".join(f"{v!r}\n" for v in idle.tolist()), encoding="utf-8")
    specs = [{"name": f"idle_energy_{name}",
              "threshold": round(float(np.quantile(idle, q)) / (1.0 - RISK_MARGIN), 6),
              "direction": "upper", "penalty": 2.0 * reward, "reward": reward}
             for name, q, reward in SPEC_QUANTILES]
    paths["specs.json"].write_text(json.dumps(specs, indent=1) + "\n", encoding="utf-8")
    if tactics:
        paths["tactics.json"] = directory / "tactics.json"
        paths["trace.csv"] = directory / "trace.csv"
        entries = [{"name": f"mirror_{m}", "mirror": m, "static_latency": 2.5,
                    "static_cost": 30.0} for m in MIRRORS]
        paths["tactics.json"].write_text(json.dumps(entries, indent=1) + "\n",
                                         encoding="utf-8")
        write_trace_csv(generate_trace(TRACE_MINUTES, subseed(seed, 2)),
                        paths["trace.csv"])
    return paths
