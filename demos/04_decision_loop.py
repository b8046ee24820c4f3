"""The full decision loop on a degrading response-time series.

A hosting service records response time every six seconds against a
0.7-second SLA threshold. Response times creep upward; the loop flags the
specification as at-risk while it is still healthy to the naked eye, and
only then ranks the available tactics (trained from the download trace,
one per mirror, and priced once) by readiness, utility, and cost.
"""

import numpy as np

from proadapt import (Mirror, SlaSpec, SpecStatus, TacticModels, TimeSeries, UtilityParams,
                      fit_arima_windows, fit_mra, generate_trace, price_tactics, rank_tactics,
                      to_regression_dataset)
from proadapt.workflow import STATUSES, workflow_block

# train one latency/cost model pair per mirror-bound tactic
trace = generate_trace(duration_minutes=720, seed=42)
tactics = {}
for mirror in (Mirror.MASSACHUSETTS, Mirror.GERMANY):
    subset = trace.select(trace.mirror_is(mirror))
    X, latency, energy = to_regression_dataset(subset)
    tactics[f"reroute_{mirror.value}"] = TacticModels(fit_mra(X, latency), fit_mra(X, energy),
                                                      X.rows[-1])

# the models and features are fixed, so the tactics are priced once
estimates = price_tactics(tactics, UtilityParams(
    tau=60.0, rate=10.0, response_time=0.5, target=0.7, max_rate=25.0, dimmer=0.6,
    reward_optional=2.0, reward_mandatory=1.0, cost=1.0))

spec = SlaSpec("response_time", 0.7, penalty=3.0, reward=10.0)
horizon, risk_margin, tick_seconds = 5, 0.10, 6.0

# response time ramps from comfortable to violating over 12 minutes
values = 0.40 + 0.0035 * np.arange(120)
window = 60
ticks = len(values) - window + 1
# refit on every tick's window in one call, then forecast and classify all ticks at once
phi, c, _, errors = fit_arima_windows(TimeSeries(values), window, range(ticks))
assert errors == [None] * ticks
_, _, codes, first_steps = workflow_block([spec], values[window - 1:], values[window - 2:-1],
                                         phi, c, horizon, risk_margin)
previous_status = None
for tick in range(ticks):
    status = STATUSES[codes[tick, 0]]
    if status is previous_status:
        continue
    previous_status = status
    print(f"tick {tick:3d}  response={values[tick + window - 1]:.3f}s  -> "
          f"{status.value.upper()}")
    if status is not SpecStatus.HEALTHY:
        step = int(first_steps[tick, 0]) or None
        if step is not None:
            print(f"          forecast crosses the risk band at step {step} "
                  f"({step * tick_seconds:.0f}s away)")
        ranked = rank_tactics(estimates, status, step, tick_seconds)
        for rank, est in enumerate(ranked, start=1):
            print(f"          #{rank} {est.tactic_name}: "
                  f"latency {est.predicted_latency:.2f}s, "
                  f"cost {est.predicted_cost:.1f} J, "
                  f"utility {est.utility_score:.1f}")

print("\nThe at-risk classification arrives while observed response times are "
      "still under the threshold - the lead time a latent tactic needs.")
