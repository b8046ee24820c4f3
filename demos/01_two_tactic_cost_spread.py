"""Why volatility matters: two tactics with the same average latency.

Tactic A is cheaper per unit of latency (5 vs 7) but its latency is
positively skewed; tactic B is dearer but Gaussian. Sampling many
executions and multiplying latency by unit cost shows that the nominally
cheap tactic produces sporadic, extremely high overall costs - exactly
the blind spot of a decision process that treats cost as a constant.

``run_cost_impact_simulation`` returns the pair of cost arrays; the demo
bins both itself, on shared width-5 bins from zero.
"""

import math

import numpy as np

from proadapt import SAMPLE_TACTIC_A, SAMPLE_TACTIC_B, run_cost_impact_simulation

costs_a, costs_b = run_cost_impact_simulation(SAMPLE_TACTIC_A, SAMPLE_TACTIC_B,
                                              n_runs=10000, seed=42)

for profile, costs in ((SAMPLE_TACTIC_A, costs_a), (SAMPLE_TACTIC_B, costs_b)):
    print(f"{profile.name} (unit cost {profile.cost_per_unit_latency:g}, "
          f"{profile.shape.value} latency):")
    print(f"  mean overall cost {np.mean(costs):7.2f}")
    print(f"  std               {np.std(costs, ddof=1):7.2f}")
    print(f"  99th percentile   {np.percentile(costs, 99):7.2f}")
    print(f"  worst observed    {np.max(costs):7.2f}")

print("\nshared-bin histogram (bin width 5):")
edges = 5.0 * np.arange(max(1, math.ceil(max(costs_a.max(), costs_b.max()) / 5.0)) + 1)
counts_a, counts_b = np.histogram(costs_a, edges)[0], np.histogram(costs_b, edges)[0]
scale = 60 / max(counts_a.max(), counts_b.max())
for i, lo in enumerate(edges[:-1]):
    bar_a = "#" * round(counts_a[i] * scale)
    bar_b = "*" * round(counts_b[i] * scale)
    print(f"  [{lo:5.0f},{edges[i + 1]:5.0f})  A {bar_a}")
    print(f"               B {bar_b}")

print("\nTactic B clusters tightly; tactic A's tail reaches far beyond its "
      "nominal cost. A static cost value cannot express that difference.")
