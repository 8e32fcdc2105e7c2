"""How far from optimal are the distributed protocols?

A brute-force search over quantized power allocations yields the Pareto
frontier of the two-user rate region, the best any centralized coordinator
could do on that grid.  Sweeping the near user's target rate traces the
operating curves of fixed-margin IWF and dynamic FDM underneath it.
"""

import numpy as np

from specoord import (brute_force_pareto, dfdm_vs_fmiwf_region, dominates,
                      effective_noise, symmetric_game_instance, waterfill_ra)
from specoord.waterfilling import achievable_rate

H = 0.7
channel, noise, budgets = symmetric_game_instance(H, snr=10.0)

oracle = brute_force_pareto(channel, noise, budgets, levels=21)
print(f"symmetric instance, h = {H}: frontier has {len(oracle.points)} points")
sums = oracle.points.sum(axis=1)
best = oracle.points[np.argmax(sums)]
print(f"best sum rate {sums.max():.4f} at (r2, r1) = "
      f"({best[0]:.4f}, {best[1]:.4f}): the clean frequency split\n")

# The far user's opening move: water-filling against background noise.
far_init = waterfill_ra(effective_noise(0, (), channel, noise), budgets[0],
                        channel.grid)[0]
near_eff = effective_noise(1, [far_init], channel, noise)
near_full, _ = waterfill_ra(near_eff, budgets[1], channel.grid)
near_max = achievable_rate(near_full.power, near_eff, channel.grid)

targets = np.linspace(0.15 * near_max, 0.9 * near_max, 5)
curves = dfdm_vs_fmiwf_region(channel, noise, budgets, targets)

print(f"{'near target':>12} {'far @ fm-iwf':>13} {'far @ dfdm':>11}")
for (rd, far_iwf), (_, far_dfdm) in zip(curves["fm-iwf"].points,
                                        curves["dfdm"].points):
    print(f"{rd:12.4f} {far_iwf:13.4f} {far_dfdm:11.4f}")

for name in ("fm-iwf", "dfdm"):
    ok = dominates(oracle, curves[name], tol=1e-9)
    print(f"\noracle dominates {name}: {ok}")
print("both protocols stay inside the frontier; dynamic FDM gives the far "
      "user more room at low targets.")
