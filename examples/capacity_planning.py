#!/usr/bin/env python
"""Capacity planning — what is a kilowatt of provisioned power worth?

The paper's introduction motivates the whole problem with power-limited
sites ("Morgan Stanley is no longer able physically to get the power
needed to run a new data center in Manhattan").  This example sweeps the
power cap from just-above-idle to flat-out and prints the reward curve,
the marginal reward per kW, and where the thermal-aware technique's edge
over P0-or-off is largest (hint: mid-range caps, where P-state choice
matters most).

Run:  python examples/capacity_planning.py [n_nodes] [seed]
"""

import sys

import numpy as np

from repro.experiments import PAPER_SET_3, generate_scenario, scaled_down
from repro.experiments.sweeps import sweep_power_cap


def main(n_nodes: int = 25, seed: int = 4) -> None:
    scenario = generate_scenario(scaled_down(PAPER_SET_3, n_nodes), seed)
    dc, wl = scenario.datacenter, scenario.workload
    lo, hi = scenario.bounds.p_min, scenario.bounds.p_max
    print(f"room: {dc.n_nodes} nodes; idle {lo:.1f} kW, flat-out "
          f"{hi:.1f} kW (paper cap would be {scenario.p_const:.1f} kW)\n")

    caps = np.linspace(lo * 1.02, hi * 1.05, 8)
    points = sweep_power_cap(dc, wl, caps)

    print(f"{'cap kW':>8}{'reward/s':>10}{'baseline/s':>12}{'edge %':>8}"
          f"{'used kW':>9}{'reward/kW':>11}")
    best_edge = max((p for p in points if p.improvement_pct is not None),
                    key=lambda p: p.improvement_pct)
    for p in points:
        marginal = ("      -" if p.marginal_reward_per_kw is None
                    else f"{p.marginal_reward_per_kw:>11.1f}")
        edge = ("---" if p.improvement_pct is None
                else f"{p.improvement_pct:+.2f}")
        print(f"{p.p_const:>8.1f}{p.reward_three_stage:>10.1f}"
              f"{p.reward_baseline:>12.1f}{edge:>8}"
              f"{p.power_used_kw:>9.1f}{marginal:>11}")
    print(f"\nthermal-aware edge peaks at cap {best_edge.p_const:.1f} kW "
          f"({best_edge.improvement_pct:+.2f}%) — in deeply "
          "oversubscribed rooms P-state choice matters most; near "
          "flat-out, P0-everywhere is optimal and both techniques agree.")
    print("diminishing returns: the marginal reward per provisioned kW "
          "falls as the cap\napproaches flat-out — the room runs out of "
          "high-value work before it runs out of power.")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    s = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    main(n, s)
