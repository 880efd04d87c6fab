"""Capacity planning sweep — reward vs provisioned power.

Extends Figure 6's single operating point (the Eq. 18 midpoint cap) to
the whole curve: where is the thermal-aware technique's edge largest,
and what is the marginal value of a provisioned kilowatt?  Expected
shape: the edge grows as the cap tightens (P-state choice matters most
under deep oversubscription) and vanishes near flat-out (P0-everywhere
becomes optimal for both techniques).
"""

import numpy as np

from repro.experiments.sweeps import sweep_power_cap


def bench_capacity_planning(benchmark, capsys, bench_scenario_set3):
    sc = bench_scenario_set3
    lo, hi = sc.bounds.p_min, sc.bounds.p_max
    caps = np.linspace(lo * 1.02, hi, 6)

    points = benchmark.pedantic(
        sweep_power_cap, args=(sc.datacenter, sc.workload, caps),
        rounds=1, iterations=1)

    with capsys.disabled():
        print()
        print("reward vs power cap (set-3 room)")
        print(f"{'cap kW':>8}{'3-stage/s':>11}{'baseline/s':>12}"
              f"{'edge %':>8}{'marginal r/kW':>15}")
        for p in points:
            marg = ("-" if p.marginal_reward_per_kw is None
                    else f"{p.marginal_reward_per_kw:.1f}")
            edge = ("---" if p.improvement_pct is None
                    else f"{p.improvement_pct:+.2f}")
            print(f"{p.p_const:>8.1f}{p.reward_three_stage:>11.1f}"
                  f"{p.reward_baseline:>12.1f}{edge:>8}{marg:>15}")
        tight, loose = points[0], points[-1]
        print(f"edge shrinks from {tight.improvement_pct:+.2f}% (tight) "
              f"to {loose.improvement_pct:+.2f}% (near flat-out)")

    rewards = [p.reward_three_stage for p in points]
    assert all(np.diff(rewards) >= -1e-6)
    assert points[0].improvement_pct >= points[-1].improvement_pct - 1e-6
