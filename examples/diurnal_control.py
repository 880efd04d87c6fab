#!/usr/bin/env python
"""Epoch-based re-assignment over a diurnal load cycle.

The paper's first-step assignment is static; a deployed controller
re-runs it as load drifts. This example drives the epoch loop
(:class:`repro.faults.policy.FaultAwareController` with a replan grid
and no faults) through a compressed day/night cycle, showing each
epoch's re-plan, the thermal-transient safety check on every
transition, and the achieved versus planned reward.

Run:  python examples/diurnal_control.py [n_nodes] [seed]
"""

import sys

import numpy as np

from repro.experiments import PAPER_SET_1, generate_scenario, scaled_down
from repro.faults import FaultAwareController, FaultSchedule, ReactionPolicy
from repro.workload import DiurnalProfile, generate_nonstationary_trace


def main(n_nodes: int = 15, seed: int = 9) -> None:
    scenario = generate_scenario(scaled_down(PAPER_SET_1, n_nodes), seed)
    dc, wl = scenario.datacenter, scenario.workload

    # one "day" compressed into an hour: 15-minute epochs, thermal time
    # constant of a minute so transitions settle well within an epoch
    horizon = 3600.0
    profile = DiurnalProfile(base_rates=wl.arrival_rates, amplitude=0.4,
                             period_s=horizon)
    controller = FaultAwareController(
        dc, wl, scenario.p_const,
        ReactionPolicy(epoch_s=900.0, tau_s=60.0,
                       on_derate_exhausted="raise"))
    print(f"room: {dc.n_nodes} nodes, cap {scenario.p_const:.1f} kW; "
          "diurnal load +/-40% over a 1h cycle, 15-min epochs\n")
    trace = generate_nonstationary_trace(wl, profile, horizon,
                                         np.random.default_rng(seed + 1))
    result = controller.run(trace, horizon, FaultSchedule.empty(),
                            profile=profile)

    print(f"{'epoch':>12}{'offered/s':>11}{'planned/s':>11}"
          f"{'achieved/s':>12}{'derated':>9}{'overshoot C':>13}")
    planned = 0.0
    for e in result.intervals:
        planned += e.plan_reward_rate * (e.end_s - e.start_s)
        # the cold start settles before tasks arrive: no transition
        overshoot = ("          ---" if e.predicted_overshoot_c is None
                     else f"{e.predicted_overshoot_c:>+13.2f}")
        print(f"{e.start_s:>5.0f}-{e.end_s:<6.0f}"
              f"{profile.rates(e.start_s).sum():>11.1f}"
              f"{e.plan_reward_rate:>11.1f}{e.metrics.reward_rate:>12.1f}"
              f"{e.derated:>9d}{overshoot}")
    planned /= horizon
    print(f"\nwhole horizon: achieved {result.reward_rate:.1f}/s of "
          f"planned {planned:.1f}/s "
          f"({100 * result.reward_rate / planned:.1f}%)")
    print("every transition was verified transient-safe before commit "
          "(overshoot <= 0).")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    s = int(sys.argv[2]) if len(sys.argv) > 2 else 9
    main(n, s)
