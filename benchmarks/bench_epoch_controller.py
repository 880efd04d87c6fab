"""Epoch-controller extension — static plan vs re-planning under drift.

The paper sizes one static assignment for fixed arrival rates.  When the
load actually drifts (here: a surge to 150% of nominal), a static plan
sized for nominal load leaves reward on the table during the surge and
over-provisions during the lull.  This benchmark quantifies the value of
re-running the first step each epoch (the epoch loop,
:class:`repro.faults.policy.FaultAwareController` with a 60 s replan
grid and no faults).
"""

import numpy as np

from repro.core import three_stage_assignment
from repro.experiments import ScenarioConfig, generate_scenario
from repro.faults import FaultAwareController, FaultSchedule, ReactionPolicy
from repro.simulate import simulate_trace
from repro.workload import StepProfile, generate_nonstationary_trace


def bench_epoch_controller(benchmark, capsys, scale):
    sc = generate_scenario(
        ScenarioConfig(name="drift", n_nodes=min(15, scale.n_nodes)), 77)
    dc, wl = sc.datacenter, sc.workload
    # load surge: 70% nominal, then 150%, then back
    profile = StepProfile(
        boundaries=np.asarray([60.0, 120.0]),
        rate_levels=np.vstack([0.7 * wl.arrival_rates,
                               1.5 * wl.arrival_rates,
                               0.7 * wl.arrival_rates]))
    horizon = 180.0
    # one stream realization, replayed by both the controller and the
    # static plan
    trace = generate_nonstationary_trace(wl, profile, horizon,
                                         np.random.default_rng(5))

    def run_controller():
        ctrl = FaultAwareController(
            dc, wl, sc.p_const, ReactionPolicy(epoch_s=60.0, tau_s=10.0))
        return ctrl.run(trace, horizon, FaultSchedule.empty(),
                        profile=profile)

    result = benchmark.pedantic(run_controller, rounds=1, iterations=1)

    # static comparison: one plan sized for nominal rates, same stream
    static_plan = three_stage_assignment(dc, wl, sc.p_const, psi=50.0)
    static_metrics = simulate_trace(dc, wl, static_plan.tc,
                                    static_plan.pstates, trace,
                                    duration=horizon)

    with capsys.disabled():
        print()
        print("re-planning vs static plan under a 0.7x -> 1.5x -> 0.7x "
              "load surge")
        print(f"{'epoch':>12}{'offered/s':>11}{'planned/s':>11}"
              f"{'achieved/s':>12}")
        for e in result.intervals:
            print(f"{e.start_s:>5.0f}-{e.end_s:<6.0f}"
                  f"{profile.rates(e.start_s).sum():>11.1f}"
                  f"{e.plan_reward_rate:>11.1f}"
                  f"{e.metrics.reward_rate:>12.1f}")
        print(f"controller total reward rate: {result.reward_rate:10.1f}/s")
        print(f"static-plan reward rate     : "
              f"{static_metrics.reward_rate:10.1f}/s")
        delta = 100 * (result.reward_rate - static_metrics.reward_rate) \
            / static_metrics.reward_rate
        print(f"re-planning gain            : {delta:+.2f}%")
