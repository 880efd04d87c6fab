"""Tests for the epoch control loop over a drifting workload.

The loop is :class:`repro.faults.policy.FaultAwareController` with an
empty fault schedule and a replan grid (``ReactionPolicy.epoch_s``);
these tests pin the epoch-controller behaviour it carries: epoch
boundaries, plans re-sized for each epoch's rates, transient-safe
transitions, the power cap, degenerate-horizon rates and warm chains
that replay the cold plans bit for bit.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.control.mpc import MPCConfig
from repro.core.api import SolveRequest, SolveResult, solve
from repro.core.controller import idle_start_t_out, plan_with_transient_guard
from repro.experiments import (PAPER_SET_1, ScenarioConfig, generate_scenario,
                               scaled_down)
from repro.faults import policy as policy_module
from repro.faults.model import FaultSchedule
from repro.faults.policy import (ChaosRunResult, FaultAwareController,
                                 ReactionPolicy)
from repro.workload import (ConstantProfile, FlashCrowdProfile, StepProfile,
                            generate_nonstationary_trace)

#: Transient guard of the tiny room: fast thermal time constant, and a
#: guard that raises rather than commit an unsafe transition.
GUARDED = dict(epoch_s=60.0, tau_s=10.0, on_derate_exhausted="raise")


def run_loop(sc, profile, horizon_s, rng, policy):
    """One trace realization from ``profile``, replayed through the loop."""
    trace = generate_nonstationary_trace(sc.workload, profile, horizon_s,
                                         rng)
    return FaultAwareController(
        sc.datacenter, sc.workload, sc.p_const, policy).run(
        trace, horizon_s, FaultSchedule.empty(), profile=profile)


@pytest.fixture(scope="module")
def tiny_scenario():
    """A very small, fast room for controller runs."""
    return generate_scenario(ScenarioConfig(name="ctrl", n_nodes=10), 21)


@pytest.fixture(scope="module")
def step_profile(tiny_scenario):
    """A load step: half rates for a minute, then full rates."""
    rates = tiny_scenario.workload.arrival_rates
    return StepProfile(boundaries=np.asarray([60.0]),
                       rate_levels=np.vstack([0.5 * rates, rates]))


@pytest.fixture(scope="module")
def step_run(tiny_scenario, step_profile):
    """One run over the load step, with every committed plan kept."""
    sc = tiny_scenario
    ctrl = FaultAwareController(sc.datacenter, sc.workload, sc.p_const,
                                ReactionPolicy(**GUARDED))
    plans = []
    guard = policy_module.plan_with_transient_guard

    def keep_plan(*args, **kwargs):
        out = guard(*args, **kwargs)
        plans.append(out[0])
        return out

    trace = generate_nonstationary_trace(sc.workload, step_profile, 120.0,
                                         np.random.default_rng(3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policy_module, "plan_with_transient_guard", keep_plan)
        result = ctrl.run(trace, 120.0, FaultSchedule.empty(),
                          profile=step_profile)
    return SimpleNamespace(result=result, plans=plans)


class TestRun:
    def test_epoch_count_and_boundaries(self, step_run):
        epochs = step_run.result.intervals
        assert [(e.start_s, e.end_s) for e in epochs] == \
            [(0.0, 60.0), (60.0, 120.0)]
        assert [e.cause for e in epochs] == ["start", "epoch"]

    def test_plans_track_the_load_step(self, tiny_scenario, step_profile,
                                       step_run):
        """Each epoch is planned for the profile's rates at its start:
        an unguarded epoch's plan is the cold solve at those rates."""
        sc = tiny_scenario
        for e in step_run.result.intervals:
            if e.derated:
                continue
            wl = replace(sc.workload,
                         arrival_rates=step_profile.rates(e.start_s))
            cold = solve(SolveRequest(sc.datacenter, wl, sc.p_const))
            assert e.plan_reward_rate == cold.reward_rate
            assert e.t_crac_out_c == [float(t) for t in cold.t_crac_out]
        e0, e1 = step_run.result.intervals
        # more offered load -> at least as much planned reward
        assert e1.plan_reward_rate >= e0.plan_reward_rate - 1e-6

    def test_transitions_are_transient_safe(self, step_run):
        e0, e1 = step_run.result.intervals
        # the cold start settles before tasks arrive: no transition
        assert e0.predicted_overshoot_c is None
        assert e0.transient_overshoot_c is None
        assert e1.predicted_overshoot_c <= 1e-6
        assert e1.transient_overshoot_c <= 1e-6
        assert step_run.result.violation_minutes == 0.0

    def test_plans_respect_cap(self, tiny_scenario, step_run):
        sc = tiny_scenario
        assert len(step_run.plans) == 2
        for plan in step_run.plans:
            plan.verify(sc.datacenter, sc.p_const)

    def test_aggregate_metrics(self, step_run):
        result = step_run.result
        total = sum(e.metrics.total_reward for e in result.intervals)
        assert result.total_reward == pytest.approx(total)
        assert result.reward_rate == pytest.approx(total / 120.0)
        assert result.reward_rate > 0
        assert all(e.plan_reward_rate > 0 for e in result.intervals)

    def test_constant_profile_keeps_same_plan_quality(self, tiny_scenario):
        sc = tiny_scenario
        profile = ConstantProfile(sc.workload.arrival_rates)
        res = run_loop(sc, profile, 120.0, np.random.default_rng(4),
                       ReactionPolicy(**GUARDED))
        r0 = res.intervals[0].plan_reward_rate
        for e in res.intervals[1:]:
            assert e.plan_reward_rate == pytest.approx(r0, rel=1e-6)


class TestValidation:
    def test_bad_epoch_length(self):
        with pytest.raises(ValueError, match="epoch"):
            ReactionPolicy(epoch_s=0.0)

    def test_bad_derate_step(self):
        with pytest.raises(ValueError, match="derate"):
            ReactionPolicy(derate_step=1.5)

    def test_bad_horizon(self, tiny_scenario):
        sc = tiny_scenario
        ctrl = FaultAwareController(sc.datacenter, sc.workload, sc.p_const,
                                    ReactionPolicy(**GUARDED))
        with pytest.raises(ValueError, match="horizon"):
            ctrl.run([], 0.0, FaultSchedule.empty())


class TestDegenerateResult:
    """Empty and zero-length results report a 0.0 rate, never raise.

    No time passed, so no reward *rate* was sustained; the reward itself
    is still reported.
    """

    def test_empty_epochs_rate_is_zero(self):
        result = ChaosRunResult(horizon_s=0.0,
                                schedule=FaultSchedule.empty(), intervals=[])
        assert result.reward_rate == 0.0
        assert result.total_reward == 0.0
        assert result.violation_minutes == 0.0

    def test_zero_length_horizon_rate_is_zero(self):
        epoch = SimpleNamespace(metrics=SimpleNamespace(total_reward=3.0))
        result = ChaosRunResult(horizon_s=0.0,
                                schedule=FaultSchedule.empty(),
                                intervals=[epoch])
        assert result.reward_rate == 0.0
        assert result.total_reward == 3.0


class TestWarmChaining:
    """The loop threads SolveState between epochs; all epoch reuse is
    value-exact, so the warm chain is bit-identical to solving every
    epoch cold."""

    def test_guard_returns_solve_result(self, tiny_scenario):
        sc = tiny_scenario
        plan, derated, overshoot = plan_with_transient_guard(
            sc.datacenter, sc.workload, sc.p_const,
            idle_start_t_out(sc.datacenter), tau_s=10.0)
        assert isinstance(plan, SolveResult)
        assert plan.warm_level == "none"
        assert derated >= 0
        assert overshoot <= 1e-6

    def test_warm_chain_matches_cold_epochs(self, tiny_scenario):
        sc = tiny_scenario
        rng = np.random.default_rng(11)
        levels = np.vstack([sc.workload.arrival_rates
                            * rng.uniform(0.6, 1.0, sc.workload.n_task_types)
                            for _ in range(3)])
        profile = StepProfile(boundaries=np.asarray([60.0, 120.0]),
                              rate_levels=levels)

        def run(warm):
            return run_loop(sc, profile, 180.0, np.random.default_rng(12),
                            ReactionPolicy(warm=warm, **GUARDED))

        warm, cold = run("replay"), run("off")
        assert [e.warm_level for e in cold.intervals] == ["none"] * 3
        assert warm.intervals[0].warm_level == "none"
        assert all(e.warm_level != "none" for e in warm.intervals[1:])
        for w, c in zip(warm.intervals, cold.intervals):
            assert w.t_crac_out_c == c.t_crac_out_c
            assert w.plan_reward_rate == c.plan_reward_rate
            assert w.derated == c.derated
            assert w.metrics.total_reward == c.metrics.total_reward


class TestPinnedRewardRates:
    """Reward rates the loop reproduces bit for bit from the retired
    per-arm epoch controllers (interval and MPC), on their rooms."""

    def test_simulate_room_both_arms(self):
        sc = generate_scenario(scaled_down(PAPER_SET_1, 12), 1)
        profile = ConstantProfile(sc.workload.arrival_rates)
        for arm in ("interval", "mpc"):
            result = run_loop(sc, profile, 300.0, np.random.default_rng(2),
                              ReactionPolicy(controller=arm, epoch_s=60.0))
            assert result.reward_rate == 255.2120183744442, arm

    def test_mpc_trajectory_room(self):
        seed = 20120521
        sc = generate_scenario(scaled_down(PAPER_SET_1, 10), seed)
        profile = FlashCrowdProfile(
            ConstantProfile(base_rates=sc.workload.arrival_rates),
            bursts=((30.0, 30.0, 3.0),))
        policy = ReactionPolicy(
            controller="mpc", tau_s=60.0,
            mpc=MPCConfig(horizon_steps=3, step_s=30.0, tau_s=60.0,
                          settle_factor=3.0))
        result = run_loop(sc, profile, 90.0, np.random.default_rng(seed + 1),
                          policy)
        assert result.reward_rate == 210.3444483154824

    def test_drift_room(self):
        sc = generate_scenario(ScenarioConfig(name="drift", n_nodes=15), 77)
        rates = sc.workload.arrival_rates
        profile = StepProfile(
            boundaries=np.asarray([60.0, 120.0]),
            rate_levels=np.vstack([0.7 * rates, 1.5 * rates, 0.7 * rates]))
        result = run_loop(sc, profile, 180.0, np.random.default_rng(5),
                          ReactionPolicy(epoch_s=60.0, tau_s=10.0))
        assert result.reward_rate == 303.04831447224956
