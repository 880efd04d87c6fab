"""Tests for repro.control.mpc — planner ladder, warm chains, MPC arm."""

import json

import numpy as np
import pytest

from repro import obs
from repro.control.mpc import MPCConfig, MPCPlanner
from repro.core.controller import ShedPlan, idle_start_t_out
from repro.experiments import PAPER_SET_1, generate_scenario, scaled_down
from repro.faults import FaultAwareController, FaultSchedule, ReactionPolicy
from repro.workload import (ConstantProfile, FlashCrowdProfile,
                            generate_nonstationary_trace)

from tests.conftest import SEED

N_NODES = 8
STEP_S = 30.0

#: Short prediction tail so unit tests stay fast (the default integrates
#: 10 * tau per terminal step); semantics are unchanged.
FAST = dict(step_s=STEP_S, tau_s=60.0, settle_factor=3.0)


@pytest.fixture(scope="module")
def sc():
    return generate_scenario(scaled_down(PAPER_SET_1, N_NODES), SEED)


@pytest.fixture(scope="module")
def idle_t_out(sc):
    return idle_start_t_out(sc.datacenter)


def _forecast(sc, steps=3):
    return np.tile(sc.workload.arrival_rates, (steps, 1))


class TestConfig:
    def test_defaults_valid(self):
        MPCConfig()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(horizon_steps=0), "horizon_steps"),
        (dict(step_s=0.0), "step_s"),
        (dict(tau_s=-1.0), "tau_s"),
        (dict(precool_step_c=0.0), "precool_step_c"),
        (dict(max_precool=-1), "max_precool"),
        (dict(derate_step=1.0), "derate_step"),
        (dict(max_derate=-2), "max_derate"),
        (dict(settle_factor=0.0), "settle_factor"),
        (dict(on_exhausted="panic"), "on_exhausted"),
        (dict(warm="sometimes"), "warm"),
    ])
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MPCConfig(**kwargs)


class TestPlannerLadder:
    def test_cold_start_commits_first_plan_unguarded(self, sc):
        planner = MPCPlanner(MPCConfig(**FAST))
        decision = planner.plan(sc.datacenter, sc.workload, sc.p_const,
                                None, _forecast(sc))
        assert decision.predicted_overshoot_c is None
        assert decision.precooled == 0 and decision.derated == 0
        assert not decision.shed
        assert decision.lookahead_steps == 3
        assert decision.plan.reward_rate > 0

    def test_clean_transition_commits_level_zero(self, sc, idle_t_out):
        """From the idle (cold) room the as-planned transition is clean:
        no escalation, no predicted violation."""
        planner = MPCPlanner(MPCConfig(**FAST))
        decision = planner.plan(sc.datacenter, sc.workload, sc.p_const,
                                idle_t_out, _forecast(sc))
        assert decision.precooled == 0 and decision.derated == 0
        assert decision.predicted_overshoot_c <= 1e-6
        assert decision.predicted_violation_min == 0.0

    def test_vector_forecast_is_horizon_one(self, sc, idle_t_out):
        planner = MPCPlanner(MPCConfig(**FAST))
        decision = planner.plan(sc.datacenter, sc.workload, sc.p_const,
                                idle_t_out, sc.workload.arrival_rates)
        assert decision.lookahead_steps == 1

    def test_hot_start_escalates_precool_before_derate(self, sc):
        """A room started above its redlines forces the ladder: the
        planner reaches for pre-cool (full cap) before touching derates,
        and commits the least-overshooting candidate."""
        dc = sc.datacenter
        model = dc.require_thermal()
        hot_out = np.full(dc.n_crac, 24.0)
        hot_power = dc.node_power_kw(dc.all_p0_pstates())
        t_hot = model.steady_state(hot_out, hot_power).t_out
        planner = MPCPlanner(MPCConfig(max_precool=2, max_derate=2, **FAST))
        obs.reset()
        obs.enable()
        try:
            decision = planner.plan(dc, sc.workload, sc.p_const, t_hot,
                                    _forecast(sc))
            snap = obs.current_registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert decision.predicted_overshoot_c > 0
        assert snap["mpc.precools"]["value"] >= 1
        assert not decision.shed

    def test_infeasible_cap_degrades_to_shed(self, sc, idle_t_out):
        planner = MPCPlanner(MPCConfig(**FAST))
        decision = planner.plan(sc.datacenter, sc.workload, 1e-3,
                                idle_t_out, _forecast(sc))
        assert decision.shed
        assert isinstance(decision.plan, ShedPlan)
        assert decision.plan.reward_rate == 0.0
        assert decision.warm_level == "shed"
        assert np.all(decision.plan.pstates
                      == sc.datacenter.all_off_pstates())

    def test_infeasible_cap_raises_when_asked(self, sc, idle_t_out):
        planner = MPCPlanner(MPCConfig(on_exhausted="raise", **FAST))
        with pytest.raises(RuntimeError):
            planner.plan(sc.datacenter, sc.workload, 1e-3, idle_t_out,
                         _forecast(sc))

    def test_bad_first_step_rejected(self, sc, idle_t_out):
        planner = MPCPlanner(MPCConfig(**FAST))
        with pytest.raises(ValueError, match="first_step_s"):
            planner.plan(sc.datacenter, sc.workload, sc.p_const,
                         idle_t_out, _forecast(sc), first_step_s=0.0)


class TestWarmChains:
    def test_lookahead_engages_warm_starts(self, sc, idle_t_out):
        """The acceptance criterion: rates-only horizon steps replay the
        warm chain (lp.warm_hits > 0), and repeat decisions reuse the
        pooled state across calls."""
        planner = MPCPlanner(MPCConfig(**FAST))
        obs.reset()
        obs.enable()
        try:
            first = planner.plan(sc.datacenter, sc.workload, sc.p_const,
                                 idle_t_out, _forecast(sc))
            second = planner.plan(sc.datacenter, sc.workload, sc.p_const,
                                  idle_t_out, _forecast(sc))
            snap = obs.current_registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        warm_hits = sum(v["value"] for name, v in snap.items()
                        if name.startswith("lp.warm_hits"))
        assert warm_hits > 0
        assert first.warm_level == "none"     # pool was empty
        assert second.warm_level in ("stage1", "request")
        assert snap["mpc.lookahead_solves"]["value"] == 6
        assert snap["mpc.decisions"]["value"] == 2

    def test_warm_off_never_pools(self, sc, idle_t_out):
        planner = MPCPlanner(MPCConfig(warm="off", **FAST))
        planner.plan(sc.datacenter, sc.workload, sc.p_const, idle_t_out,
                     _forecast(sc))
        decision = planner.plan(sc.datacenter, sc.workload, sc.p_const,
                                idle_t_out, _forecast(sc))
        assert decision.warm_level == "none"

    def test_warm_replay_plans_match_cold(self, sc, idle_t_out):
        """Warm reuse is value-exact: the committed operating point is
        bit-identical with and without the chain."""
        warm = MPCPlanner(MPCConfig(**FAST))
        warm.plan(sc.datacenter, sc.workload, sc.p_const, idle_t_out,
                  _forecast(sc))
        warm_d = warm.plan(sc.datacenter, sc.workload, sc.p_const,
                           idle_t_out, _forecast(sc))
        cold_d = MPCPlanner(MPCConfig(warm="off", **FAST)).plan(
            sc.datacenter, sc.workload, sc.p_const, idle_t_out,
            _forecast(sc))
        np.testing.assert_array_equal(warm_d.plan.t_crac_out,
                                      cold_d.plan.t_crac_out)
        np.testing.assert_array_equal(warm_d.plan.pstates,
                                      cold_d.plan.pstates)
        assert warm_d.plan.reward_rate == cold_d.plan.reward_rate


def _run_loop(sc, profile, horizon_s, controller="mpc", **policy):
    """One trace realization, replayed through the epoch loop."""
    trace = generate_nonstationary_trace(sc.workload, profile, horizon_s,
                                         np.random.default_rng(SEED + 1))
    if controller == "mpc":
        policy.setdefault("mpc", MPCConfig(**FAST))
        policy.setdefault("tau_s", FAST["tau_s"])
    loop = FaultAwareController(
        sc.datacenter, sc.workload, sc.p_const,
        ReactionPolicy(controller=controller, epoch_s=STEP_S, **policy))
    return loop.run(trace, horizon_s, FaultSchedule.empty(),
                    profile=profile)


class TestController:
    """The MPC arm of the epoch loop (``ReactionPolicy(controller="mpc")``)."""

    def test_run_over_constant_profile(self, sc):
        profile = ConstantProfile(base_rates=sc.workload.arrival_rates)
        result = _run_loop(sc, profile, 3 * STEP_S)
        assert len(result.intervals) == 3
        assert result.total_reward > 0
        assert result.reward_rate > 0
        assert result.intervals[0].warm_level == "none"
        assert result.intervals[0].predicted_overshoot_c is None
        assert all(e.warm_level in ("stage1", "request")
                   for e in result.intervals[1:])
        assert all(e.predicted_overshoot_c is not None
                   and e.transient_overshoot_c is not None
                   for e in result.intervals[1:])
        assert result.shed_intervals == 0

    def test_matches_interval_controller_on_easy_room(self, sc):
        """On a clean constant-rate room neither arm escalates, and both
        replay the same trace through the same DES — the MPC run earns
        the interval arm's reward."""
        profile = ConstantProfile(base_rates=sc.workload.arrival_rates)
        mpc = _run_loop(sc, profile, 2 * STEP_S)
        interval = _run_loop(sc, profile, 2 * STEP_S, controller="interval")
        assert mpc.total_reward == pytest.approx(interval.total_reward)
        assert mpc.violation_minutes == 0.0
        assert interval.violation_minutes == 0.0

    def test_to_dict_is_json_clean(self, sc):
        profile = FlashCrowdProfile(
            ConstantProfile(base_rates=sc.workload.arrival_rates),
            bursts=((STEP_S, STEP_S, 3.0),))
        result = _run_loop(sc, profile, 2 * STEP_S)
        doc = json.loads(json.dumps(result.to_dict(), allow_nan=False))
        assert doc["schema"] == 1
        assert len(doc["intervals"]) == 2
        assert doc["total_reward"] == pytest.approx(result.total_reward)
        for epoch in doc["intervals"]:
            for key in ("predicted_overshoot_c", "transient_overshoot_c",
                        "violation_minutes", "warm_level", "precooled",
                        "t_crac_out_c"):
                assert key in epoch, key

    def test_invalid_inputs_rejected(self, sc):
        with pytest.raises(ValueError, match="power cap"):
            FaultAwareController(sc.datacenter, sc.workload, 0.0,
                                 ReactionPolicy(controller="mpc"))
        with pytest.raises(ValueError, match="forecast"):
            ReactionPolicy(controller="mpc", forecast="psychic")
        loop = FaultAwareController(sc.datacenter, sc.workload, sc.p_const,
                                    ReactionPolicy(controller="mpc"))
        with pytest.raises(ValueError, match="horizon"):
            loop.run([], 0.0, FaultSchedule.empty())
