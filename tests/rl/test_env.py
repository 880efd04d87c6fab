"""ThermalSchedulingEnv: determinism, feasibility, API validation, and
the shared epoch step underneath."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.controller import idle_start_t_out, run_epoch
from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.generator import generate_scenario
from repro.rl import GreedyPlanPolicy, ThermalSchedulingEnv

from tests.conftest import SEED


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(scaled_down(PAPER_SET_1, 6), SEED)


def _make_env(scenario, **kwargs):
    defaults = dict(epoch_s=30.0, n_epochs=3, outlet_levels=4, tau_s=10.0)
    defaults.update(kwargs)
    return ThermalSchedulingEnv(scenario.datacenter, scenario.workload,
                                scenario.p_const, **defaults)


def _run_episode(env, policy, seed=0):
    """Full trajectory as a nested plain structure (byte-comparable)."""
    obs, info = env.reset(seed=seed)
    trajectory = [(obs.tolist(), info)]
    terminated = False
    while not terminated:
        obs, reward, terminated, truncated, info = env.step(policy(obs))
        trajectory.append((obs.tolist(), reward, terminated, truncated,
                           info))
    return trajectory


class TestDeterminism:
    def test_same_seed_identical_trajectories(self, scenario):
        env_a = _make_env(scenario)
        env_b = _make_env(scenario)
        traj_a = _run_episode(env_a, GreedyPlanPolicy(env_a), seed=7)
        traj_b = _run_episode(env_b, GreedyPlanPolicy(env_b), seed=7)
        assert traj_a == traj_b

    def test_seed_changes_trace(self, scenario):
        env = _make_env(scenario)
        _, info_a = env.reset(seed=0)
        _, info_b = env.reset(seed=123)
        # different seeds draw different Poisson traces (counts differ
        # with overwhelming probability on a multi-epoch horizon)
        assert info_a["seed"] != info_b["seed"]

    def test_reset_restarts_cleanly(self, scenario):
        env = _make_env(scenario)
        policy = GreedyPlanPolicy(env)
        first = _run_episode(env, policy, seed=3)
        second = _run_episode(env, policy, seed=3)
        assert first == second


class TestGreedyEpisode:
    def test_full_episode_without_violations(self, scenario):
        env = _make_env(scenario)
        policy = GreedyPlanPolicy(env)
        obs, info = env.reset(seed=0)
        assert obs.shape == (env.observation_size,)
        assert info["n_tasks"] >= 0
        steps = 0
        terminated = False
        while not terminated:
            obs, reward, terminated, truncated, info = env.step(policy(obs))
            steps += 1
            assert not truncated
            assert info["steady_margin_c"] >= -1e-6
            assert info["violation_minutes"] == pytest.approx(0.0)
            assert info["power_kw"] <= scenario.p_const * (1 + 1e-6)
            assert reward >= 0.0
        assert steps == env.n_epochs

    def test_greedy_beats_all_off(self, scenario):
        env = _make_env(scenario)
        policy = GreedyPlanPolicy(env)
        greedy = sum(r for _, r, *_ in
                     _run_episode(env, policy, seed=0)[1:])
        off_fill = max(spec.n_pstates
                       for spec in scenario.datacenter.node_types) - 1
        n_types = len(scenario.datacenter.node_types)
        idle = sum(r for _, r, *_ in _run_episode(
            env, lambda obs: (0, tuple([off_fill] * n_types)),
            seed=0)[1:])
        assert greedy >= idle

    def test_step_info_audit_fields(self, scenario):
        env = _make_env(scenario)
        obs, _ = env.reset(seed=0)
        action = GreedyPlanPolicy(env)(obs)
        _, _, _, _, info = env.step(action)
        for key in ("predicted_reward_rate", "steady_margin_c",
                    "violation_minutes", "power_kw", "n_tasks", "epoch"):
            assert key in info
        assert info["epoch"] == 0


class TestValidation:
    def test_step_before_reset_raises(self, scenario):
        env = _make_env(scenario)
        with pytest.raises(RuntimeError, match="reset"):
            env.step((0, (0,) * len(scenario.datacenter.node_types)))

    def test_step_past_episode_end_raises(self, scenario):
        env = _make_env(scenario, n_epochs=1)
        obs, _ = env.reset(seed=0)
        action = GreedyPlanPolicy(env)(obs)
        _, _, terminated, _, _ = env.step(action)
        assert terminated
        with pytest.raises(RuntimeError, match="episode over"):
            env.step(action)

    def test_plan_action_validates_level(self, scenario):
        env = _make_env(scenario)
        n_types = len(scenario.datacenter.node_types)
        with pytest.raises(ValueError, match="out of range"):
            env.plan_action((99, (0,) * n_types))

    def test_plan_action_validates_fill_shape(self, scenario):
        env = _make_env(scenario)
        with pytest.raises(ValueError, match="per node type"):
            env.plan_action((0, (0,)))

    def test_constructor_validation(self, scenario):
        with pytest.raises(ValueError, match="epoch length"):
            _make_env(scenario, epoch_s=0.0)
        with pytest.raises(ValueError, match="at least one epoch"):
            _make_env(scenario, n_epochs=0)

    def test_plan_action_always_feasible(self, scenario):
        env = _make_env(scenario)
        n_types = len(scenario.datacenter.node_types)
        cand, reward = env.plan_action((0, tuple([0] * n_types)))
        if reward >= 0.0:
            assert env.evaluator.is_feasible(cand)



class TestEpochStep:
    """``step`` is the shared epoch step on the repaired plan."""

    @staticmethod
    def _plan(env, action):
        cand, _ = env.plan_action(action)
        return SimpleNamespace(
            t_crac_out=env.evaluator.outlets(cand.outlet_idx),
            pstates=cand.pstates, tc=env.evaluator.finish(cand).tc)

    def test_step_matches_direct_epoch_step(self, scenario):
        env = _make_env(scenario)
        obs, _ = env.reset(seed=5)
        action = GreedyPlanPolicy(env)(obs)
        tasks = env.slices[0]
        direct = run_epoch(scenario.datacenter, scenario.workload,
                           self._plan(env, action),
                           idle_start_t_out(scenario.datacenter), tasks,
                           0.0, env.epoch_s, tau_s=env.tau_s)
        _, reward, _, _, info = env.step(action)
        assert direct.metrics.to_dict() == env.last.metrics.to_dict()
        assert reward == direct.metrics.total_reward
        assert info["violation_minutes"] == direct.violation_minutes
        assert info["n_tasks"] == len(tasks)

    def test_carries_transient_end_state(self, scenario):
        """Epoch k + 1 starts where epoch k's transient ended, not at
        the plan's steady state."""
        env = _make_env(scenario, epoch_s=5.0)
        obs, _ = env.reset(seed=2)
        action = GreedyPlanPolicy(env)(obs)
        env.step(action)
        first = env.last
        assert np.array_equal(env.t_out, first.t_out)
        plan = self._plan(env, action)
        dc = scenario.datacenter
        steady = dc.thermal.steady_state(
            plan.t_crac_out, dc.node_power_kw(plan.pstates)).t_out
        assert not np.allclose(first.t_out, steady)
        second = run_epoch(dc, scenario.workload, plan, first.t_out,
                           env.slices[1], env.epoch_s, 2 * env.epoch_s,
                           tau_s=env.tau_s)
        env.step(action)
        assert np.array_equal(env.t_out, second.t_out)
        assert env.last.metrics.to_dict() == second.metrics.to_dict()
