"""Tests for repro.core.stage3_power — power-aware desired rates."""

import numpy as np
import pytest

from repro.core.stage3 import solve_stage3
from repro.core.stage3_power import solve_stage3_power_aware
from repro.optimize.linprog import InfeasibleError
from repro.power.taskpower import TaskPowerModel, expected_node_power
from repro.thermal.constraints import ThermalLinearization


@pytest.fixture(scope="module")
def lin(scenario, assignment):
    dc = scenario.datacenter
    return ThermalLinearization.build(dc.thermal, assignment.t_crac_out,
                                      dc.redline_c)


@pytest.fixture(scope="module")
def heavy_model(scenario):
    """Compute-heavy mix: every type draws 15% above nominal."""
    t = scenario.workload.n_task_types
    return TaskPowerModel(factors=np.full(t, 1.15), idle_fraction=0.6)


@pytest.fixture(scope="module")
def aware(scenario, assignment, lin, heavy_model):
    return solve_stage3_power_aware(
        scenario.datacenter, scenario.workload, assignment.pstates,
        heavy_model, lin, scenario.p_const)


class TestPowerAwareness:
    def test_respects_cap_under_heavy_mix(self, scenario, assignment, lin,
                                          heavy_model, aware):
        dc, wl = scenario.datacenter, scenario.workload
        p = expected_node_power(dc, wl, assignment.pstates, aware.tc,
                                heavy_model)
        total = p.sum() + lin.crac_power(p)
        assert total <= scenario.p_const * (1 + 1e-6) + 1e-6

    def test_classic_overshoots_where_aware_does_not(self, scenario,
                                                     assignment, lin,
                                                     heavy_model):
        """The motivating failure: classic Stage 3 rates violate the cap
        when every type draws above nominal."""
        dc, wl = scenario.datacenter, scenario.workload
        p = expected_node_power(dc, wl, assignment.pstates, assignment.tc,
                                heavy_model)
        total = p.sum() + lin.crac_power(p)
        # classic budgeting used factor 1.0 and a nearly saturated cap
        assert total > scenario.p_const

    def test_reward_sacrifice_is_bounded(self, assignment, aware):
        """Safety costs some reward but not a collapse."""
        assert aware.reward_rate <= assignment.reward_rate + 1e-6
        assert aware.reward_rate >= 0.5 * assignment.reward_rate

    def test_still_respects_classic_constraints(self, scenario,
                                                assignment, aware):
        dc, wl = scenario.datacenter, scenario.workload
        ecs = wl.ecs[:, dc.core_type, assignment.pstates]
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(aware.tc > 0, aware.tc / ecs, 0.0).sum(axis=0)
        assert np.all(util <= 1.0 + 1e-6)
        assert np.all(aware.tc.sum(axis=1)
                      <= wl.arrival_rates + 1e-6)

    def test_light_mix_matches_classic(self, scenario, assignment, lin):
        """With factors 1.0 and idle saving power, the cap is slack, so
        the power-aware LP reproduces the classic reward."""
        wl = scenario.workload
        neutral = TaskPowerModel(factors=np.ones(wl.n_task_types),
                                 idle_fraction=0.6)
        res = solve_stage3_power_aware(
            scenario.datacenter, wl, assignment.pstates, neutral, lin,
            scenario.p_const)
        assert res.reward_rate == pytest.approx(assignment.reward_rate,
                                                rel=1e-6)

    def test_thermal_rows_hold(self, scenario, assignment, lin,
                               heavy_model, aware):
        dc, wl = scenario.datacenter, scenario.workload
        p = expected_node_power(dc, wl, assignment.pstates, aware.tc,
                                heavy_model)
        assert dc.thermal.is_feasible(assignment.t_crac_out, p,
                                      dc.redline_c)


class TestValidation:
    def test_infeasible_idle_raises(self, scenario, assignment, lin,
                                    heavy_model):
        with pytest.raises(InfeasibleError, match="idle room"):
            solve_stage3_power_aware(
                scenario.datacenter, scenario.workload,
                assignment.pstates, heavy_model, lin, p_const=0.1)

    def test_dimension_check(self, scenario, assignment, lin):
        bad = TaskPowerModel(factors=np.ones(2))
        with pytest.raises(ValueError, match="dimension"):
            solve_stage3_power_aware(
                scenario.datacenter, scenario.workload,
                assignment.pstates, bad, lin, scenario.p_const)

    @pytest.mark.parametrize("solver", ["classic", "power_aware"])
    @pytest.mark.parametrize("pstate", ["-1", "eta"])
    def test_out_of_range_pstate_rejected(self, scenario, assignment, lin,
                                          heavy_model, solver, pstate):
        """Both Stage 3 solvers reject P-states outside ``[0, eta)``;
        a -1 must not wrap around into another class."""
        dc, wl = scenario.datacenter, scenario.workload
        ps = assignment.pstates.copy()
        type1 = dc.core_type == 1
        assert type1.any()
        ps[type1] = -1 if pstate == "-1" else wl.n_pstates
        with pytest.raises(ValueError, match="out of ECS range"):
            if solver == "classic":
                solve_stage3(dc, wl, ps)
            else:
                solve_stage3_power_aware(dc, wl, ps, heavy_model, lin,
                                         scenario.p_const)
