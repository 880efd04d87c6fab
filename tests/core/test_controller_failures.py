"""Failure-injection tests for the transient guard's derate loop."""

import numpy as np
import pytest

from repro.core.assignment import three_stage_assignment
from repro.core.controller import plan_with_transient_guard
from repro.experiments import ScenarioConfig, generate_scenario


@pytest.fixture(scope="module")
def setup():
    sc = generate_scenario(ScenarioConfig(name="fi", n_nodes=10), 33)

    def guard(t_out_prev):
        return plan_with_transient_guard(
            sc.datacenter, sc.workload, sc.p_const, t_out_prev,
            tau_s=10.0, transient_horizon_s=60.0, max_derate=3,
            on_exhausted="raise")

    return sc, guard


class TestTransientGuard:
    def test_cool_start_needs_no_derating(self, setup):
        sc, guard = setup
        dc = sc.datacenter
        idle = dc.node_power_kw(dc.all_off_pstates())
        cold = dc.thermal.steady_state(
            np.full(dc.n_crac, 15.0), idle).t_out
        plan, derated, overshoot = guard(cold)
        assert derated == 0
        assert overshoot <= 1e-6
        plan.verify(dc, sc.p_const)

    def test_overheated_start_exhausts_derating(self, setup):
        """An initial state already above the redlines cannot be fixed
        by derating the *new* plan — the guard must give up loudly
        rather than commit an unsafe transition."""
        sc, guard = setup
        scorching = np.full(sc.datacenter.n_units, 60.0)
        with pytest.raises(RuntimeError, match="derating"):
            guard(scorching)

    def test_derating_shrinks_the_plan(self, setup):
        """Direct check of the derate mechanism: each step multiplies
        the cap by (1 - derate_step), so a derated plan draws less."""
        sc, _ = setup
        full = three_stage_assignment(sc.datacenter, sc.workload,
                                      sc.p_const, psi=50.0)
        derated = three_stage_assignment(sc.datacenter, sc.workload,
                                         0.9 * sc.p_const, psi=50.0)
        full_power = full.power(sc.datacenter).total
        derated_power = derated.power(sc.datacenter).total
        assert derated_power <= full_power + 1e-6
        assert derated.reward_rate <= full.reward_rate + 1e-6
