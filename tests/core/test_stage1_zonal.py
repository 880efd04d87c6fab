"""Tests for repro.core.stage1_zonal — zonal Stage 1 decomposition.

The decomposition must (a) return plans that are feasible for the
*monolithic* thermal model, (b) match the monolithic LP optimum on the
fig6-style rooms the golden suite pins, and (c) replay in O(1) when
only arrival rates change (the 100x serve-loop contract).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.stage1 import build_arr_functions, solve_stage1_fixed_temps
from repro.core.stage1_zonal import ZonalState, solve_stage1_zonal
from repro.datacenter import build_datacenter
from repro.datacenter.power import total_power
from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.generator import generate_scenario
from repro.optimize.linprog import InfeasibleError
from repro.thermal import attach_zonal_thermal
from repro.thermal.constraints import ThermalLinearization
from repro.workload import generate_workload

from tests.conftest import SEED
from tests.thermal.twin import backend_twin

#: The monolithic search optimum for the fig6 scenario below — kept
#: fixed so zonal and monolithic are compared at identical outlets.
T_FIXED = np.asarray([18.0, 17.0, 17.0])


@pytest.fixture(scope="module")
def fig6_scenario():
    return generate_scenario(scaled_down(PAPER_SET_1, 30), 1000)


def _monolithic_objective(sc, t):
    arrs = build_arr_functions(sc.datacenter, sc.workload, 50.0)
    lin = ThermalLinearization.build(
        sc.datacenter.require_thermal(), t, sc.datacenter.redline_c,
        sc.datacenter.cracs[0].cop_model)
    sol = solve_stage1_fixed_temps(sc.datacenter, arrs, lin, sc.p_const)
    assert sol is not None
    return sol.objective


class TestAgainstMonolithic:
    def test_matches_monolithic_lp_on_fig6_room(self, fig6_scenario):
        """Dense-alpha (worst-case coupling): the coordination master LP
        must recover the exact monolithic optimum."""
        sc = fig6_scenario
        want = _monolithic_objective(sc, T_FIXED)
        result, _ = solve_stage1_zonal(
            sc.datacenter, sc.workload, p_const=sc.p_const,
            t_crac_out=T_FIXED)
        assert result.objective == pytest.approx(want, rel=1e-6)
        assert result.repair_scale == pytest.approx(1.0)

    def test_plan_feasible_for_full_model(self, fig6_scenario):
        sc = fig6_scenario
        model = sc.datacenter.require_thermal()
        result, _ = solve_stage1_zonal(
            sc.datacenter, sc.workload, p_const=sc.p_const,
            t_crac_out=T_FIXED)
        assert model.is_feasible(T_FIXED, result.node_power_kw,
                                 sc.datacenter.redline_c)
        assert total_power(sc.datacenter, T_FIXED,
                           result.node_power_kw).total \
            <= sc.p_const + 1e-6

    def test_matches_monolithic_on_truly_zonal_room(self):
        """Block-sparse alpha: zone LPs see the whole coupling, so the
        sweeps converge fast and the result is exact as well."""
        rng = np.random.default_rng(5)
        dc = build_datacenter(n_nodes=30, n_crac=3, rng=rng)
        attach_zonal_thermal(dc, backend="sparse")
        workload = generate_workload(dc, np.random.default_rng(6))
        t = np.full(3, 16.0)
        p_off = total_power(dc, t, dc.node_power_kw(
            dc.all_off_pstates())).total
        p_full = total_power(dc, t, dc.node_power_kw(
            dc.all_p0_pstates())).total
        cap = p_off + 0.6 * (p_full - p_off)
        result, _ = solve_stage1_zonal(dc, workload, p_const=cap,
                                       t_crac_out=t)
        arrs = build_arr_functions(dc, workload, 50.0)
        lin = ThermalLinearization.build(
            backend_twin(dc.require_thermal(), "dense"), t, dc.redline_c,
            dc.cracs[0].cop_model)
        mono = solve_stage1_fixed_temps(dc, arrs, lin, cap)
        assert mono is not None
        assert result.objective == pytest.approx(mono.objective, rel=1e-6)
        assert result.sweeps <= 3


class TestWarmReplay:
    def test_identical_inputs_replay_verbatim(self, fig6_scenario):
        from repro import obs

        sc = fig6_scenario
        result, state = solve_stage1_zonal(
            sc.datacenter, sc.workload, p_const=sc.p_const,
            t_crac_out=T_FIXED)
        with obs.capture() as snapshot:
            again, state2 = solve_stage1_zonal(
                sc.datacenter, sc.workload, p_const=sc.p_const,
                t_crac_out=T_FIXED, warm=state)
        assert again is result
        assert state2 is state
        metrics = snapshot()["metrics"]
        assert metrics["stage1.zonal_replays"]["value"] == 1

    def test_rate_only_change_still_replays(self, fig6_scenario):
        """Stage 1 never reads arrival rates — the serve loop's rate
        drift must not invalidate the warm state."""
        from dataclasses import replace

        sc = fig6_scenario
        result, state = solve_stage1_zonal(
            sc.datacenter, sc.workload, p_const=sc.p_const,
            t_crac_out=T_FIXED)
        drifted = replace(
            sc.workload,
            arrival_rates=sc.workload.arrival_rates * 1.7)
        again, _ = solve_stage1_zonal(
            sc.datacenter, drifted, p_const=sc.p_const,
            t_crac_out=T_FIXED, warm=state)
        assert again is result

    def test_cap_change_reuses_structure_but_resolves(self, fig6_scenario):
        sc = fig6_scenario
        result, state = solve_stage1_zonal(
            sc.datacenter, sc.workload, p_const=sc.p_const,
            t_crac_out=T_FIXED)
        blocks = state.blocks
        tighter, state2 = solve_stage1_zonal(
            sc.datacenter, sc.workload, p_const=0.9 * sc.p_const,
            t_crac_out=T_FIXED, warm=state)
        assert tighter is not result
        assert tighter.objective < result.objective
        assert state2 is state
        assert state2.blocks is blocks        # structure caches reused

    def test_fresh_state_built_without_warm(self, fig6_scenario):
        sc = fig6_scenario
        _, state = solve_stage1_zonal(
            sc.datacenter, sc.workload, p_const=sc.p_const,
            t_crac_out=T_FIXED)
        assert isinstance(state, ZonalState)
        assert state.result is not None
        assert state.solve_key is not None


class TestValidationAndInfeasibility:
    def test_wrong_outlet_shape(self, fig6_scenario):
        sc = fig6_scenario
        with pytest.raises(ValueError, match="outlet temperatures"):
            solve_stage1_zonal(sc.datacenter, sc.workload,
                               p_const=sc.p_const,
                               t_crac_out=np.asarray([18.0]))

    def test_cap_below_base_power_infeasible(self, fig6_scenario):
        sc = fig6_scenario
        with pytest.raises(InfeasibleError, match="base power"):
            solve_stage1_zonal(sc.datacenter, sc.workload, p_const=1.0,
                               t_crac_out=T_FIXED)


class TestMemory:
    #: Bound on the Python-heap peak of one cold solve on the 600-node
    #: room below.  Dense cut rows peaked at ~15 MB there; CSR rows and
    #: array-backed LP triplets stay near 7 MB.
    PEAK_MB = 10.0

    def test_cold_solve_peak_stays_bounded(self):
        """A node's gain row lives in its own zone: the cut rows and the
        master LP must be stored sparse, not as dense rows or Python
        scalars."""
        rng = np.random.default_rng(7)
        dc = build_datacenter(n_nodes=600, n_crac=12, rng=rng)
        attach_zonal_thermal(dc)
        workload = generate_workload(dc, rng)
        t = np.full(12, 18.0)
        p_off = total_power(dc, t, dc.node_power_kw(
            dc.all_off_pstates())).total
        p_full = total_power(dc, t, dc.node_power_kw(
            dc.all_p0_pstates())).total
        cap = p_off + 0.6 * (p_full - p_off)
        tracemalloc.start()
        try:
            result, _ = solve_stage1_zonal(dc, workload, p_const=cap,
                                           t_crac_out=t, max_sweeps=2)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert result.repair_scale == 1.0
        assert peak_mb <= self.PEAK_MB, f"cold zonal peak {peak_mb:.1f} MB"
