"""Tests for repro.core.stage1 — the relaxed power-assignment LP."""

import numpy as np
import pytest

from repro import obs
from repro.core.stage1 import (build_arr_functions, distribute_node_power,
                               solve_stage1, solve_stage1_fixed_temps)
from repro.thermal.constraints import ThermalLinearization


@pytest.fixture(scope="module")
def arrs(scenario):
    return build_arr_functions(scenario.datacenter, scenario.workload, 50.0)


@pytest.fixture(scope="module")
def lin(scenario):
    dc = scenario.datacenter
    return ThermalLinearization.build(
        dc.thermal, np.full(dc.n_crac, 15.0), dc.redline_c)


@pytest.fixture(scope="module")
def fixed_solution(scenario, arrs, lin):
    sol = solve_stage1_fixed_temps(scenario.datacenter, arrs, lin,
                                   scenario.p_const)
    assert sol is not None
    return sol


class TestFixedTemps:
    def test_power_cap_respected(self, scenario, fixed_solution, lin):
        total = fixed_solution.node_power_kw.sum() \
            + lin.crac_power(fixed_solution.node_power_kw)
        assert total <= scenario.p_const + 1e-6

    def test_redlines_respected(self, scenario, fixed_solution):
        dc = scenario.datacenter
        assert dc.thermal.is_feasible(fixed_solution.t_crac_out,
                                      fixed_solution.node_power_kw,
                                      dc.redline_c)

    def test_core_powers_within_domain(self, scenario, fixed_solution):
        dc = scenario.datacenter
        for node in dc.nodes:
            p = fixed_solution.core_power_kw[list(node.core_indices)]
            assert np.all(p >= -1e-12)
            assert np.all(p <= node.spec.p0_power_kw + 1e-12)

    def test_node_power_consistent_with_cores(self, scenario,
                                              fixed_solution):
        dc = scenario.datacenter
        for node in dc.nodes:
            core_sum = fixed_solution.core_power_kw[
                list(node.core_indices)].sum()
            assert fixed_solution.node_power_kw[node.index] \
                == pytest.approx(node.spec.base_power_kw + core_sum)

    def test_objective_matches_arr_of_core_powers(self, scenario, arrs,
                                                  fixed_solution):
        """The LP objective equals sum_k ARR(PCORE_k) after the fill."""
        dc = scenario.datacenter
        total = 0.0
        for node in dc.nodes:
            hull = arrs[node.type_index].concave
            total += hull(fixed_solution.core_power_kw[
                list(node.core_indices)]).sum()
        assert total == pytest.approx(fixed_solution.objective, rel=1e-6)

    def test_uses_the_power_budget(self, scenario, fixed_solution, lin):
        """An oversubscribed room should exhaust the cap (within 1%)."""
        total = fixed_solution.node_power_kw.sum() \
            + lin.crac_power(fixed_solution.node_power_kw)
        assert total >= 0.99 * scenario.p_const

    def test_infeasible_cap_returns_none(self, scenario, arrs, lin):
        sol = solve_stage1_fixed_temps(scenario.datacenter, arrs, lin,
                                       p_const=1.0)
        assert sol is None

    def test_too_hot_outlets_return_none(self, scenario, arrs):
        dc = scenario.datacenter
        hot = ThermalLinearization.build(
            dc.thermal, np.full(dc.n_crac, 45.0), dc.redline_c)
        # even base power overheats node inlets at 45 C outlets
        sol = solve_stage1_fixed_temps(dc, arrs, hot, scenario.p_const)
        assert sol is None


class TestLPCache:
    """``lp_cache``/``lp_key`` replay a probe's LP outcome."""

    def _probe(self, scenario, arrs, lin, cache, key, p_const=None):
        return solve_stage1_fixed_temps(
            scenario.datacenter, arrs, lin,
            scenario.p_const if p_const is None else p_const,
            lp_cache=cache, lp_key=key)

    def _counts(self, snap):
        return {name: snap.get(f"{name}.stage1", {"value": 0})["value"]
                for name in ("lp.solves", "lp.warm_hits")}

    def test_replay_returns_stored_solution(self, scenario, arrs, lin):
        cache = {}
        first = self._probe(scenario, arrs, lin, cache, "k")
        (stored,) = cache.values()
        again = self._probe(scenario, arrs, lin, cache, "k")
        assert again.core_power_kw.tobytes() == \
            first.core_power_kw.tobytes()
        assert again.objective == first.objective
        assert cache == {"k": stored}

    def test_new_key_solves_cold(self, scenario, arrs, lin):
        cache = {}
        self._probe(scenario, arrs, lin, cache, "k")
        sol = self._probe(scenario, arrs, lin, cache, "other",
                          p_const=0.9 * scenario.p_const)
        assert sol.objective < cache["k"].objective
        assert cache["other"] is not cache["k"]

    def test_replay_counts_hit_not_solve(self, scenario, arrs, lin):
        """A replayed probe bumps ``lp.warm_hits.stage1`` and never
        ``lp.solves.stage1``: a replay is not a solve."""
        cache = {}
        obs.reset()
        obs.enable()
        try:
            self._probe(scenario, arrs, lin, cache, "k")
            cold = self._counts(obs.current_registry().snapshot())
            self._probe(scenario, arrs, lin, cache, "k")
            warm = self._counts(obs.current_registry().snapshot())
        finally:
            obs.disable()
            obs.reset()
        assert cold == {"lp.solves": 1, "lp.warm_hits": 0}
        assert warm == {"lp.solves": 1, "lp.warm_hits": 1}


class TestDistribution:
    def test_breakpoint_quantization(self, scenario, arrs, fixed_solution):
        """At most one core per node sits strictly between breakpoints."""
        dc = scenario.datacenter
        for node in dc.nodes:
            hull_x = arrs[node.type_index].concave.x
            powers = fixed_solution.core_power_kw[list(node.core_indices)]
            off_bp = sum(
                1 for p in powers
                if not np.any(np.isclose(p, hull_x, atol=1e-9)))
            assert off_bp <= 1

    def test_distribution_conserves_power(self, scenario, arrs):
        dc = scenario.datacenter
        rng = np.random.default_rng(0)
        budgets = rng.uniform(
            0.0, 0.9 * np.asarray([n.n_cores * n.spec.p0_power_kw
                                   for n in dc.nodes]))
        core_power = distribute_node_power(dc, arrs, budgets)
        for node in dc.nodes:
            got = core_power[list(node.core_indices)].sum()
            assert got == pytest.approx(budgets[node.index], abs=1e-9)

    def test_zero_budget_all_off(self, scenario, arrs):
        dc = scenario.datacenter
        core_power = distribute_node_power(dc, arrs,
                                           np.zeros(dc.n_nodes))
        np.testing.assert_allclose(core_power, 0.0)

    def test_full_budget_all_p0(self, scenario, arrs):
        dc = scenario.datacenter
        budgets = np.asarray([n.n_cores * n.spec.p0_power_kw
                              for n in dc.nodes])
        core_power = distribute_node_power(dc, arrs, budgets)
        for node in dc.nodes:
            np.testing.assert_allclose(
                core_power[list(node.core_indices)],
                node.spec.p0_power_kw, atol=1e-9)


class TestSearch:
    def test_fast_search_returns_feasible(self, scenario):
        sol, trace = solve_stage1(scenario.datacenter, scenario.workload,
                                  p_const=scenario.p_const, psi=50.0,
                                  search="fast")
        assert sol.objective > 0
        assert trace.evaluations >= 16   # at least the uniform scan

    def test_full_search_at_least_as_good_as_uniform_grid(self, scenario):
        fast, _ = solve_stage1(scenario.datacenter, scenario.workload,
                               p_const=scenario.p_const, psi=50.0,
                               search="fast")
        full, _ = solve_stage1(scenario.datacenter, scenario.workload,
                               p_const=scenario.p_const, psi=50.0,
                               search="full")
        # both are heuristics over the same grid; they must land within
        # a few percent of each other and never be wildly different
        assert full.objective == pytest.approx(fast.objective, rel=0.05)

    def test_unknown_mode_rejected(self, scenario):
        with pytest.raises(ValueError, match="search mode"):
            solve_stage1(scenario.datacenter, scenario.workload,
                         p_const=scenario.p_const, psi=50.0,
                         search="bogus")

    def test_impossible_cap_raises(self, scenario):
        with pytest.raises(RuntimeError, match="no feasible"):
            solve_stage1(scenario.datacenter, scenario.workload,
                         p_const=0.1, psi=50.0)
