"""Tests for repro.datacenter.power — total power and Eq. 17/18 bounds."""

import copy
import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.datacenter import build_datacenter
from repro.datacenter.power import power_bounds, total_power
from repro.optimize.search import coarse_to_fine_search
from repro.power.cop import CoPModel
from repro.power.crac import crac_power_kw
from repro.thermal import attach_thermal_model


class TestTotalPower:
    def test_breakdown_sums(self, small_dc):
        p = small_dc.node_power_kw(small_dc.all_p0_pstates())
        b = total_power(small_dc, np.full(small_dc.n_crac, 15.0), p)
        assert b.total == pytest.approx(b.compute_total + b.cooling_total)
        assert b.compute_total == pytest.approx(p.sum())

    def test_cooling_positive_under_load(self, small_dc):
        p = small_dc.node_power_kw(small_dc.all_p0_pstates())
        b = total_power(small_dc, np.full(small_dc.n_crac, 15.0), p)
        assert b.cooling_total > 0

    def test_warmer_outlets_cheaper_cooling(self, small_dc):
        p = small_dc.node_power_kw(small_dc.all_p0_pstates())
        cold = total_power(small_dc, np.full(small_dc.n_crac, 12.0), p)
        warm = total_power(small_dc, np.full(small_dc.n_crac, 18.0), p)
        assert warm.cooling_total < cold.cooling_total

    def test_cooling_tracks_compute_load(self, small_dc):
        """In steady state CRACs remove exactly the node heat, so cooling
        power scales with compute power at fixed outlets."""
        t = np.full(small_dc.n_crac, 15.0)
        lo = total_power(small_dc, t, small_dc.node_power_kw(
            small_dc.all_off_pstates()))
        hi = total_power(small_dc, t, small_dc.node_power_kw(
            small_dc.all_p0_pstates()))
        assert hi.cooling_total > lo.cooling_total


class TestPowerBounds:
    def test_ordering(self, small_dc):
        b = power_bounds(small_dc)
        assert 0 < b.p_min < b.p_const < b.p_max

    def test_eq18_midpoint(self, small_dc):
        b = power_bounds(small_dc)
        assert b.p_const == pytest.approx((b.p_min + b.p_max) / 2)

    def test_pmin_at_least_base_power(self, small_dc):
        b = power_bounds(small_dc)
        assert b.p_min >= small_dc.node_base_power.sum()

    def test_pmax_at_least_flat_out_compute(self, small_dc):
        b = power_bounds(small_dc)
        flat_out = small_dc.node_power_kw(small_dc.all_p0_pstates()).sum()
        assert b.p_max >= flat_out

    def test_min_prefers_warm_outlets(self, small_dc):
        """Minimizing power pushes outlet temps toward the feasible top."""
        b = power_bounds(small_dc)
        lo, hi = small_dc.cracs[0].outlet_range_c
        assert np.all(b.t_out_min >= lo)
        assert np.all(b.t_out_min <= hi)
        # idle room: very little heat, so warm outlets are optimal
        assert b.t_out_min.mean() > (lo + hi) / 2


# ----------------------------------------------------------------------
# Oracle: the Eq. 17 search as first written — every probe solves one
# steady state for the redline check and a second one for the pricing,
# and prices the CRACs one at a time.
def _oracle_total(dc, t_vec, node_power):
    state = dc.thermal.steady_state(t_vec, node_power)
    crac_kw = np.asarray([
        crac_power_kw(c.flow_m3s, state.t_in[i], t_vec[i],
                      cop_model=c.cop_model)
        for i, c in enumerate(dc.cracs)])
    return float(node_power.sum()) + float(crac_kw.sum())


def _oracle_min_total(dc, node_power, probes):
    lows = [c.outlet_range_c[0] for c in dc.cracs]
    highs = [c.outlet_range_c[1] for c in dc.cracs]

    def objective(t_vec):
        probes.append(t_vec.copy())
        if not dc.thermal.is_feasible(t_vec, node_power, dc.redline_c):
            return None
        return _oracle_total(dc, t_vec, node_power)

    try:
        result = coarse_to_fine_search(
            objective, dc.n_crac, min(lows), max(highs),
            coarse_step=5.0, final_step=1.0, maximize=False)
    except RuntimeError:
        t_cold = np.asarray(lows, dtype=float)
        return _oracle_total(dc, t_cold, node_power), t_cold, True
    return result.score, result.temperatures, False


def _oracle_bounds(dc):
    probes: list = []
    p_min, t_min, off_fallback = _oracle_min_total(
        dc, dc.node_power_kw(dc.all_off_pstates()), probes)
    p_max, t_max, p0_fallback = _oracle_min_total(
        dc, dc.node_power_kw(dc.all_p0_pstates()), probes)
    return (p_min, p_max, t_min, t_max, len(probes),
            off_fallback + p0_fallback)


def _room(n_nodes, seed, **kwargs):
    rng = np.random.default_rng(seed)
    dc = build_datacenter(n_nodes=n_nodes, n_crac=3, rng=rng, **kwargs)
    attach_thermal_model(dc, rng=rng)
    return dc


def _mixed_cop_room():
    """Three CRACs with three different CoP curves."""
    dc = copy.copy(_room(15, 21))
    dc.cracs = [dataclasses.replace(c, cop_model=CoPModel(a2=a2))
                for c, a2 in zip(dc.cracs, (0.0068, 0.0060, 0.0075))]
    return dc


ORACLE_ROOMS = {
    "20-nodes": lambda: _room(20, 3),
    "uneven-cracs": lambda: _room(15, 77, crac_flow_weights=(3.0, 2.0, 1.0)),
    "partial-racks": lambda: _room(24, 5),
    "mixed-cop": _mixed_cop_room,
    # 15 C below the real redlines no outlet keeps the room feasible
    "infeasible": lambda: _room(20, 3).with_redline_margin(15.0),
}


class TestPowerBoundsOracle:
    """Pricing probes from one ``G @ P`` per search and all CRACs at
    once changes no bit of the Eq. 17/18 bounds."""

    @pytest.mark.parametrize("name", sorted(ORACLE_ROOMS))
    def test_bit_identical_to_two_solve_oracle(self, name):
        dc = ORACLE_ROOMS[name]()
        p_min, p_max, t_min, t_max, n_probes, fallbacks = _oracle_bounds(dc)
        with obs.capture() as snapshot:
            b = power_bounds(dc)
        assert b.p_min == p_min
        assert b.p_max == p_max
        assert np.array_equal(b.t_out_min, t_min)
        assert np.array_equal(b.t_out_max, t_max)
        assert (fallbacks > 0) == (name == "infeasible")
        # probes solve no steady state; each fallback's price solves one
        calls = snapshot()["metrics"].get("thermal.steady_state_calls",
                                          {"value": 0})["value"]
        assert n_probes > 0 and calls == fallbacks

    @pytest.mark.parametrize("paper_set, n_nodes, seed", [
        ("1", 60, 2), ("3", 40, 5)])
    def test_generated_rooms_match_oracle(self, paper_set, n_nodes, seed):
        from repro.experiments import (PAPER_SET_1, PAPER_SET_3,
                                       generate_scenario, scaled_down)

        sets = {"1": PAPER_SET_1, "3": PAPER_SET_3}
        dc = generate_scenario(scaled_down(sets[paper_set], n_nodes),
                               seed).datacenter
        p_min, p_max, t_min, t_max, _, _ = _oracle_bounds(dc)
        b = power_bounds(dc)
        assert (b.p_min, b.p_max) == (p_min, p_max)
        assert np.array_equal(b.t_out_min, t_min)
        assert np.array_equal(b.t_out_max, t_max)

    @pytest.mark.parametrize("name", ["20-nodes", "mixed-cop"])
    def test_total_power_matches_per_crac_pricing(self, name):
        dc = ORACLE_ROOMS[name]()
        p = dc.node_power_kw(dc.all_p0_pstates())
        t = np.asarray([14.0, 17.0, 20.0])
        assert total_power(dc, t, p).total == _oracle_total(dc, t, p)
