"""Warm-start equivalence suite (the SolveState contract).

The contract under test (see :mod:`repro.core.api`): a warm-started
solve never changes *values*, only speed — identical requests replay
bit-identically, and rate- and cap-perturbed requests match their cold
solves bit-for-bit.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import SolveOptions, SolveRequest, solve
from repro.core.warmstart import compute_digests

RATE_BUMP = 1.07
CAP_SHRINK = 0.97


def _assert_bit_identical(a, b):
    """Every numeric artifact of the two outcomes is exactly equal."""
    assert np.array_equal(a.t_crac_out, b.t_crac_out)
    assert np.array_equal(a.pstates, b.pstates)
    assert np.array_equal(a.tc, b.tc)
    assert a.reward_rate == b.reward_rate


@pytest.fixture(scope="module")
def base_request(scenario):
    return SolveRequest(scenario.datacenter, scenario.workload,
                        scenario.p_const)


@pytest.fixture(scope="module")
def cold(base_request):
    return solve(base_request)


class TestIdenticalRequest:
    def test_replay_is_bit_identical(self, base_request, cold):
        warm = solve(replace(base_request, warm_start=cold.state))
        _assert_bit_identical(cold, warm)
        assert warm.state.runtime.level == "request"

    def test_replay_after_pickle_round_trip(self, base_request, cold):
        state = pickle.loads(pickle.dumps(cold.state))
        warm = solve(replace(base_request, warm_start=state))
        _assert_bit_identical(cold, warm)
        # an unpickled state has no stored outcome, so the replay
        # downgrades to the (still bit-exact) stage1 level
        assert warm.state.runtime.level == "stage1"


class TestRatePerturbed:
    def test_bit_identical_to_cold(self, base_request, cold, scenario):
        wl = replace(scenario.workload,
                     arrival_rates=scenario.workload.arrival_rates
                     * RATE_BUMP)
        perturbed = replace(base_request, workload=wl)
        cold_p = solve(perturbed)
        warm_p = solve(replace(perturbed, warm_start=cold.state))
        _assert_bit_identical(cold_p, warm_p)
        assert warm_p.state.runtime.level == "stage1"

    def test_chained_ticks_stay_exact(self, base_request, scenario):
        """A rolling chain of rate changes never drifts from cold."""
        state = None
        rng = np.random.default_rng(7)
        for _ in range(4):
            factors = rng.uniform(0.8, 1.2,
                                  scenario.workload.n_task_types)
            wl = replace(scenario.workload,
                         arrival_rates=scenario.workload.arrival_rates
                         * factors)
            req = replace(base_request, workload=wl)
            warm = solve(replace(req, warm_start=state))
            cold_ref = solve(req)
            _assert_bit_identical(cold_ref, warm)
            state = warm.state


class TestCapPerturbed:
    def test_default_options_bit_identical(self, base_request, cold,
                                           scenario):
        cap = scenario.p_const * CAP_SHRINK
        perturbed = replace(base_request, p_const=cap)
        cold_p = solve(perturbed)
        warm_p = solve(replace(perturbed, warm_start=cold.state))
        _assert_bit_identical(cold_p, warm_p)
        assert warm_p.state.runtime.level == "structure"


class TestSolveStateSerialization:
    def test_pickle_drops_runtime(self, cold):
        clone = pickle.loads(pickle.dumps(cold.state))
        assert clone.runtime is None
        assert clone.digests == cold.state.digests


class TestDigests:
    def test_rate_change_moves_only_request(self, scenario):
        opt = SolveOptions()
        a = compute_digests(scenario.datacenter, scenario.workload,
                            scenario.p_const, opt)
        wl = replace(scenario.workload,
                     arrival_rates=scenario.workload.arrival_rates * 1.1)
        b = compute_digests(scenario.datacenter, wl, scenario.p_const, opt)
        assert a.structure == b.structure
        assert a.stage1 == b.stage1
        assert a.request != b.request

    def test_cap_change_moves_stage1_not_structure(self, scenario):
        opt = SolveOptions()
        a = compute_digests(scenario.datacenter, scenario.workload,
                            scenario.p_const, opt)
        b = compute_digests(scenario.datacenter, scenario.workload,
                            scenario.p_const * 0.9, opt)
        assert a.structure == b.structure
        assert a.stage1 != b.stage1

    def test_option_change_moves_structure(self, scenario):
        a = compute_digests(scenario.datacenter, scenario.workload,
                            scenario.p_const, SolveOptions())
        b = compute_digests(scenario.datacenter, scenario.workload,
                            scenario.p_const, SolveOptions(psi=25.0))
        assert a.structure != b.structure

class TestBestPsiWarm:
    def test_children_replay_bit_identically(self, scenario):
        req = SolveRequest(scenario.datacenter, scenario.workload,
                           scenario.p_const)
        cold_r = solve(req, method="best_psi")
        warm_r = solve(replace(req, warm_start=cold_r.state),
                       method="best_psi")
        assert set(cold_r.by_psi) == set(warm_r.by_psi)
        for psi in cold_r.by_psi:
            _assert_bit_identical(cold_r.by_psi[psi], warm_r.by_psi[psi])
        assert set(warm_r.state.children) == {"25.0", "50.0"}

    def test_wrong_method_state_is_ignored(self, scenario, cold):
        req = SolveRequest(scenario.datacenter, scenario.workload,
                           scenario.p_const, warm_start=cold.state)
        result = solve(req, method="baseline")
        ref = solve(replace(req, warm_start=None), method="baseline")
        assert result.reward_rate == ref.reward_rate


class TestGenericReplay:
    def test_identical_baseline_request_replays(self, scenario):
        req = SolveRequest(scenario.datacenter, scenario.workload,
                           scenario.p_const)
        first = solve(req, method="baseline")
        again = solve(replace(req, warm_start=first.state),
                      method="baseline")
        assert again.outcome is first.outcome

    def test_identical_exact_request_replays(self):
        from repro.datacenter import build_datacenter, power_bounds
        from repro.datacenter.coretypes import shrunken_node_types
        from repro.thermal import attach_thermal_model
        from repro.workload import generate_workload

        rng = np.random.default_rng(0)
        dc = build_datacenter(n_nodes=3, n_crac=2,
                              node_types=shrunken_node_types(2), rng=rng,
                              nodes_per_rack=3)
        attach_thermal_model(dc, rng=rng)
        wl = generate_workload(dc, rng, n_task_types=4)
        req = SolveRequest(dc, wl, power_bounds(dc).p_const,
                           options=SolveOptions(temp_step=6.0))
        first = solve(req, method="exact")
        again = solve(replace(req, warm_start=first.state), method="exact")
        assert again.outcome is first.outcome
