"""Tests for repro.thermal.heatflow — the Eq. 4-6 steady-state model."""

import numpy as np
import pytest

from repro.thermal.heatflow import HeatFlowModel
from repro.units import AIR_DENSITY


def two_unit_model() -> HeatFlowModel:
    """One CRAC and one node exchanging all their air.

    alpha = [[0, 1], [1, 0]]: CRAC output feeds the node, node exhaust
    returns to the CRAC — a closed loop with hand-checkable temperatures.
    """
    alpha = np.asarray([[0.0, 1.0], [1.0, 0.0]])
    flows = np.asarray([0.5, 0.5])
    return HeatFlowModel(alpha, flows, n_crac=1)


class TestClosedLoop:
    def test_steady_state_by_hand(self):
        model = two_unit_model()
        p = np.asarray([2.0])      # kW at the node
        t = np.asarray([15.0])     # CRAC outlet
        state = model.steady_state(t, p)
        # node inlet = CRAC outlet; node outlet = inlet + P/(rho Cp F)
        rise = 2.0 / (AIR_DENSITY * 1.0 * 0.5)
        assert state.t_in[1] == pytest.approx(15.0)
        assert state.t_out[1] == pytest.approx(15.0 + rise)
        # CRAC inlet = node outlet
        assert state.t_in[0] == pytest.approx(15.0 + rise)

    def test_energy_conservation(self):
        model = two_unit_model()
        state = model.steady_state(np.asarray([15.0]), np.asarray([3.7]))
        assert state.crac_heat_kw.sum() == pytest.approx(3.7)

    def test_zero_power_isothermal(self):
        model = two_unit_model()
        state = model.steady_state(np.asarray([18.0]), np.asarray([0.0]))
        np.testing.assert_allclose(state.t_in, 18.0)
        np.testing.assert_allclose(state.t_out, 18.0)
        assert state.crac_heat_kw.sum() == pytest.approx(0.0)


class TestRecirculationLoop:
    def test_self_recirculation_amplifies(self):
        """A node re-ingesting its own exhaust runs hotter than one fed
        purely by the CRAC."""
        # 30% of node exhaust loops straight back into the node
        alpha = np.asarray([[0.0, 1.0], [0.7, 0.3]])
        # flow conservation: inflows must match flows
        flows = np.asarray([0.7, 1.0])
        model = HeatFlowModel(alpha, flows, n_crac=1)
        clean = two_unit_model()
        p = np.asarray([2.0])
        t = np.asarray([15.0])
        hot = model.steady_state(t, p)
        cold = clean.steady_state(t, p)
        assert hot.t_in[1] > cold.t_in[1]

    def test_energy_conserved_with_recirculation(self):
        alpha = np.asarray([[0.0, 1.0], [0.7, 0.3]])
        flows = np.asarray([0.7, 1.0])
        model = HeatFlowModel(alpha, flows, n_crac=1)
        state = model.steady_state(np.asarray([15.0]), np.asarray([2.0]))
        assert state.crac_heat_kw.sum() == pytest.approx(2.0)


class TestGeneratedRooms:
    def test_energy_conservation(self, small_dc):
        """sum of CRAC heat removed == sum of node power, any load."""
        model = small_dc.thermal
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = rng.uniform(0.3, 1.0, size=small_dc.n_nodes)
            state = model.steady_state(
                np.full(small_dc.n_crac, 15.0), p)
            assert state.crac_heat_kw.sum() == pytest.approx(
                p.sum(), rel=1e-6)

    def test_mix_rows_sum_to_one(self, small_dc):
        np.testing.assert_allclose(small_dc.thermal.mix.sum(axis=1), 1.0,
                                   atol=1e-6)

    def test_inlet_monotone_in_power(self, small_dc):
        """More node power never cools any inlet (gain matrix >= 0)."""
        assert np.all(small_dc.thermal.inlet_gain >= -1e-12)

    def test_affine_map_matches_steady_state(self, small_dc):
        model = small_dc.thermal
        t = np.full(small_dc.n_crac, 14.0)
        p = np.linspace(0.3, 0.9, small_dc.n_nodes)
        const, gain = model.inlet_affine(t)
        np.testing.assert_allclose(const + gain @ p,
                                   model.steady_state(t, p).t_in)

    def test_inlets_above_coldest_outlet(self, small_dc):
        """No inlet can be colder than the coldest air in the room."""
        model = small_dc.thermal
        state = model.steady_state(np.asarray([12.0, 14.0, 16.0]),
                                   np.full(small_dc.n_nodes, 0.5))
        assert state.t_in.min() >= 12.0 - 1e-9

    def test_redline_margin_and_feasibility(self, small_dc):
        model = small_dc.thermal
        t = np.full(small_dc.n_crac, 13.0)
        p_lo = small_dc.node_power_kw(small_dc.all_off_pstates())
        margin = model.redline_margin(t, p_lo, small_dc.redline_c)
        assert margin.shape == (small_dc.n_units,)
        assert model.is_feasible(t, p_lo, small_dc.redline_c) \
            == bool((margin >= -1e-6).all())


class TestValidation:
    def test_rejects_bad_row_sums(self):
        alpha = np.asarray([[0.5, 0.2], [1.0, 0.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            HeatFlowModel(alpha, np.asarray([1.0, 1.0]), 1)

    def test_rejects_flow_nonconservation(self):
        alpha = np.asarray([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not conserved"):
            HeatFlowModel(alpha, np.asarray([1.0, 2.0]), 1)

    def test_rejects_negative_alpha(self):
        alpha = np.asarray([[1.5, -0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match=">= 0"):
            HeatFlowModel(alpha, np.asarray([1.0, 1.0]), 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            HeatFlowModel(np.eye(3), np.asarray([1.0, 1.0]), 1)

    def test_rejects_bad_ncrac(self):
        alpha = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="n_crac"):
            HeatFlowModel(alpha, np.asarray([1.0, 1.0]), 2)

    def test_rejects_negative_power(self):
        model = two_unit_model()
        with pytest.raises(ValueError, match="non-negative"):
            model.steady_state(np.asarray([15.0]), np.asarray([-1.0]))

    def test_rejects_wrong_power_shape(self):
        model = two_unit_model()
        with pytest.raises(ValueError, match="node powers"):
            model.steady_state(np.asarray([15.0]), np.asarray([1.0, 2.0]))

    def test_rejects_wrong_outlet_shape(self):
        model = two_unit_model()
        with pytest.raises(ValueError, match="outlet temps"):
            model.inlet_affine(np.asarray([15.0, 16.0]))


class TestAlphaNegativeClamp:
    """Round-off negatives in ``[-ALPHA_NEG_TOL, 0)`` (LP vertices,
    censoring algebra) are clamped to 0; anything more negative is still
    a modeling error and rejected."""

    TINY = 5e-10    # inside the clamp band (ALPHA_NEG_TOL = 1e-9)

    def _noisy_alpha(self, eps):
        # the closed two-unit loop, with round-off pushed onto the
        # diagonal; rows still sum to 1 and flow is still conserved
        return np.asarray([[-eps, 1.0 + eps], [1.0 + eps, -eps]])

    def test_tiny_negative_clamped_dense(self):
        model = HeatFlowModel(self._noisy_alpha(self.TINY),
                              np.asarray([0.5, 0.5]), 1)
        assert float(model.alpha.min()) == 0.0
        assert float(model.mix.min()) >= 0.0
        clean = two_unit_model()
        state = model.steady_state(np.asarray([15.0]), np.asarray([2.0]))
        want = clean.steady_state(np.asarray([15.0]), np.asarray([2.0]))
        np.testing.assert_allclose(state.t_in, want.t_in, atol=1e-8)

    def test_tiny_negative_clamped_sparse(self):
        import scipy.sparse as sp

        alpha = sp.csr_matrix(self._noisy_alpha(self.TINY))
        model = HeatFlowModel(alpha, np.asarray([0.5, 0.5]), 1)
        assert model.backend == "sparse"
        assert float(model.alpha.data.min()) >= 0.0
        assert float(model.mix.data.min()) >= 0.0

    def test_below_tolerance_still_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            HeatFlowModel(self._noisy_alpha(1e-8),
                          np.asarray([0.5, 0.5]), 1)

    def test_clamp_does_not_mutate_caller_array(self):
        alpha = self._noisy_alpha(self.TINY)
        keep = alpha.copy()
        HeatFlowModel(alpha, np.asarray([0.5, 0.5]), 1)
        np.testing.assert_array_equal(alpha, keep)


class TestCensoredCache:
    """``without_nodes`` memoizes per dead-node set (satellite 3 of the
    kernels PR): fault sweeps re-censor the same inventory every replan,
    and re-factoring ``(I - A_MM)`` each time dominated chaos runs."""

    def test_repeat_call_returns_same_object(self, small_dc):
        model = small_dc.thermal
        first = model.without_nodes([1, 3])
        again = model.without_nodes([3, 1])       # order-insensitive key
        assert again is first

    def test_distinct_dead_sets_distinct_models(self, small_dc):
        model = small_dc.thermal
        assert model.without_nodes([1, 3]) is not model.without_nodes([2])

    def test_cached_model_matches_fresh_build(self, small_dc):
        from repro.thermal.heatflow import HeatFlowModel

        model = small_dc.thermal
        cached = model.without_nodes([0, 5])
        model._censored.clear()
        fresh = model.without_nodes([0, 5])
        assert fresh is not cached
        assert np.array_equal(fresh.alpha, cached.alpha)
        assert np.array_equal(fresh.flows, cached.flows)
        assert isinstance(fresh, HeatFlowModel)

    def test_hit_and_rebuild_counters(self, small_dc):
        from repro import obs

        model = small_dc.thermal
        model._censored.clear()
        with obs.capture() as snapshot:
            model.without_nodes([2, 4])
            model.without_nodes([2, 4])
            model.without_nodes([2, 4])
        metrics = snapshot()["metrics"]
        assert metrics["thermal.censored_rebuilds"]["value"] == 1
        assert metrics["thermal.censored_cache_hits"]["value"] == 2

    def test_empty_dead_set_is_identity_not_cached(self, small_dc):
        model = small_dc.thermal
        assert model.without_nodes([]) is model

    def test_invalid_indices_still_raise(self, small_dc):
        model = small_dc.thermal
        with pytest.raises(ValueError, match="dead node indices"):
            model.without_nodes([small_dc.n_nodes])
        with pytest.raises(ValueError, match="every compute node"):
            model.without_nodes(list(range(small_dc.n_nodes)))

    def test_censored_alpha_path_not_stale_after_eviction(self, small_dc):
        """Eviction at 64 entries must rebuild, not misread."""
        model = small_dc.thermal
        model._censored.clear()
        keep = model.without_nodes([0])
        alpha_before = keep.alpha.copy()
        for j in range(1, 65):
            model.without_nodes([j % (small_dc.n_nodes - 1) + 1, j // 60])
        rebuilt = model.without_nodes([0])
        assert np.array_equal(rebuilt.alpha, alpha_before)

    def test_eviction_is_lru_not_fifo(self, small_dc):
        """A hot inventory re-hit between inserts must survive eviction
        pressure (the memo refreshes recency on every hit; plain FIFO
        would evict the oldest *inserted* key — the hot one)."""
        import itertools

        model = small_dc.thermal
        model._censored.clear()
        hot = model.without_nodes([0])
        fillers = itertools.islice(
            itertools.combinations(range(1, small_dc.n_nodes), 2), 65)
        for pair in fillers:
            model.without_nodes(list(pair))
            # touch the hot inventory so it is always the most recent
            assert model.without_nodes([0]) is hot
        assert len(model._censored) <= 64

    def test_eviction_removes_least_recently_used(self, small_dc):
        """Filling to capacity, re-touching the oldest insert, then
        overflowing must evict the second-oldest instead."""
        import itertools

        model = small_dc.thermal
        model._censored.clear()
        oldest = model.without_nodes([0])
        second = model.without_nodes([1])
        fillers = list(itertools.islice(
            itertools.combinations(range(2, small_dc.n_nodes), 2), 62))
        for pair in fillers:
            model.without_nodes(list(pair))
        assert len(model._censored) == 64
        assert model.without_nodes([0]) is oldest    # refresh the oldest
        model.without_nodes([2])                     # overflow: evicts [1]
        assert model.without_nodes([0]) is oldest    # survived
        before = model.censored_rebuilds
        assert model.without_nodes([1]) is not second
        assert model.censored_rebuilds == before + 1  # a genuine rebuild


class TestCensoredMemoGauges:
    """Instance counters, per-run counters and the size gauge of the
    ``without_nodes`` memo."""

    def test_instance_counters_track_lifetime(self, small_dc):
        model = small_dc.thermal
        model._censored.clear()
        rebuilds0 = model.censored_rebuilds
        hits0 = model.censored_cache_hits
        model.without_nodes([1, 2])
        model.without_nodes([1, 2])
        model.without_nodes([3])
        assert model.censored_rebuilds == rebuilds0 + 2
        assert model.censored_cache_hits == hits0 + 1

    def test_gauges_exported(self, small_dc):
        from repro import obs

        model = small_dc.thermal
        model._censored.clear()
        rebuilds0 = model.censored_rebuilds
        hits0 = model.censored_cache_hits
        with obs.capture() as snapshot:
            model.without_nodes([1, 4])
            model.without_nodes([1, 4])
        metrics = snapshot()["metrics"]
        # the counters cover this capture only; the attributes are the
        # instance's lifetime totals
        assert metrics["thermal.censored_rebuilds"]["value"] \
            == model.censored_rebuilds - rebuilds0
        assert metrics["thermal.censored_cache_hits"]["value"] \
            == model.censored_cache_hits - hits0
        assert "thermal.censored_memo_hits" not in metrics
        assert "thermal.censored_memo_rebuilds" not in metrics
        assert metrics["thermal.censored_memo_size"]["value"] \
            == float(len(model._censored))
