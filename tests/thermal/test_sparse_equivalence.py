"""Dense/sparse backend equivalence + zonal alpha construction.

The dense backend is the reference oracle (``docs/THERMAL.md``); the
sparse factorization must agree on every public query within the
tolerance policy.  Property-based over operating points so differing
accumulation orders cannot hide behind one lucky example.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.datacenter import build_datacenter
from repro.thermal import heatflow
from repro.thermal import (DEFAULT_COUPLING, SPARSE_AUTO_UNITS,
                           HeatFlowModel, ThermalLinearization,
                           attach_zonal_thermal, zonal_block_alpha,
                           zone_partition)

from tests.thermal.twin import backend_twin

#: Backend agreement tolerance: both paths solve the same well-conditioned
#: linear system; only the factorization/accumulation order differs.
ATOL = 1e-9

RELAXED = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def pair(small_dc):
    """The same room under both backends (dense is the oracle)."""
    dense = small_dc.thermal
    return dense, backend_twin(dense, "sparse")


class TestBackendAgreement:
    @given(data=st.data())
    @RELAXED
    def test_inlet_affine(self, pair, data):
        dense, sparse = pair
        t = data.draw(hnp.arrays(float, dense.n_crac,
                                 elements=st.floats(10.0, 25.0)))
        const_d, gain_d = dense.inlet_affine(t)
        const_s, gain_s = sparse.inlet_affine(t)
        np.testing.assert_allclose(const_s, const_d, atol=ATOL)
        np.testing.assert_allclose(gain_s, gain_d, atol=ATOL)

    @given(data=st.data())
    @RELAXED
    def test_steady_state_batch(self, pair, data):
        dense, sparse = pair
        rows = data.draw(st.integers(1, 4))
        p = data.draw(hnp.arrays(float, (rows, dense.n_nodes),
                                 elements=st.floats(0.0, 1.5)))
        t = data.draw(hnp.arrays(float, (rows, dense.n_crac),
                                 elements=st.floats(10.0, 25.0)))
        got = sparse.steady_state_batch(t, p)
        want = dense.steady_state_batch(t, p)
        np.testing.assert_allclose(got.t_in, want.t_in, atol=ATOL)
        np.testing.assert_allclose(got.t_out, want.t_out, atol=ATOL)
        np.testing.assert_allclose(got.crac_heat_kw, want.crac_heat_kw,
                                   atol=ATOL)

    @given(data=st.data())
    @RELAXED
    def test_without_nodes(self, pair, data):
        dense, sparse = pair
        dead = data.draw(st.lists(st.integers(0, dense.n_nodes - 1),
                                  min_size=1, max_size=dense.n_nodes - 1,
                                  unique=True))
        red_d = dense.without_nodes(dead)
        red_s = sparse.without_nodes(dead)
        np.testing.assert_allclose(red_s.alpha.toarray(), red_d.alpha,
                                   atol=ATOL)
        t = np.full(dense.n_crac, 15.0)
        p = np.linspace(0.2, 1.0, red_d.n_nodes)
        np.testing.assert_allclose(red_s.steady_state(t, p).t_in,
                                   red_d.steady_state(t, p).t_in,
                                   atol=ATOL)

    @given(data=st.data())
    @RELAXED
    def test_linearization_build(self, pair, small_dc, data):
        dense, sparse = pair
        t = data.draw(hnp.arrays(float, dense.n_crac,
                                 elements=st.floats(10.0, 25.0)))
        lin_d = ThermalLinearization.build(dense, t, small_dc.redline_c)
        lin_s = ThermalLinearization.build(sparse, t, small_dc.redline_c)
        np.testing.assert_allclose(lin_s.inlet_const, lin_d.inlet_const,
                                   atol=ATOL)
        np.testing.assert_allclose(lin_s.inlet_gain, lin_d.inlet_gain,
                                   atol=ATOL)
        np.testing.assert_allclose(lin_s.redline_rhs, lin_d.redline_rhs,
                                   atol=ATOL)
        np.testing.assert_allclose(lin_s.crac_coeff, lin_d.crac_coeff,
                                   atol=ATOL)
        assert lin_s.crac_const == pytest.approx(lin_d.crac_const,
                                                 abs=ATOL)

    def test_gain_rows_and_apply_gain(self, pair):
        dense, sparse = pair
        units = np.asarray([0, 2, dense.n_crac + 1, dense.n_units - 1])
        np.testing.assert_allclose(sparse.gain_rows(units).toarray(),
                                   dense.inlet_gain[units], atol=ATOL)
        p = np.linspace(0.1, 0.9, dense.n_nodes)
        np.testing.assert_allclose(sparse.apply_gain(p),
                                   dense.apply_gain(p), atol=ATOL)


class TestGainRows:
    """``gain_rows`` returns CSR, solved in column chunks that do not
    change a single bit of the rows."""

    @pytest.fixture(scope="class")
    def zonal(self):
        dc = build_datacenter(n_nodes=600, n_crac=12,
                              rng=np.random.default_rng(7))
        return attach_zonal_thermal(dc)

    def test_csr_on_both_backends(self, pair):
        units = np.arange(pair[0].n_units)
        for model in pair:
            rows = model.gain_rows(units)
            assert sp.issparse(rows) and rows.format == "csr"

    def test_chunked_equals_single_solve(self, zonal, monkeypatch):
        units = np.arange(zonal.n_crac, zonal.n_crac + 300)
        assert units.size > heatflow.GAIN_ROWS_CHUNK
        chunked = zonal.gain_rows(units)
        monkeypatch.setattr(heatflow, "GAIN_ROWS_CHUNK", units.size)
        whole = zonal.gain_rows(units)
        assert (chunked.toarray() == whole.toarray()).all()
        assert chunked.nnz < chunked.shape[0] * chunked.shape[1]

    def test_empty_request(self, pair, zonal):
        for model in (*pair, zonal):
            assert model.gain_rows([]).shape == (0, model.n_nodes)


class TestBackendSelection:
    def test_dense_below_threshold(self, small_dc):
        assert small_dc.n_units < SPARSE_AUTO_UNITS
        assert small_dc.thermal.backend == "dense"

    def test_sparse_alpha_input_selects_sparse(self, small_dc):
        dense = small_dc.thermal
        model = HeatFlowModel(sp.csr_matrix(dense.alpha), dense.flows,
                              dense.n_crac)
        assert model.backend == "sparse"

    def test_unknown_backend_rejected(self, small_dc):
        dense = small_dc.thermal
        with pytest.raises(ValueError, match="unknown thermal backend"):
            HeatFlowModel(dense.alpha, dense.flows, dense.n_crac,
                          backend="banded")


class TestZonalAlpha:
    @pytest.fixture(scope="class")
    def room(self):
        rng = np.random.default_rng(7)
        return build_datacenter(n_nodes=30, n_crac=3, rng=rng)

    def test_partition_covers_every_node_once(self, room):
        zones = zone_partition(room.layout)
        assert len(zones) == room.n_crac
        all_nodes = np.concatenate([z.nodes for z in zones])
        np.testing.assert_array_equal(np.sort(all_nodes),
                                      np.arange(room.n_nodes))

    def test_alpha_row_stochastic_and_flow_conserving(self, room):
        alpha = zonal_block_alpha(room)
        flows = room.unit_flows
        np.testing.assert_allclose(
            np.asarray(alpha.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.asarray(alpha.T @ flows).ravel(),
                                   flows, rtol=1e-9)

    def test_zero_coupling_is_block_diagonal(self, room):
        alpha = zonal_block_alpha(room, coupling=0.0).toarray()
        zones = zone_partition(room.layout)
        mask = np.zeros_like(alpha, dtype=bool)
        for z in zones:
            units = z.units(room.n_crac)
            mask[np.ix_(units, units)] = True
        assert np.all(alpha[~mask] == 0.0)

    def test_attach_builds_valid_model(self, room):
        model = attach_zonal_thermal(room, backend="sparse")
        assert room.thermal is model
        assert model.backend == "sparse"
        p = np.full(room.n_nodes, 0.5)
        state = model.steady_state(np.full(room.n_crac, 15.0), p)
        assert state.crac_heat_kw.sum() == pytest.approx(p.sum(), rel=1e-6)

    def test_sparse_matches_dense_on_zonal_room(self, room):
        alpha = zonal_block_alpha(room)
        s = HeatFlowModel(alpha, room.unit_flows, room.n_crac,
                          backend="sparse")
        d = HeatFlowModel(alpha.toarray(), room.unit_flows, room.n_crac,
                          backend="dense")
        t = np.full(room.n_crac, 14.0)
        p = np.linspace(0.2, 1.2, room.n_nodes)
        np.testing.assert_allclose(s.steady_state(t, p).t_in,
                                   d.steady_state(t, p).t_in, atol=ATOL)

    def test_coupling_validation(self, room):
        with pytest.raises(ValueError, match="coupling"):
            zonal_block_alpha(room, coupling=1.0)
        with pytest.raises(ValueError, match="coupling"):
            zonal_block_alpha(room, coupling=-0.1)
        assert 0.0 < DEFAULT_COUPLING < 1.0
