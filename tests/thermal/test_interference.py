"""Tests for repro.thermal.interference — the Appendix B generator."""

import numpy as np
import pytest

from repro.datacenter.builder import build_datacenter
from repro.datacenter.layout import TABLE_II_RANGES, hot_aisle_split_matrix
from repro.optimize.linprog import InfeasibleError, LinearProgram
from repro.thermal import interference
from repro.thermal.heatflow import HeatFlowModel
from repro.thermal.interference import (attach_thermal_model,
                                        exit_coefficients, generate_alpha,
                                        recirculation_coefficients)
from tests.conftest import dict_rows


@pytest.fixture(scope="module")
def room():
    # 30 nodes = 6 full racks -> balanced labels, exactly feasible
    return build_datacenter(n_nodes=30, n_crac=3,
                            rng=np.random.default_rng(42))


@pytest.fixture(scope="module")
def alpha(room):
    return generate_alpha(room, rng=np.random.default_rng(0))


class TestConstraints:
    def test_rows_sum_to_one(self, room, alpha):
        """Appendix B constraint 1."""
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)

    def test_flow_conservation(self, room, alpha):
        """Appendix B constraint 2: inflow == own flow for every unit."""
        flows = room.unit_flows
        np.testing.assert_allclose(alpha.T @ flows, flows, rtol=1e-5)

    def test_exit_coefficients_in_table2_range(self, room, alpha):
        """Appendix B constraints 3-4."""
        ec = exit_coefficients(alpha, room.n_crac)
        for node in room.nodes:
            from repro.datacenter.layout import TABLE_II_RANGES
            r = TABLE_II_RANGES[node.label]
            assert r.ec_min - 1e-6 <= ec[node.index] <= r.ec_max + 1e-6

    def test_recirculation_in_table2_range(self, room, alpha):
        """Appendix B constraint 5 (flow-weighted)."""
        rc = recirculation_coefficients(alpha, room.unit_flows, room.n_crac)
        for node in room.nodes:
            from repro.datacenter.layout import TABLE_II_RANGES
            r = TABLE_II_RANGES[node.label]
            assert r.rc_min - 1e-6 <= rc[node.index] <= r.rc_max + 1e-6

    def test_facing_crac_receives_dominant_share(self, room, alpha):
        """Constraint 3/4's M matrix: exhaust favors the facing CRAC."""
        for node in room.nodes:
            row = alpha[room.n_crac + node.index, :room.n_crac]
            assert row.argmax() == node.hot_aisle

    def test_nonnegative(self, alpha):
        assert alpha.min() >= 0.0


class TestSampling:
    def test_different_seeds_different_matrices(self, room):
        a1 = generate_alpha(room, rng=np.random.default_rng(1))
        a2 = generate_alpha(room, rng=np.random.default_rng(2))
        assert not np.allclose(a1, a2)

    def test_same_seed_reproducible(self, room):
        a1 = generate_alpha(room, rng=np.random.default_rng(3))
        a2 = generate_alpha(room, rng=np.random.default_rng(3))
        np.testing.assert_allclose(a1, a2)

    def test_unbalanced_room_uses_relaxation(self):
        """A partial-rack room is only feasible with widened ranges."""
        dc = build_datacenter(n_nodes=24, n_crac=3,
                              rng=np.random.default_rng(5))
        alpha = generate_alpha(dc, rng=np.random.default_rng(5))
        # the result must still be a valid flow matrix
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
        flows = dc.unit_flows
        np.testing.assert_allclose(alpha.T @ flows, flows, rtol=1e-4)

    def test_impossible_ranges_raise(self, room):
        from repro.datacenter.layout import LabelRanges
        from repro.optimize.linprog import InfeasibleError
        # demand all exhaust goes to CRACs *and* heavy recirculation
        impossible = {l: LabelRanges(0.99, 1.0, 0.9, 1.0)
                      for l in "ABCDE"}
        with pytest.raises(InfeasibleError, match="nowhere to go"):
            generate_alpha(room, rng=np.random.default_rng(0),
                           label_ranges=impossible, max_relaxation=0.0)


class TestAttach:
    def test_attaches_working_model(self, room):
        model = attach_thermal_model(room, rng=np.random.default_rng(7))
        assert isinstance(model, HeatFlowModel)
        assert room.thermal is model
        # the attached model conserves energy end to end
        p = room.node_power_kw(room.all_p0_pstates())
        state = model.steady_state(np.full(room.n_crac, 15.0), p)
        assert state.crac_heat_kw.sum() == pytest.approx(p.sum(), rel=1e-6)


# ----------------------------------------------------------------------
# Oracle: the Appendix B LP as first written — one dict per row, and a
# flow-balance row for every destination, the implied last one included.
def _oracle_lp(dc, objective, ranges, m_split):
    n_crac, n = dc.n_crac, dc.n_units
    flows = dc.unit_flows
    lb, ub = np.zeros(n * n), np.ones(n * n)
    for node in dc.nodes:
        r = ranges[node.label]
        u = n_crac + node.index
        for j in range(n_crac):
            frac = float(m_split[node.hot_aisle, j])
            lb[u * n + j], ub[u * n + j] = r.ec_min * frac, r.ec_max * frac
    lp = LinearProgram(name="interference-oracle")
    lp.add_variables(n * n, lb=lb, ub=ub, objective=objective)
    eq = [({i * n + j: 1.0 for j in range(n)}, 1.0) for i in range(n)]
    eq += [({i * n + j: float(flows[i]) for i in range(n)}, float(flows[j]))
           for j in range(n)]
    lp.add_eq_rows(*dict_rows(eq, n * n))
    le = []
    for node in dc.nodes:
        r = ranges[node.label]
        dest = n_crac + node.index
        coeffs = {(n_crac + i) * n + dest: float(flows[n_crac + i])
                  for i in range(dc.n_nodes)}
        le.append((coeffs, r.rc_max * float(flows[dest])))
        le.append(({v: -c for v, c in coeffs.items()},
                   -r.rc_min * float(flows[dest])))
    lp.add_le_rows(*dict_rows(le, n * n))
    alpha = np.clip(lp.solve().x.reshape(n, n), 0.0, None)
    return alpha / alpha.sum(axis=1, keepdims=True)


def _oracle_alpha(dc, seed):
    m_split = hot_aisle_split_matrix(dc.n_crac, 0.7)
    objective = np.random.default_rng(seed).uniform(
        0.0, 1.0, size=dc.n_units ** 2)
    margin = 0.0
    while True:
        ranges = TABLE_II_RANGES if margin == 0.0 \
            else interference._widen(TABLE_II_RANGES, margin)
        try:
            return _oracle_lp(dc, objective, ranges, m_split)
        except InfeasibleError:
            margin += 0.05
            assert margin <= 0.25 + 1e-9


def _assembled_lp(dc, seed, monkeypatch):
    """The LinearProgram ``generate_alpha`` builds (its feasible try)."""
    built = []

    class Recording(LinearProgram):
        def solve(self, **kwargs):
            built.append(self)
            return super().solve(**kwargs)

    monkeypatch.setattr(interference, "LinearProgram", Recording)
    alpha = generate_alpha(dc, rng=np.random.default_rng(seed))
    return built[-1], alpha


class TestAssembly:
    @pytest.fixture
    def tiny(self):
        return build_datacenter(n_nodes=10, n_crac=2,
                                rng=np.random.default_rng(8))

    def test_equality_block_has_full_row_rank(self, tiny, monkeypatch):
        lp, _ = _assembled_lp(tiny, 0, monkeypatch)
        n = tiny.n_units
        a_eq = lp.matrices()[2].toarray()
        # n row sums + n - 1 flow balances: the last balance is implied
        assert a_eq.shape[0] == 2 * n - 1
        assert np.linalg.matrix_rank(a_eq) == 2 * n - 1
        implied = np.zeros(n * n)
        implied[np.arange(n) * n + n - 1] = tiny.unit_flows
        assert np.linalg.matrix_rank(np.vstack([a_eq, implied])) == 2 * n - 1

    @pytest.mark.parametrize("n_nodes, seed", [(30, 0), (24, 5)])
    def test_all_flow_balances_hold(self, n_nodes, seed):
        """Every destination's inflow matches its flow, the one whose row
        the LP omits included."""
        dc = build_datacenter(n_nodes=n_nodes, n_crac=3,
                              rng=np.random.default_rng(seed))
        alpha = generate_alpha(dc, rng=np.random.default_rng(seed))
        flows = dc.unit_flows
        np.testing.assert_allclose(alpha.T @ flows, flows, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n_nodes, n_crac, room_seed, seed", [
        (10, 2, 8, 0),
        (30, 3, 42, 1),
        (30, 3, 42, 2),
        (45, 4, 3, 9),
        # the partial-rack room of test_unbalanced_room_uses_relaxation
        (24, 3, 5, 5),
    ])
    def test_matches_full_rank_deficient_oracle(self, n_nodes, n_crac,
                                                room_seed, seed):
        dc = build_datacenter(n_nodes=n_nodes, n_crac=n_crac,
                              rng=np.random.default_rng(room_seed))
        alpha = generate_alpha(dc, rng=np.random.default_rng(seed))
        np.testing.assert_allclose(alpha, _oracle_alpha(dc, seed),
                                   rtol=0, atol=1e-12)
