"""Property-based equivalence of the kernels (docs/KERNELS.md contract).

Randomized rooms of varying node/CRAC counts and core types, randomized
operating points, and — where the contract says *bit-identical* —
``np.array_equal`` assertions, not tolerances.  The batched steady
state is the one tolerance-bound op (BLAS accumulation order).

Also the metamorphic checks: permutation equivariance of the batch
APIs, within-node core-permutation invariance of Eq. 1, and cap
monotonicity of the Stage 1 objective.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.stage1 import build_arr_functions, solve_stage1
from repro.datacenter import build_datacenter
from repro.datacenter.coretypes import shrunken_node_types
from repro.datacenter.power import power_bounds
from repro.kernels import reference, vectorized
from repro.kernels.tables import core_power_table
from repro.thermal import attach_thermal_model
from repro.workload import generate_workload

from tests.conftest import SEED

RELAXED = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

#: (n_nodes, n_crac, node_types factory) — varied shapes, including the
#: shrunken catalog the exact solver uses.
ROOM_SHAPES = [
    (12, 2, lambda: None),
    (9, 3, lambda: shrunken_node_types(4)),
    (16, 1, lambda: None),
]


@functools.lru_cache(maxsize=None)
def room(index: int):
    """Room ``index`` of the pool, with thermal model, workload, ARRs."""
    n_nodes, n_crac, types = ROOM_SHAPES[index]
    rng = np.random.default_rng(SEED + 100 * index)
    dc = build_datacenter(n_nodes=n_nodes, n_crac=n_crac,
                          node_types=types(), rng=rng)
    attach_thermal_model(dc, rng=rng)
    workload = generate_workload(dc, rng)
    arrs = build_arr_functions(dc, workload, psi=50.0)
    return dc, workload, arrs


room_indices = st.integers(0, len(ROOM_SHAPES) - 1)
seeds = st.integers(0, 2**32 - 1)


def _random_pstates(dc, rng, shape=()):
    eta = core_power_table(dc).n_pstates[dc.core_type]
    return rng.integers(0, eta, size=shape + (dc.n_cores,))


class TestHeatFlowBatch:
    @given(index=room_indices, seed=seeds, batch=st.integers(1, 9))
    @RELAXED
    def test_kernels_agree_within_tolerance(self, index, seed, batch):
        dc, _, _ = room(index)
        model = dc.require_thermal()
        rng = np.random.default_rng(seed)
        t = rng.uniform(10.0, 25.0, size=(batch, model.n_crac))
        p = rng.uniform(0.0, 1.5, size=(batch, dc.n_nodes))
        ref = reference.steady_state_batch(model, t, p)
        vec = vectorized.steady_state_batch(model, t, p)
        for r, v in zip(ref, vec):             # t_in, t_out, crac_heat_kw
            assert np.allclose(r, v, rtol=1e-9, atol=1e-9)

    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_batch_rows_match_scalar_steady_state(self, index, seed):
        dc, _, _ = room(index)
        model = dc.require_thermal()
        rng = np.random.default_rng(seed)
        t = rng.uniform(10.0, 25.0, size=(4, model.n_crac))
        p = rng.uniform(0.0, 1.5, size=(4, dc.n_nodes))
        batch = model.steady_state_batch(t, p)
        for b in range(4):
            scalar = model.steady_state(t[b], p[b])
            row = batch.row(b)
            assert np.allclose(row.t_in, scalar.t_in, rtol=1e-9, atol=1e-9)
            assert np.allclose(row.t_out, scalar.t_out, rtol=1e-9, atol=1e-9)
            assert np.allclose(row.crac_heat_kw, scalar.crac_heat_kw,
                               rtol=1e-9, atol=1e-9)

    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_broadcast_single_outlet_vector(self, index, seed):
        dc, _, _ = room(index)
        model = dc.require_thermal()
        rng = np.random.default_rng(seed)
        t = rng.uniform(10.0, 25.0, size=model.n_crac)
        p = rng.uniform(0.0, 1.5, size=(3, dc.n_nodes))
        batch = model.steady_state_batch(t, p)
        for b in range(3):
            scalar = model.steady_state(t, p[b])
            assert np.allclose(batch.t_in[b], scalar.t_in,
                               rtol=1e-9, atol=1e-9)

    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_censored_model_agrees_across_kernels(self, index, seed):
        """Fault-censored (dead-node) subviews keep kernel equivalence."""
        dc, _, _ = room(index)
        model = dc.require_thermal()
        rng = np.random.default_rng(seed)
        n_dead = int(rng.integers(1, max(2, dc.n_nodes // 3)))
        dead = rng.choice(dc.n_nodes, size=n_dead, replace=False)
        reduced = model.without_nodes(dead)
        t = rng.uniform(10.0, 25.0, size=(3, reduced.n_crac))
        p = rng.uniform(0.0, 1.5, size=(3, reduced.n_nodes))
        ref = reference.steady_state_batch(reduced, t, p)
        vec = vectorized.steady_state_batch(reduced, t, p)
        for r, v in zip(ref[:2], vec[:2]):     # t_in, t_out
            assert np.allclose(r, v, rtol=1e-9, atol=1e-9)


class TestNodePowerExact:
    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_single_vector_bit_identical(self, index, seed):
        dc, _, _ = room(index)
        rng = np.random.default_rng(seed)
        ps = _random_pstates(dc, rng)
        assert np.array_equal(reference.node_power_kw(dc, ps),
                              vectorized.node_power_kw(dc, ps))

    @given(index=room_indices, seed=seeds, batch=st.integers(1, 6))
    @RELAXED
    def test_batch_bit_identical(self, index, seed, batch):
        dc, _, _ = room(index)
        rng = np.random.default_rng(seed)
        ps = _random_pstates(dc, rng, shape=(batch,))
        ref = reference.node_power_batch(dc, ps)
        vec = vectorized.node_power_batch(dc, ps)
        assert np.array_equal(ref, vec)
        for b in range(batch):
            assert np.array_equal(vec[b], reference.node_power_kw(dc, ps[b]))


class TestStage2Exact:
    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_conversion_bit_identical(self, index, seed):
        """Round-up + trim agree per core, including forced trims."""
        dc, _, _ = room(index)
        rng = np.random.default_rng(seed)
        tab = core_power_table(dc)
        ps = _random_pstates(dc, rng)
        core_power = tab.power[dc.core_type, ps]
        # perturb off the ladder so round-up has real work to do
        core_power = core_power * rng.uniform(0.85, 1.0, size=dc.n_cores)
        budget = dc.node_power_kw(ps)
        # shave some budgets below the round-up cost to exercise the trim
        shave = rng.random(dc.n_nodes) < 0.5
        budget = np.where(shave, budget - 0.3 * rng.random(dc.n_nodes),
                          budget)
        ref = reference.convert_power_to_pstates(dc, core_power, budget)
        vec = vectorized.convert_power_to_pstates(dc, core_power, budget)
        assert np.array_equal(ref, vec)


class TestStage1Exact:
    @given(index=room_indices)
    @RELAXED
    def test_assembly_bit_identical(self, index):
        dc, _, arrs = room(index)
        ref = reference.assemble_segments(dc, arrs)
        vec = vectorized.assemble_segments(dc, arrs)
        for r, v in zip(ref, vec):
            assert np.array_equal(r, v)

    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_distribute_bit_identical(self, index, seed):
        dc, _, arrs = room(index)
        rng = np.random.default_rng(seed)
        tab = core_power_table(dc)
        tops = np.asarray([arrs[t].concave.x[-1]
                           for t in dc.node_type_index])
        node_core_power = rng.uniform(0.0, 1.0, size=dc.n_nodes) \
            * tops * tab.node_n_cores
        # sprinkle exact zeros (idle nodes are the common case)
        node_core_power[rng.random(dc.n_nodes) < 0.25] = 0.0
        ref = reference.distribute_node_power(dc, arrs, node_core_power)
        vec = vectorized.distribute_node_power(dc, arrs, node_core_power)
        assert np.array_equal(ref, vec)

    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_distribute_conserves_node_totals(self, index, seed):
        dc, _, arrs = room(index)
        rng = np.random.default_rng(seed)
        tab = core_power_table(dc)
        tops = np.asarray([arrs[t].concave.x[-1]
                           for t in dc.node_type_index])
        node_core_power = rng.uniform(0.0, 1.0, size=dc.n_nodes) \
            * tops * tab.node_n_cores
        core = vectorized.distribute_node_power(dc, arrs, node_core_power)
        sums = np.bincount(dc.core_node, weights=core,
                           minlength=dc.n_nodes)
        assert np.allclose(sums, node_core_power, rtol=1e-9, atol=1e-9)


class TestMetamorphic:
    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_batch_row_permutation_equivariance(self, index, seed):
        """Permuting batch rows permutes every output identically."""
        dc, _, _ = room(index)
        model = dc.require_thermal()
        rng = np.random.default_rng(seed)
        t = rng.uniform(10.0, 25.0, size=(6, model.n_crac))
        p = rng.uniform(0.0, 1.5, size=(6, dc.n_nodes))
        perm = rng.permutation(6)
        straight = model.steady_state_batch(t, p)
        shuffled = model.steady_state_batch(t[perm], p[perm])
        assert np.array_equal(straight.t_in[perm], shuffled.t_in)
        assert np.array_equal(straight.t_out[perm], shuffled.t_out)
        assert np.array_equal(straight.crac_heat_kw[perm],
                              shuffled.crac_heat_kw)

    @given(index=room_indices, seed=seeds)
    @RELAXED
    def test_within_node_core_permutation_invariance(self, index, seed):
        """Cores of a node are identical: shuffling their P-states
        within the node cannot change any node power."""
        dc, _, _ = room(index)
        rng = np.random.default_rng(seed)
        ps = _random_pstates(dc, rng)
        tab = core_power_table(dc)
        shuffled = ps.copy()
        for j in range(dc.n_nodes):
            first = int(tab.node_first_core[j])
            n = int(tab.node_n_cores[j])
            shuffled[first:first + n] = \
                rng.permutation(shuffled[first:first + n])
        a = vectorized.node_power_kw(dc, ps)
        b = vectorized.node_power_kw(dc, shuffled)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


class TestCapMonotonicity:
    def test_raising_pconst_never_reduces_stage1_objective(self):
        """The feasible set grows with the cap, so the optimum cannot
        drop — a solver bug (or a kernel divergence) breaks this first."""
        dc, workload, _ = room(0)
        bounds = power_bounds(dc)
        caps = np.linspace(bounds.p_min * 1.05, bounds.p_max, 4)
        objectives = []
        for cap in caps:
            solution, _ = solve_stage1(dc, workload, p_const=float(cap))
            objectives.append(solution.objective)
        diffs = np.diff(np.asarray(objectives))
        assert np.all(diffs >= -1e-6)
