"""NumPy-vectorized kernels — the fast path the solver calls.

Each primitive is an array program over the precomputed lookup tables
of :mod:`repro.kernels.tables`.  The implementations are written to
match :mod:`repro.kernels.reference` *bit-for-bit* wherever the scalar
code's accumulation order can be reproduced (table gathers, ``bincount``
/ ``reduceat`` segment sums, the breakpoint fill's sequential budget
subtraction), and within ``repro.units.approx_eq`` elsewhere (batched
GEMM steady states, whose BLAS summation order differs from a per-row
matvec).  ``docs/KERNELS.md`` records the op-by-op guarantees;
``tests/kernels/`` enforces them.

Inputs are validated by the public call sites before dispatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.kernels.tables import CachedCoP, core_power_table

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.arr import AggregateRewardRate
    from repro.datacenter.builder import DataCenter
    from repro.power.cop import CoPModel
    from repro.thermal.heatflow import HeatFlowModel

__all__ = ["node_power_kw", "node_power_batch", "steady_state_batch",
           "convert_power_to_pstates", "assemble_segments",
           "distribute_node_power", "wrap_cop"]


# ----------------------------------------------------------------------
# power evaluation (Eq. 1 / Eq. 23)

def node_power_kw(datacenter: "DataCenter",
                  core_pstates: np.ndarray) -> np.ndarray:
    """Eq. 1 via one table gather + ``bincount`` segment sum.

    ``bincount`` accumulates each node's cores in index order — the same
    sequential sum the reference loop performs — so the result is
    bit-identical to the oracle.
    """
    tab = core_power_table(datacenter)
    core_power = tab.power[datacenter.core_type, core_pstates]
    sums = np.bincount(datacenter.core_node, weights=core_power,
                       minlength=datacenter.n_nodes)
    return datacenter.node_base_power + sums


def node_power_batch(datacenter: "DataCenter",
                     core_pstates: np.ndarray) -> np.ndarray:
    """Eq. 1 for a whole ``(B, n_cores)`` batch in two array ops.

    One ``bincount`` over a flattened ``(row, node)`` composite index
    accumulates each row's cores in index order — the same sequential
    sum as :func:`node_power_kw` on that row (``reduceat`` would not:
    its 2-D accumulation order differs by an ulp), so each row is
    bit-identical to the oracle.
    """
    tab = core_power_table(datacenter)
    core_power = tab.power[datacenter.core_type, core_pstates]
    n_rows, n_nodes = core_power.shape[0], datacenter.n_nodes
    flat_node = (np.arange(n_rows)[:, None] * n_nodes
                 + datacenter.core_node[None, :]).ravel()
    sums = np.bincount(flat_node, weights=core_power.ravel(),
                       minlength=n_rows * n_nodes).reshape(n_rows, n_nodes)
    return datacenter.node_base_power[None, :] + sums


# ----------------------------------------------------------------------
# steady-state heat flow (Eqs. 4-5)

def steady_state_batch(model: "HeatFlowModel", t_crac_out: np.ndarray,
                       node_power_kw: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All rows at once through the model's factored affine map.

    The ``(I - A_MM)`` system is factored once per room topology inside
    :class:`~repro.thermal.heatflow.HeatFlowModel`; evaluating a batch
    is then two GEMMs against the affine pieces on the dense backend,
    or multi-right-hand-side triangular solves against the cached
    SuperLU factorization on the sparse one
    (:meth:`~repro.thermal.heatflow.HeatFlowModel.batch_inlet` — the
    dense expression is unchanged bit-for-bit).  Agrees with the
    per-row reference within float tolerance (BLAS accumulation order).
    """
    n_crac = model.n_crac
    t_in = model.batch_inlet(t_crac_out, node_power_kw)
    t_out = np.empty_like(t_in)
    t_out[:, :n_crac] = t_crac_out
    t_out[:, n_crac:] = t_in[:, n_crac:] \
        + model.node_heat_coeff[None, :] * node_power_kw
    heat = np.maximum(
        model.crac_capacity[None, :]
        * (t_in[:, :n_crac] - t_out[:, :n_crac]),
        0.0)
    return t_in, t_out, heat


# ----------------------------------------------------------------------
# stage 2: integer P-state conversion (Section V.B.3)

def convert_power_to_pstates(datacenter: "DataCenter",
                             core_power_kw: np.ndarray,
                             node_power_budget_kw: np.ndarray) -> np.ndarray:
    """Vectorized round-up, with the trim loop run only where needed.

    Step 1 (round up): per type, count ladder entries with power
    ``>= target - 1e-12``; the ladder is strictly decreasing, so the
    satisfying entries are a prefix and ``count - 1`` is the highest
    (weakest) satisfying index — exactly the reference's
    ``_round_up_pstate``, including its clamps.

    Step 2 (trim): almost no node needs trimming (stage 1 lands cores on
    ladder powers), so nodes are screened with a vectorized segment sum
    and the exact reference while-loop runs only on the screened few.
    The screen keeps a ``1e-7`` safety margin below the reference's
    ``1e-9`` tolerance — far wider than the worst-case difference
    between ``reduceat``'s sequential and ``np.sum``'s pairwise
    accumulation — so no node the reference would trim escapes, and
    false positives are no-ops.  Output is bit-identical to the oracle.
    """
    tab = core_power_table(datacenter)
    core_type = datacenter.core_type
    pstates = np.empty(datacenter.n_cores, dtype=int)
    for t in range(len(datacenter.node_types)):
        mask = core_type == t
        if not mask.any():
            continue
        eta = int(tab.n_pstates[t])
        ladder = tab.power[t, :eta]
        targets = core_power_kw[mask]
        counts = (ladder[None, :] >= targets[:, None] - 1e-12).sum(axis=1)
        pstates[mask] = np.where(
            targets <= 0.0, eta - 1,
            np.where(counts == 0, 0, counts - 1))

    core_budget = node_power_budget_kw - datacenter.node_base_power
    core_vals = tab.power[core_type, pstates]
    sums = np.add.reduceat(core_vals, tab.node_first_core)
    for j in np.nonzero(sums > core_budget + 1e-9 - 1e-7)[0]:
        node = datacenter.nodes[j]
        table = np.asarray(node.spec.pstate_power_kw)
        first = int(tab.node_first_core[j])
        local = pstates[first:first + node.n_cores]
        budget = core_budget[j]
        while table[local].sum() > budget + 1e-9:
            worst = int(np.argmin(local))
            if local[worst] >= node.spec.off_pstate:
                break
            local[worst] += 1
    return pstates


# ----------------------------------------------------------------------
# stage 1: LP assembly and breakpoint fill

def assemble_segments(datacenter: "DataCenter",
                      arrs: "list[AggregateRewardRate]"
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-type segment arrays repeated over nodes — no per-segment loop.

    Capacities multiply the same IEEE doubles the reference multiplies
    (segment length × core count), so all three outputs are
    bit-identical to the oracle.
    """
    tab = core_power_table(datacenter)
    type_index = datacenter.node_type_index
    lengths_by_type = []
    slopes_by_type = []
    for arr in arrs:
        lengths, slps = arr.segments_decreasing_slope()
        lengths_by_type.append(lengths)
        slopes_by_type.append(slps)
    seg_counts = np.asarray([len(ln) for ln in lengths_by_type], dtype=int)
    counts = seg_counts[type_index]
    node_of_var = np.repeat(np.arange(datacenter.n_nodes), counts)
    caps = np.concatenate([lengths_by_type[t] for t in type_index]) \
        * np.repeat(tab.node_n_cores, counts)
    slopes = np.concatenate([slopes_by_type[t] for t in type_index])
    return node_of_var, caps, slopes


def distribute_node_power(datacenter: "DataCenter",
                          arrs: "list[AggregateRewardRate]",
                          node_core_power: np.ndarray) -> np.ndarray:
    """All nodes of a type walk the hull breakpoints together.

    Nodes of one type share the hull, so the reference's per-node
    breakpoint walk becomes one masked elementwise pass per level: nodes
    that can afford the full level subtract the same ``full_cost`` the
    scalar loop subtracts (same operands, same order per node), nodes
    that cannot record their final ``(level, k, partial)`` triple with
    the same floor-divide arithmetic.  Per-core powers are then one
    gather + two ``where``s.  Bit-identical to the oracle.
    """
    tab = core_power_table(datacenter)
    type_index = datacenter.node_type_index
    core_power = np.zeros(datacenter.n_cores)
    for t, arr in enumerate(arrs):
        nodes_t = np.nonzero(type_index == t)[0]
        if nodes_t.size == 0:
            continue
        n = int(tab.node_n_cores[nodes_t[0]])
        hull_x = arr.concave.x
        budgets = np.asarray(node_core_power, dtype=float)[nodes_t].copy()
        k_nodes = nodes_t.size
        active = budgets > 0.0
        base = np.zeros(k_nodes)
        nxt = np.zeros(k_nodes)
        kk = np.zeros(k_nodes, dtype=int)
        partial = np.zeros(k_nodes)
        level = 0.0
        for bp in hull_x[1:]:
            step = bp - level
            full_cost = n * step
            take = active & (budgets >= full_cost - 1e-12)
            fin = active & ~take
            if fin.any():
                quot = np.floor_divide(budgets[fin], step)
                kk[fin] = quot.astype(int)
                base[fin] = level
                nxt[fin] = bp
                partial[fin] = level + (budgets[fin] - quot * step)
            budgets[take] -= full_cost
            active = take
            level = bp
        if active.any():
            # nodes that afforded every level run flat at the hull top
            base[active] = level
            kk[active] = 0
            partial[active] = level
        pos = np.tile(np.arange(n), k_nodes)
        rep = np.repeat(np.arange(k_nodes), n)
        vals = np.where(pos < kk[rep], nxt[rep],
                        np.where(pos == kk[rep], partial[rep], base[rep]))
        cores = (tab.node_first_core[nodes_t][:, None]
                 + np.arange(n)[None, :]).ravel()
        core_power[cores] = vals
    return core_power


# ----------------------------------------------------------------------
# CRAC efficiency

def wrap_cop(cop_model: "CoPModel") -> "Callable[[np.ndarray], np.ndarray]":
    """Vectorized strategy: memoized lookup keyed on the exact input."""
    return CachedCoP(cop_model)
