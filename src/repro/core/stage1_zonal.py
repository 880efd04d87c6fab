"""Stage 1 by hot-aisle zonal decomposition (100x rooms, DESIGN goal).

The monolithic Stage 1 LP couples every node to every other through the
dense inlet-gain matrix — ``O(n_units * n_nodes)`` non-zeros per probe,
which is the scaling wall at the ROADMAP's 100x-fig6 target.  Real
cross-interference is block-sparse by hot aisle (Figure 1, Appendix B;
:mod:`repro.thermal.sparse`), and Van Damme et al. (PAPERS.md) show a
zonal decomposition with boundary coupling recovers near-optimal
control.  This module implements that decomposition for *fixed* CRAC
outlet temperatures:

1. Partition nodes by the hot aisle they exhaust into (zone *z* =
   CRAC *z* plus aisle-*z* nodes, :func:`repro.thermal.sparse.zone_partition`).
2. Per zone, solve the Stage 1 LP restricted to the zone's segment
   variables with the out-of-zone world *frozen*: node redlines use the
   zone-local gain ``W_z = (I - A_zz)^-1`` against a boundary-coupling
   constant, CRAC redlines and the power cap use the exact monolithic
   gain rows for the CRAC units (cheap to cache: ``n_crac`` transpose
   solves of the sparse factorization), and the global power budget is
   what the frozen other zones leave over.
3. Reconcile with a Gauss-Seidel fixed-point loop — each zone's solve
   immediately updates the frozen boundary seen by the next — until the
   largest per-node core-power change drops below tolerance.
4. Verify against the *full* model and, if the decomposition left a
   residual redline/cap violation, shrink all core powers by a common
   factor (bisection; monotone because gains are non-negative) so the
   returned plan is always feasible for the monolithic model.

On rooms whose interference really is zonal (block alpha) the loop
converges in one or two sweeps and matches the monolithic solve to
solver tolerance; on the paper's fig6 room (dense LP-generated alpha)
the golden tests pin the gap to a small fraction of the monolithic
objective (``tests/core/test_stage1_zonal.py``).

Warm replay: Stage 1 never reads arrival rates, so a rolling-horizon
controller whose rates drift replays a :class:`ZonalState` verbatim —
the sub-second 100x replan benchmarked by ``benchmarks/bench_sparse.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.arr import AggregateRewardRate
from repro.core.stage1 import build_arr_functions, distribute_node_power
from repro.datacenter.builder import DataCenter
from repro.kernels import vectorized
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import span as obs_span
from repro.optimize.linprog import InfeasibleError, LinearProgram, issparse
from repro.thermal.sparse import Zone, zone_partition
from repro.workload.tasktypes import Workload

__all__ = ["ZonalStage1Result", "ZonalState", "solve_stage1_zonal"]

#: Stop sweeping when no node's core power moved more than this, kW.
DEFAULT_TOL_KW: float = 1e-6

#: Sweep cap — on zonal rooms the loop converges in 1-2 sweeps; the cap
#: only bites for strongly coupled (dense-alpha) rooms where the final
#: verify-and-shrink step guarantees feasibility anyway.
DEFAULT_MAX_SWEEPS: int = 10

#: Under-relaxation factor for sweeps after the first (see the damped
#: update in :func:`solve_stage1_zonal`).
RELAXATION: float = 0.5

#: Cutting-plane rounds of the coordination master LP; each round adds
#: every node redline the exact model flags, so rounds are few.
MAX_CUT_ROUNDS: int = 25


@dataclass
class ZonalStage1Result:
    """Feasible Stage 1 plan produced by the zonal decomposition.

    Attributes
    ----------
    t_crac_out:
        The (fixed) CRAC outlet temperatures the plan was solved at.
    core_power_kw / node_power_kw:
        Relaxed per-core powers and total node powers, as in
        :class:`repro.core.stage1.Stage1Solution`.
    objective:
        Aggregate reward rate of the plan (sum of per-node concave ARR).
    sweeps:
        Gauss-Seidel sweeps executed (0 when replayed from warm state).
    max_delta_kw:
        Largest per-node core-power change in the final sweep.
    repair_scale:
        Common core-power factor applied by the monolithic
        verify-and-shrink step; ``1.0`` means the decomposed plan was
        already feasible for the full model.
    """

    t_crac_out: np.ndarray
    core_power_kw: np.ndarray
    node_power_kw: np.ndarray
    objective: float
    sweeps: int
    max_delta_kw: float
    repair_scale: float


@dataclass
class _ZoneBlock:
    """Temperature-independent LP ingredients for one zone."""

    zone: Zone
    var_idx: np.ndarray         # indices into the global segment arrays
    var_loc: np.ndarray         # in-zone node position of each variable
    a_zz: np.ndarray            # (k, k) dense in-zone mixing block
    a_rows: object              # (k, n_nodes) rows of A_MM, native backend
    a_mc_z: np.ndarray          # (k, n_crac) dense CRAC->zone mixing
    g_loc: np.ndarray           # (k, k) W_z @ A_zz @ diag(coeff_z)
    w_z: np.ndarray             # (k, k) dense (I - A_zz)^-1


@dataclass
class ZonalState:
    """Warm handle for :func:`solve_stage1_zonal` (never serialized).

    ``struct_key`` guards the temperature-independent caches (zone
    blocks, CRAC gain rows, ARR hulls, segments); ``solve_key`` adds
    the outlet vector and power cap and guards verbatim result replay.
    Arrival rates are deliberately absent from both — Stage 1 does not
    read them — which is what makes rate-only replans O(1).
    """

    struct_key: str
    solve_key: str | None = None
    arrs: list[AggregateRewardRate] = field(default_factory=list)
    segments: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    blocks: list[_ZoneBlock] = field(default_factory=list)
    crac_gain: np.ndarray | None = None
    seed_core: np.ndarray | None = None
    result: ZonalStage1Result | None = None


def _hash_matrix(h: "hashlib._Hash", mat) -> None:
    """Feed a dense array or CSR matrix into a digest, content-exactly."""
    if issparse(mat):
        csr = mat.tocsr()
        for part in (csr.data, csr.indices, csr.indptr):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        h.update(np.ascontiguousarray(mat).tobytes())


def _struct_key(datacenter: DataCenter, workload: Workload,
                psi: float) -> str:
    """Digest of everything the zonal caches depend on except (t, cap)."""
    model = datacenter.require_thermal()
    h = hashlib.sha256()
    _hash_matrix(h, model.alpha)
    _hash_matrix(h, model.flows)
    h.update(repr((model.n_crac, model.rho, model.cp,
                   model.backend)).encode())
    _hash_matrix(h, datacenter.redline_c)
    _hash_matrix(h, datacenter.node_base_power)
    _hash_matrix(h, datacenter.node_type_index)
    _hash_matrix(h, datacenter.layout.hot_aisle_of_node)
    for spec in datacenter.node_types:
        h.update(repr((spec.name, spec.base_power_kw, spec.cores_per_node,
                       spec.pstate_power_kw, spec.frequencies_mhz,
                       spec.performance_scale)).encode())
    for crac in datacenter.cracs:
        cop = crac.cop_model
        h.update(repr((crac.flow_m3s, cop.a2, cop.a1, cop.a0)).encode())
    _hash_matrix(h, workload.ecs)
    _hash_matrix(h, workload.rewards)
    _hash_matrix(h, workload.deadline_slack)
    h.update(repr(float(psi)).encode())
    return h.hexdigest()


def _block(mat, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense sub-block of a dense or sparse matrix."""
    if issparse(mat):
        return mat[rows][:, cols].toarray()
    return mat[np.ix_(rows, cols)]


def _build_blocks(datacenter: DataCenter,
                  segments: tuple[np.ndarray, np.ndarray, np.ndarray]
                  ) -> list[_ZoneBlock]:
    """Assemble the temperature-independent per-zone LP ingredients."""
    model = datacenter.require_thermal()
    nc = model.n_crac
    a_mm = model.mix[nc:, nc:]
    a_mc = model.mix[nc:, :nc]
    coeff = model.node_heat_coeff
    node_of_var = segments[0]
    blocks = []
    for zone in zone_partition(datacenter.layout):
        nodes = zone.nodes
        if nodes.size == 0:
            continue
        in_zone = np.zeros(datacenter.n_nodes, dtype=bool)
        in_zone[nodes] = True
        var_idx = np.nonzero(in_zone[node_of_var])[0]
        loc = np.full(datacenter.n_nodes, -1)
        loc[nodes] = np.arange(nodes.size)
        a_zz = _block(a_mm, nodes, nodes)
        eye = np.eye(nodes.size)
        w_z = np.linalg.solve(eye - a_zz, eye)
        g_loc = w_z @ a_zz @ np.diag(coeff[nodes])
        a_mc_z = a_mc[nodes].toarray() if issparse(a_mc) \
            else a_mc[nodes]
        blocks.append(_ZoneBlock(
            zone=zone,
            var_idx=var_idx,
            var_loc=loc[node_of_var[var_idx]],
            a_zz=a_zz,
            a_rows=a_mm[nodes],
            a_mc_z=a_mc_z,
            g_loc=g_loc,
            w_z=w_z,
        ))
    return blocks


def _objective(datacenter: DataCenter, arrs: list[AggregateRewardRate],
               core_sums: np.ndarray) -> float:
    """Aggregate reward rate of per-node core-power totals.

    Cores in a node are identical and the per-core ARR is concave, so
    the node's best reward from total core power ``C`` is
    ``n_cores * concave(C / n_cores)`` (equal split).
    """
    total = 0.0
    type_idx = datacenter.node_type_index
    for t, spec in enumerate(datacenter.node_types):
        nodes = np.nonzero(type_idx == t)[0]
        if nodes.size == 0:
            continue
        n_cores = spec.cores_per_node
        total += float(n_cores
                       * arrs[t].concave(core_sums[nodes] / n_cores).sum())
    return total


def solve_stage1_zonal(datacenter: DataCenter, workload: Workload, *,
                       p_const: float, t_crac_out: np.ndarray,
                       psi: float = 50.0,
                       max_sweeps: int = DEFAULT_MAX_SWEEPS,
                       tol_kw: float = DEFAULT_TOL_KW,
                       warm: ZonalState | None = None
                       ) -> tuple[ZonalStage1Result, ZonalState]:
    """Zonal Stage 1 at fixed CRAC outlet temperatures.

    Parameters mirror :func:`repro.core.stage1.solve_stage1_fixed_temps`
    with the outlet vector supplied by the caller (the 100x serve loop
    holds outlets fixed between room changes; the golden tests drive
    this with the monolithic search's optimum).

    Returns ``(result, state)``; pass ``state`` back as ``warm`` on the
    next call.  When nothing but arrival rates changed the previous
    result replays verbatim (``sweeps == 0``); when only ``t_crac_out``
    or ``p_const`` moved, the cached zone blocks and hulls are reused
    and the sweep is seeded from the previous core powers.

    Raises :class:`repro.optimize.linprog.InfeasibleError` when even
    all-cores-off violates a redline or the power cap.
    """
    model = datacenter.require_thermal()
    t = np.asarray(t_crac_out, dtype=float)
    if t.shape != (model.n_crac,):
        raise ValueError(
            f"need {model.n_crac} CRAC outlet temperatures, got {t.shape}")

    if warm is not None and warm.struct_key:
        struct_key = warm.struct_key
        fresh_struct = False
    else:
        struct_key = _struct_key(datacenter, workload, psi)
        fresh_struct = True
    solve_key = hashlib.sha256(
        (struct_key + repr(float(p_const))).encode()
        + t.tobytes()).hexdigest()
    if (warm is not None and not fresh_struct
            and warm.solve_key == solve_key and warm.result is not None):
        obs_metrics.counter("stage1.zonal_replays").inc()
        return warm.result, warm

    state = warm if (warm is not None and not fresh_struct) \
        else ZonalState(struct_key=struct_key)
    with obs_span("stage1_zonal", n_crac=model.n_crac,
                  n_nodes=datacenter.n_nodes):
        result = _solve(datacenter, workload, model, t, p_const, psi,
                        max_sweeps, tol_kw, state)
    state.solve_key = solve_key
    state.result = result
    return result, state


def _solve(datacenter: DataCenter, workload: Workload, model, t: np.ndarray,
           p_const: float, psi: float, max_sweeps: int, tol_kw: float,
           state: ZonalState) -> ZonalStage1Result:
    # imported here: the ledger imports this module, and dense rooms
    # never reach it
    import scipy.sparse as sp

    nc = model.n_crac
    n_nodes = datacenter.n_nodes
    base = datacenter.node_base_power
    redline = datacenter.redline_c
    coeff = model.node_heat_coeff

    # ---- temperature-independent caches (struct-level, reusable) ----
    if not state.arrs:
        state.arrs = build_arr_functions(datacenter, workload, psi)
    arrs = state.arrs
    if state.segments is None:
        state.segments = vectorized.assemble_segments(datacenter, arrs)
    node_of_var, caps, slopes = state.segments
    if not state.blocks:
        state.blocks = _build_blocks(datacenter, state.segments)
    blocks = state.blocks
    if state.crac_gain is None:
        state.crac_gain = model.gain_rows(np.arange(nc)).toarray()
    crac_gain = state.crac_gain                  # (n_crac, n_nodes), exact

    # ---- temperature-dependent affine pieces (exact, monolithic) ----
    cop_model = vectorized.wrap_cop(datacenter.cracs[0].cop_model)
    cop = np.asarray(cop_model(t), dtype=float)
    weight = model.crac_capacity / cop           # kW per Kelvin of lift
    crac_coeff = weight @ crac_gain              # (n_nodes,)
    const_c = model.inlet_base[:nc] @ t          # CRAC inlet constants
    crac_const = float(weight @ (const_c - t))
    base_total = float(base.sum()) + crac_const + float(crac_coeff @ base)
    if base_total > p_const + 1e-9:
        raise InfeasibleError(
            f"base power {base_total:.1f} kW exceeds cap {p_const:.1f} kW")

    # ---- state of the Gauss-Seidel sweep ----
    core = np.zeros(n_nodes)
    if state.seed_core is not None and state.seed_core.shape == core.shape:
        core = state.seed_core.copy()
    st0 = model.steady_state(t, base + core)
    x = st0.t_in[nc:].copy()                     # node inlet temperatures
    y = x + coeff * (base + core)                # node outlet temperatures
    weighted_core = float((1.0 + crac_coeff) @ core)

    # Constraint generation for cross-zone redlines: a zone LP only
    # models its *own* nodes' redlines, so on strongly coupled rooms a
    # zone can heat a neighbor's nodes past redline without noticing.
    # After each sweep the exact model flags violated nodes; their
    # exact monolithic gain rows (cheap transpose solves on the sparse
    # backend) are added to every zone LP from then on.  On truly zonal
    # rooms the cross-zone node gain is zero and this set stays empty.
    # The rows are zone-local, so they stay CSR throughout.
    active_nodes = np.empty(0, dtype=int)
    active_gain = sp.csr_matrix((0, n_nodes))
    active_const = np.empty(0)

    sweeps = 0
    max_delta = float("inf")
    for sweep in range(max_sweeps):
        max_delta = 0.0
        for blk in blocks:
            nodes = blk.zone.nodes
            # Frozen boundary coupling: everything the zone's nodes
            # inhale from outside the zone at the current iterate.
            r_z = np.asarray(blk.a_rows @ y).ravel() - blk.a_zz @ y[nodes]
            const_z = blk.w_z @ (blk.a_mc_z @ t + r_z
                                 + blk.a_zz @ (coeff[nodes] * base[nodes]))
            # Node redlines: const_z + g_loc @ C_z <= redline (in-zone).
            rows_n = blk.g_loc[:, blk.var_loc]
            rhs_n = redline[nc + nodes] - const_z
            # CRAC redlines: exact monolithic gain, others frozen.
            frozen_c = const_c + crac_gain @ (base + core) \
                - crac_gain[:, nodes] @ core[nodes]
            rows_c_full = crac_gain[:, nodes]
            live = np.abs(rows_c_full).max(axis=1) > 1e-15
            rows_c = rows_c_full[live][:, blk.var_loc]
            rhs_c = redline[:nc][live] - frozen_c[live]
            # Power cap: what the frozen other zones leave over.
            in_zone_use = float((1.0 + crac_coeff[nodes]) @ core[nodes])
            budget = p_const - base_total - (weighted_core - in_zone_use)
            if sweep == 0 and not core.any() and (
                    np.any(rhs_n < -1e-9) or np.any(rhs_c < -1e-9)):
                # Cold start at base power: the frozen boundary IS the
                # exact steady state, so a negative slack means even
                # all-cores-off violates a redline.
                raise InfeasibleError(
                    f"zone {blk.zone.index}: all-cores-off violates a "
                    "redline at these CRAC outlet temperatures")
            # Mid-iteration a neighbor's interim fill can transiently
            # eat this zone's slack; clamp instead of failing — the
            # relaxed update backs both zones off and the loop
            # re-balances (the final monolithic verify guarantees
            # feasibility regardless).
            rhs_n = np.maximum(rhs_n, 0.0)
            rhs_c = np.maximum(rhs_c, 0.0)
            # Generated cross-zone redline rows (exact affine, others
            # frozen at the current iterate).
            if active_nodes.size:
                g_act = active_gain[:, nodes].toarray()
                rhs_a = (redline[nc + active_nodes] - active_const
                         - active_gain @ base
                         - (active_gain @ core - g_act @ core[nodes]))
                live_a = np.abs(g_act).max(axis=1) > 1e-15
                rows_a = g_act[live_a][:, blk.var_loc]
                rhs_a = np.maximum(rhs_a[live_a], 0.0)
            else:
                rows_a = np.empty((0, blk.var_idx.size))
                rhs_a = np.empty(0)
            lp = LinearProgram(name="stage1_zone", maximize=True)
            lp.add_variables(blk.var_idx.size, lb=0.0,
                             ub=caps[blk.var_idx],
                             objective=slopes[blk.var_idx])
            lp.add_le_rows(np.vstack([rows_n, rows_c, rows_a]),
                           np.concatenate([rhs_n, rhs_c, rhs_a]))
            lp.add_le_rows((1.0 + crac_coeff[nodes])[blk.var_loc],
                           max(budget, 0.0))
            sol = lp.solve()
            lp_core = np.bincount(blk.var_loc, weights=sol.x,
                                  minlength=nodes.size)
            # Damped update after the first sweep: full Gauss-Seidel
            # steps oscillate on strongly coupled (dense-alpha) rooms
            # because each zone re-grabs the headroom its neighbor just
            # released; under-relaxation restores convergence there and
            # costs nothing on weakly coupled zonal rooms (the LP
            # optimum stops moving after sweep one).
            relax = 1.0 if sweep == 0 else RELAXATION
            new_core = core[nodes] + relax * (lp_core - core[nodes])
            max_delta = max(max_delta,
                            float(np.abs(new_core - core[nodes]).max()))
            core[nodes] = new_core
            weighted_core += float((1.0 + crac_coeff[nodes]) @ new_core) \
                - in_zone_use
            # Gauss-Seidel: the next zone sees this zone's new outlets.
            x[nodes] = const_z + blk.g_loc @ new_core
            y[nodes] = x[nodes] + coeff[nodes] * (base[nodes] + new_core)
        sweeps = sweep + 1
        # Refresh the frozen boundary from the exact model (one sparse
        # solve — the zone-local affine predictions are exact only at
        # the fixed point) and grow the generated-constraint set.
        st = model.steady_state(t, base + core)
        x = st.t_in[nc:].copy()
        y = x + coeff * (base + core)
        weighted_core = float((1.0 + crac_coeff) @ core)
        fresh = np.nonzero(st.t_in[nc:] - redline[nc:] > 1e-7)[0]
        fresh = np.setdiff1d(fresh, active_nodes)
        if fresh.size:
            active_nodes = np.concatenate([active_nodes, fresh])
            active_gain = sp.vstack([active_gain,
                                     model.gain_rows(nc + fresh)],
                                    format="csr")
            active_const = np.concatenate([
                active_const, model.inlet_base[nc + fresh] @ t])
            continue    # re-sweep with the new rows before convergence test
        if max_delta <= tol_kw:
            break

    # ---- coordination: restricted master LP on the discovered rows ----
    # The per-zone solves split the shared power budget greedily (each
    # zone only sees what the frozen others left over), which converges
    # but can land at an order-dependent equilibrium below the true LP
    # optimum on strongly coupled rooms.  The sweeps' durable product
    # is the *active set* — which node redlines bind.  A restricted
    # master LP over all segment variables (power cap, CRAC redlines
    # and the generated node rows; all exact, all sparse) then splits
    # the shared budget optimally, and cutting-plane rounds add any
    # node redline the exact model still flags — rarely more than one
    # round, because the sweeps already discovered the binding set.
    n_vars = caps.size
    expand = sp.csr_matrix(
        (np.ones(n_vars), (node_of_var, np.arange(n_vars))),
        shape=(n_nodes, n_vars))

    def sparse_rows(gain) -> sp.csr_matrix:
        rows = sp.csr_matrix(gain, copy=True)
        rows.data = np.where(np.abs(rows.data) > 1e-15, rows.data, 0.0)
        rows.eliminate_zeros()
        return rows @ expand

    master = LinearProgram(name="stage1_zonal_master", maximize=True)
    master.add_variables(n_vars, lb=0.0, ub=caps, objective=slopes)
    master.add_le_rows((1.0 + crac_coeff)[node_of_var], p_const - base_total)
    master.add_le_rows(sparse_rows(crac_gain),
                       redline[:nc] - const_c - crac_gain @ base)
    if active_nodes.size:
        master.add_le_rows(
            sparse_rows(active_gain),
            redline[nc + active_nodes] - active_const - active_gain @ base)
    cuts = 0
    for _ in range(MAX_CUT_ROUNDS):
        sol = master.solve()
        core = np.bincount(node_of_var, weights=sol.x, minlength=n_nodes)
        st = model.steady_state(t, base + core)
        fresh = np.nonzero(st.t_in[nc:] - redline[nc:] > 1e-7)[0]
        fresh = np.setdiff1d(fresh, active_nodes)
        if fresh.size == 0:
            break
        cuts += 1
        gain_f = model.gain_rows(nc + fresh)
        const_f = model.inlet_base[nc + fresh] @ t
        master.add_le_rows(
            sparse_rows(gain_f),
            redline[nc + fresh] - const_f - gain_f @ base)
        active_nodes = np.concatenate([active_nodes, fresh])
    obs_metrics.counter("stage1.zonal_cuts").inc(cuts)

    # ---- monolithic verify and conservative repair ----
    def feasible(scale: float) -> bool:
        p = base + scale * core
        t_in = model.steady_state(t, p).t_in
        if np.any(t_in > redline + 1e-7):
            return False
        if np.any(t_in[:nc] < t - 1e-6):
            return False        # CRAC clamp: linearized power invalid
        total = base_total + float((1.0 + crac_coeff) @ (scale * core))
        return total <= p_const + 1e-7

    repair_scale = 1.0
    if not feasible(1.0):
        lo, hi = 0.0, 1.0
        if not feasible(0.0):
            raise InfeasibleError(
                "all-cores-off is infeasible for the full thermal model "
                "at these CRAC outlet temperatures")
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        repair_scale = lo
        core = repair_scale * core

    node_power = base + core
    core_power = distribute_node_power(datacenter, arrs, core)
    objective = _objective(datacenter, arrs, core)
    obs_metrics.counter("stage1.zonal_sweeps").inc(sweeps)
    obs_annotate(sweeps=sweeps, max_delta_kw=max_delta,
                 repair_scale=repair_scale)
    state.seed_core = core.copy()
    return ZonalStage1Result(
        t_crac_out=t.copy(),
        core_power_kw=core_power,
        node_power_kw=node_power,
        objective=objective,
        sweeps=sweeps,
        max_delta_kw=max_delta,
        repair_scale=repair_scale,
    )
