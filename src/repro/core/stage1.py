"""Stage 1 — power-to-cores and CRAC outlet assignment (Section V.B.2).

For *fixed* CRAC outlet temperatures the relaxed problem (Eq. 9) is a
linear program: maximize the summed concave ``ARR`` of every core subject
to the total power cap (Constraint 1) and the redlines (Constraint 2),
both of which are affine in node powers
(:class:`repro.thermal.constraints.ThermalLinearization`).

Scalability comes from an exact aggregation (DESIGN.md §3.1): cores in a
node are identical and ``ARR`` is concave, so the node's best aggregate
reward from total core power ``C`` is the concave PWL whose segments are
the per-core hull segments with capacities multiplied by the core count.
The LP therefore has one variable per (node, hull segment) —
``O(NCN * eta)`` — instead of one per core, and per-core powers are
recovered by a breakpoint-quantized greedy fill whose values are real
P-state powers except for at most one partial core per node (which keeps
the Stage 2 integer conversion nearly lossless).

The outer search over CRAC outlet temperatures is the paper's
coarse-to-fine discretized scan (:func:`repro.optimize.search.coarse_to_fine_search`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.arr import AggregateRewardRate, aggregate_reward_rate
from repro.datacenter.builder import DataCenter
from repro.kernels import vectorized
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import span as obs_span
from repro.core.warmstart import WarmContext
from repro.optimize.linprog import (InfeasibleError, LinearProgram,
                                    LoadedProgram, LPSolution)
from repro.optimize.search import (SCREEN_DELTA, SearchResult,
                                   coarse_to_fine_search,
                                   seeded_coordinate_search,
                                   uniform_then_coordinate_search)
from repro.thermal.constraints import ThermalLinearization
from repro.workload.tasktypes import Workload

__all__ = ["Stage1Solution", "build_arr_functions",
           "solve_stage1_fixed_temps", "solve_stage1", "distribute_node_power"]


@dataclass
class Stage1Solution:
    """Output of Stage 1 for one CRAC outlet vector.

    Attributes
    ----------
    t_crac_out:
        Assigned CRAC outlet temperatures, C.
    core_power_kw:
        ``PCORE_k`` for every core (global index), kW.
    node_power_kw:
        Total node power including base, kW (Eq. 1 with relaxed cores).
    objective:
        Predicted aggregate reward rate (the Eq. 9 objective).
    linearization:
        The thermal/power linear view the LP was built from, reused by
        Stage 2 feasibility checks.
    arr_functions:
        ``ARR_j`` per node type, as used (for diagnostics/plots).
    """

    t_crac_out: np.ndarray
    core_power_kw: np.ndarray
    node_power_kw: np.ndarray
    objective: float
    linearization: ThermalLinearization
    arr_functions: list[AggregateRewardRate]


def build_arr_functions(datacenter: DataCenter, workload: Workload,
                        psi: float) -> list[AggregateRewardRate]:
    """One ``ARR_j`` per node type in the catalog."""
    return [
        aggregate_reward_rate(workload, spec, t, psi)
        for t, spec in enumerate(datacenter.node_types)
    ]


def _node_segments(datacenter: DataCenter,
                   arrs: list[AggregateRewardRate]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-node hull segments for the LP.

    Returns ``(node_of_var, capacity, slope)`` — one entry per
    (node, segment) variable; capacity is segment length times the
    node's core count.
    """
    return vectorized.assemble_segments(datacenter, arrs)


#: Sentinel distinguishing "no cache entry" from a cached infeasibility.
_LP_MISS = object()

#: Kelvin by which every CRAC inlet must clear the CRAC check's own
#: tolerance with all cores off before a probe's warm score is used
#: (see :class:`_OutletProbes`); it absorbs round-off in the inlet map
#: and basic variables a hair below zero.
_BASE_VALIDITY_MARGIN = 1e-6


def _at_base(datacenter: DataCenter, lin: ThermalLinearization,
             p_const: float) -> tuple[np.ndarray, float] | None:
    """``(gain @ base, total power)`` with all cores off, or ``None``
    when that point already violates a redline or the power cap."""
    base = datacenter.node_base_power
    base_inlet_load = lin.inlet_gain @ base
    if np.any(base_inlet_load > lin.redline_rhs + 1e-9):
        return None
    base_total = float(base.sum()) + lin.crac_const + float(lin.crac_coeff @ base)
    if base_total > p_const + 1e-9:
        return None
    return base_inlet_load, base_total


def _segment_caps(datacenter: DataCenter,
                  segments: tuple[np.ndarray, np.ndarray, np.ndarray],
                  disabled_nodes: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``segments`` with the capacity of disabled nodes' segments zeroed."""
    node_of_var, caps, slopes = segments
    if disabled_nodes is not None:
        disabled_nodes = np.asarray(disabled_nodes, dtype=bool)
        if disabled_nodes.shape != (datacenter.n_nodes,):
            raise ValueError("disabled_nodes mask shape mismatch")
        caps = np.where(disabled_nodes[node_of_var], 0.0, caps)
    return node_of_var, caps, slopes


def _program(lin: ThermalLinearization,
             segments: tuple[np.ndarray, np.ndarray, np.ndarray],
             base_inlet_load: np.ndarray, budget: float) -> LinearProgram:
    """The Stage 1 LP at ``lin``'s outlets: segment variables, the
    redline rows, then the power row with right-hand side ``budget``."""
    node_of_var, caps, slopes = segments
    lp = LinearProgram(name="stage1", maximize=True)
    lp.add_variables(caps.size, lb=0.0, ub=caps, objective=slopes)
    # Redline rows: gain[u] @ (base + C) <= redline_rhs[u], the node
    # coefficients expanded onto segment variables.
    lp.add_le_rows(lin.inlet_gain[:, node_of_var],
                   lin.redline_rhs - base_inlet_load)
    # Power cap: sum_j (1 + crac_coeff_j) * C_j <= Pconst - base_total.
    lp.add_le_rows((1.0 + lin.crac_coeff)[node_of_var], budget)
    return lp


def solve_stage1_fixed_temps(datacenter: DataCenter,
                             arrs: list[AggregateRewardRate],
                             linearization: ThermalLinearization,
                             p_const: float,
                             disabled_nodes: np.ndarray | None = None,
                             *,
                             segments: tuple[np.ndarray, np.ndarray,
                                             np.ndarray] | None = None,
                             lp_cache: dict[str, LPSolution | None]
                             | None = None,
                             lp_key: str | None = None
                             ) -> Stage1Solution | None:
    """Solve the Stage 1 LP at fixed CRAC outlet temperatures.

    Returns ``None`` when the temperatures admit no feasible operating
    point (even all-cores-off violates a redline or the power cap) or
    when the linearized CRAC model is invalid at the optimum (a CRAC's
    inlet below its outlet, so Eq. 3 would clamp; see DESIGN.md §3.3).

    ``disabled_nodes`` (boolean mask) removes nodes' cores from the
    optimization — used by the consolidation extension for powered-down
    chassis, whose base power the caller zeroes separately.

    ``segments`` lets the caller hoist the (temperature-independent)
    hull-segment assembly out of the probe loop.  ``lp_cache`` /
    ``lp_key`` replay earlier probes: when the key is present, the
    stored LP solution (or stored infeasibility) is reused bit-for-bit
    and no LP is assembled or solved (a replayed solution counts in
    ``lp.warm_hits.stage1``); otherwise the cold solve's outcome is
    cached under it.  The key must determine the assembled LP exactly —
    Stage 1 derives it from the warm-start digests (see
    :mod:`repro.core.warmstart`).
    """
    lin = linearization
    base = datacenter.node_base_power
    at_base = _at_base(datacenter, lin, p_const)
    if at_base is None:
        return None
    base_inlet_load, base_total = at_base
    segments = _segment_caps(
        datacenter, segments if segments is not None
        else _node_segments(datacenter, arrs), disabled_nodes)
    node_of_var = segments[0]
    caching = lp_cache is not None and lp_key is not None
    sol = lp_cache.get(lp_key, _LP_MISS) if caching else _LP_MISS
    if sol is None:             # this exact LP was infeasible before
        obs_metrics.counter("stage1.infeasible_lp_replays").inc()
        return None
    if sol is not _LP_MISS:
        obs_metrics.counter("lp.warm_hits.stage1").inc()
    else:
        lp = _program(lin, segments, base_inlet_load, p_const - base_total)
        try:
            sol = lp.solve()
        except InfeasibleError:
            if caching:
                lp_cache[lp_key] = None
            return None
        if caching:
            lp_cache[lp_key] = sol

    fills = sol.x
    core_sums = np.bincount(node_of_var, weights=fills,
                            minlength=datacenter.n_nodes)
    node_power = base + core_sums
    # Validity of the linearized CRAC power: every CRAC inlet must be at
    # or above its assigned outlet, otherwise Eq. 3 clamps and the LP
    # under-counted cooling power.
    t_in = lin.inlet_temperatures(node_power)
    n_crac = lin.t_crac_out.size
    if np.any(t_in[:n_crac] < lin.t_crac_out - 1e-6):
        return None
    core_power = distribute_node_power(datacenter, arrs, core_sums)
    return Stage1Solution(
        t_crac_out=lin.t_crac_out.copy(),
        core_power_kw=core_power,
        node_power_kw=node_power,
        objective=float(sol.objective),
        linearization=lin,
        arr_functions=arrs,
    )


class _OutletProbes:
    """Stage 1's objective over CRAC outlet vectors, for one search.

    :meth:`screen` is the search's objective.  It scores a probe on one
    HiGHS model, loaded at the search's first LP probe and edited in
    place for each later one (between outlet vectors only the redline
    right-hand sides and the power row change), each solve warm-started
    from the basis the previous one left.  The warm solve may stop at
    another vertex of the degenerate optimum than the cold one, so its
    score is used only where the vertex cannot matter: the all-cores-off
    point passes every check, and every CRAC inlet there clears the
    CRAC check of :func:`solve_stage1_fixed_temps` by
    :data:`_BASE_VALIDITY_MARGIN`.  The gains into the CRAC inlets are
    non-negative, so every vertex then passes that check, and the probe
    is worth its LP objective.  Any other probe, and any probe HiGHS
    does not solve to optimality warm, is solved cold.

    :meth:`exact` solves a probe cold through
    :func:`solve_stage1_fixed_temps`: the search calls it for both sides
    of a comparison too close to call on warm scores, and for its
    winner, so the committed :class:`Stage1Solution`, the search score
    and every ``lp_cache`` entry come from cold solves.  Warm scores are
    kept in ``screen_cache`` under the ``lp_cache`` key, for the next
    search of a warm-start chain.
    """

    def __init__(self, datacenter: DataCenter,
                 arrs: list[AggregateRewardRate],
                 lin_of: Callable[[np.ndarray], ThermalLinearization],
                 p_const: float, disabled_nodes: np.ndarray | None,
                 segments: tuple[np.ndarray, np.ndarray, np.ndarray],
                 lp_cache: dict[str, LPSolution | None] | None,
                 screen_cache: dict[str, float] | None, key_prefix: str):
        self.datacenter = datacenter
        self.arrs = arrs
        self.lin_of = lin_of
        self.p_const = p_const
        self.disabled_nodes = disabled_nodes
        self.segments = segments
        self.capped = _segment_caps(datacenter, segments, disabled_nodes)
        self.lp_cache = lp_cache
        self.screen_cache = screen_cache
        self.key_prefix = key_prefix
        #: cold outcome per outlet vector solved cold (``tobytes`` key)
        self.solutions: dict[bytes, Stage1Solution | None] = {}
        self.screened: dict[bytes, float] = {}
        self.probes = self.infeasible = 0
        self._model: LoadedProgram | None = None
        self._gain: np.ndarray | None = None

    def _key(self, t_key: bytes) -> str | None:
        if self.lp_cache is None:
            return None
        return self.key_prefix + t_key.hex()

    def screen(self, t_vec: np.ndarray) -> float | None:
        self.probes += 1
        score = self._screen(t_vec)
        if score is None:
            self.infeasible += 1
        return score

    def _screen(self, t_vec: np.ndarray) -> float | None:
        t_key = t_vec.tobytes()
        if t_key in self.solutions or t_key in self.screened:
            # a probe this search already solved, cold or warm
            obs_metrics.counter("lp.warm_hits.stage1").inc()
            if t_key in self.solutions:
                return self._objective(t_key)
            return self.screened[t_key]
        key = self._key(t_key)
        if key is not None and key in self.lp_cache:
            return self._exact(t_vec)
        if key is not None and key in self.screen_cache:
            obs_metrics.counter("lp.warm_hits.stage1").inc()
            score = self.screened[t_key] = self.screen_cache[key]
            return score
        lin = self.lin_of(t_vec)
        at_base = _at_base(self.datacenter, lin, self.p_const)
        if at_base is None:
            return None
        score = None
        if self._vertex_independent(lin, at_base[0]):
            score = self._warm_objective(lin, *at_base)
        if score is None:
            obs_metrics.counter("stage1.cold_fallbacks").inc()
            return self._exact(t_vec)
        self.screened[t_key] = score
        if key is not None:
            self.screen_cache[key] = score
        return score

    def _vertex_independent(self, lin: ThermalLinearization,
                            base_inlet_load: np.ndarray) -> bool:
        n_crac = lin.t_crac_out.size
        if lin.inlet_gain is not self._gain:
            if not (lin.inlet_gain[:n_crac] >= 0.0).all():
                return False
        t_in = lin.inlet_const[:n_crac] + base_inlet_load[:n_crac]
        return bool(np.all(t_in >= lin.t_crac_out - 1e-6
                           + _BASE_VALIDITY_MARGIN))

    def _warm_objective(self, lin: ThermalLinearization,
                        base_inlet_load: np.ndarray,
                        base_total: float) -> float | None:
        budget = self.p_const - base_total
        if lin.inlet_gain is not self._gain:
            # a new redline matrix (the search's first LP probe): load it
            self._model = _program(lin, self.capped, base_inlet_load,
                                   budget).load()
            self._gain = lin.inlet_gain
        else:
            self._model.set_upper(np.append(
                lin.redline_rhs - base_inlet_load, budget))
            self._model.set_row(lin.redline_rhs.size,
                                (1.0 + lin.crac_coeff)[self.capped[0]])
        return self._model.objective()

    def _objective(self, t_key: bytes) -> float | None:
        sol = self.solutions[t_key]
        return None if sol is None else sol.objective

    def exact(self, t_vec: np.ndarray) -> float | None:
        if t_vec.tobytes() not in self.solutions:
            # one HiGHS model at a time (a later warm probe reloads it)
            self._model = self._gain = None
        return self._exact(t_vec)

    def _exact(self, t_vec: np.ndarray) -> float | None:
        t_key = t_vec.tobytes()
        if t_key not in self.solutions:
            sol = solve_stage1_fixed_temps(
                self.datacenter, self.arrs, self.lin_of(t_vec), self.p_const,
                disabled_nodes=self.disabled_nodes, segments=self.segments,
                lp_cache=self.lp_cache, lp_key=self._key(t_key))
            self.solutions[t_key] = sol
            warm = self.screened.get(t_key)
            if warm is not None:
                obs_metrics.counter("stage1.cold_commits").inc()
                if sol is None or abs(sol.objective - warm) > \
                        SCREEN_DELTA / 2 * max(1.0, abs(sol.objective)):
                    obs_metrics.counter("stage1.screen_disagreements").inc()
        return self._objective(t_key)


def distribute_node_power(datacenter: DataCenter,
                          arrs: list[AggregateRewardRate],
                          node_core_power: np.ndarray) -> np.ndarray:
    """Split each node's total core power onto its cores.

    Breakpoint-quantized greedy (DESIGN.md §3.1): raise all cores of the
    node through the concave-hull breakpoints in order; within the last
    affordable level, advance as many whole cores as possible and give
    the remainder to a single partial core.  Every resulting per-core
    power is a hull breakpoint (a real, "good" P-state power) except at
    most one per node, and the summed ``ARR`` equals the LP objective.
    """
    return vectorized.distribute_node_power(datacenter, arrs,
                                            node_core_power)


def solve_stage1(datacenter: DataCenter, workload: Workload, *,
                 p_const: float, psi: float = 50.0,
                 search: str = "fast",
                 coarse_step: float = 5.0,
                 final_step: float = 1.0,
                 disabled_nodes: np.ndarray | None = None,
                 warm: WarmContext | None = None
                 ) -> tuple[Stage1Solution, SearchResult]:
    """Full Stage 1: discretized CRAC temperature search around the LP.

    The canonical call is ``solve_stage1(datacenter, workload,
    p_const=cap, psi=50.0)`` — the same ``(datacenter, workload,
    p_const)`` order as every other solver (see
    :mod:`repro.core.api`); every tuning knob is keyword-only.

    Parameters
    ----------
    search:
        ``"fast"`` — uniform scalar scan at 1-degree granularity plus
        coordinate descent (near-optimal for homogeneous CRACs, and the
        default because the full grid "increases exponentially with the
        number of CRAC units" as the paper notes); ``"full"`` — the
        paper's coarse-to-fine product-grid scan.
    warm:
        A :class:`repro.core.warmstart.WarmContext` carrying the
        previous solve's caches; ARR hulls, hull segments, thermal
        linearizations and LP solutions replay from it (value-exact by
        construction), and — in ``"fast"`` mode with a seed vector — the
        scalar scan is replaced by coordinate descent from the previous
        optimum, with a cold fallback when the seed went infeasible.

    Returns the best solution and the search trace.  Raises
    ``RuntimeError`` if no outlet-temperature vector admits a feasible
    operating point (e.g. ``p_const`` below the idle power of the room).
    """
    model = datacenter.require_thermal()
    redline = datacenter.redline_c
    lows = [c.outlet_range_c[0] for c in datacenter.cracs]
    highs = [c.outlet_range_c[1] for c in datacenter.cracs]
    if warm is not None and warm.arrs is not None:
        arrs = warm.arrs
    else:
        arrs = build_arr_functions(datacenter, workload, psi)
    if warm is not None and warm.segments is not None:
        segments = warm.segments
    else:
        segments = _node_segments(datacenter, arrs)
    if warm is not None:
        warm.arrs = arrs
        warm.segments = segments
    # memoized CoP lookup (bit-identical to the direct model)
    cop_model = vectorized.wrap_cop(datacenter.cracs[0].cop_model)
    # linearizations are pure in (structure, t_vec); memoize per solve
    # and across warm-chained solves
    lin_cache = warm.lin_cache if warm is not None else {}
    lp_cache = warm.lp_cache if warm is not None else None
    if disabled_nodes is None:
        disabled_key = "-"
    else:
        disabled_key = np.asarray(disabled_nodes,
                                  dtype=bool).tobytes().hex()
    key_prefix = f"{warm.stage1_key if warm is not None else ''}" \
                 f"|d{disabled_key}|t"

    def lin_of(t_vec: np.ndarray) -> ThermalLinearization:
        t_key = t_vec.tobytes()
        lin = lin_cache.get(t_key)
        if lin is None:
            lin = ThermalLinearization.build(model, t_vec, redline,
                                             cop_model)
            lin_cache[t_key] = lin
        return lin

    probes = _OutletProbes(
        datacenter, arrs, lin_of, p_const, disabled_nodes, segments,
        lp_cache, warm.screen_cache if warm is not None else None,
        key_prefix)
    seed = warm.seed_t if warm is not None else None
    with obs_span("stage1", mode=search, n_crac=datacenter.n_crac):
        result = None
        if search == "fast":
            if seed is not None:
                result = seeded_coordinate_search(
                    probes.screen, seed, datacenter.n_crac, min(lows),
                    max(highs), step=final_step, maximize=True,
                    exact=probes.exact)
                if result is not None:
                    obs_metrics.counter("stage1.warm_seeded").inc()
            if result is None:
                result = uniform_then_coordinate_search(
                    probes.screen, datacenter.n_crac, min(lows), max(highs),
                    step=final_step, maximize=True, exact=probes.exact)
        elif search == "full":
            result = coarse_to_fine_search(
                probes.screen, datacenter.n_crac, min(lows), max(highs),
                coarse_step=coarse_step, final_step=final_step,
                uniform_first=True, maximize=True, exact=probes.exact)
        else:
            raise ValueError(
                f"unknown search mode {search!r} (use 'fast' or 'full')")
        obs_annotate(probes=probes.probes, infeasible_probes=probes.infeasible,
                     warm_seeded=seed is not None)
        obs_metrics.counter("stage1.probes").inc(probes.probes)
        obs_metrics.counter("stage1.infeasible_probes").inc(probes.infeasible)
    solution = probes.solutions[result.temperatures.tobytes()]
    return solution, result
