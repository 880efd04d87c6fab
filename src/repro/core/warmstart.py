"""Warm-start state for incremental re-solves (docs/SERVING.md).

A rolling-horizon controller re-solves the first-step problem every few
seconds, but consecutive problems are nearly identical: usually only the
arrival-rate vector moved (diurnal drift), sometimes only the power cap
(an emergency derate), rarely the room itself (a fault).  This module
gives :func:`repro.core.api.solve` a memory between those solves.

Three content digests grade how much of a previous solve still applies:

``structure``
    The room, the workload's reward structure (``ecs`` / ``rewards`` /
    ``deadline_slack``) and every tuning knob that shapes the solver's
    trajectory.  Stage 1's thermal linearizations and ARR hulls depend
    on nothing else, so they transfer whenever this digest matches.
``stage1``
    ``structure`` plus the power cap.  The Stage 1 LP family is fully
    determined by it — ``ARR`` does not read arrival rates — so an
    equal digest lets every LP replay bit-for-bit and the previous
    outlet vector seed the search *exactly* (it is a fixed point of the
    coordinate descent it produced).
``request``
    ``stage1`` plus the arrival rates: the whole problem.  An equal
    digest replays the previous outcome verbatim.

:class:`SolveState` is the opaque artifact carrying the digests (and the
previous outlet vector) across solves; its :attr:`SolveState.runtime`
field holds the in-memory caches and is dropped by pickling — an
unpickled state still warm-starts, just through the exact seeded path
instead of outright replay.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.optimize.linprog import issparse

if TYPE_CHECKING:
    from repro.core.api import SolveOptions
    from repro.core.assignment import AssignmentResult
    from repro.core.stage1 import Stage1Solution
    from repro.core.stage2 import Stage2Solution
    from repro.datacenter.builder import DataCenter
    from repro.optimize.linprog import LPSolution
    from repro.workload.tasktypes import Workload

__all__ = ["Digests", "SolveState", "WarmContext", "WarmPool",
           "compute_digests", "prepare_context", "capture_state"]

#: Reuse grades, strongest first (see module docstring).
LEVELS = ("request", "stage1", "structure", "none")

#: Soft cap on cached LP solutions per chained context; the cache only
#: grows when the power cap keeps changing, and eviction affects speed,
#: never values.
_LP_CACHE_LIMIT = 4096


@dataclass(frozen=True)
class Digests:
    """The three content digests of one solve request."""

    structure: str
    stage1: str
    request: str


def _hash_array(h: "hashlib._Hash", arr: np.ndarray) -> None:
    if issparse(arr):
        # CSR content digest: data + structure.  Canonicalize first so
        # an identical matrix assembled in a different order hashes
        # identically.
        csr = arr.tocsr().sorted_indices()
        for part in (csr.data, csr.indices, csr.indptr):
            h.update(np.ascontiguousarray(part).tobytes())
        return
    h.update(np.ascontiguousarray(arr).tobytes())


def compute_digests(datacenter: DataCenter, workload: Workload,
                    p_const: float, options: SolveOptions,
                    psi: float | None = None) -> Digests:
    """Digest a request at one aggregation level.

    ``psi`` defaults to ``options.psi``; the ``best_psi`` method digests
    each of its per-ψ children separately.  Every ``SolveOptions`` field
    is folded into the structure digest, in declaration order, so a new
    knob can never silently replay a stale result.
    """
    model = datacenter.require_thermal()
    h = hashlib.sha256()
    _hash_array(h, model.alpha)
    _hash_array(h, model.flows)
    h.update(repr((model.n_crac, model.rho, model.cp)).encode())
    _hash_array(h, datacenter.redline_c)
    _hash_array(h, datacenter.node_base_power)
    _hash_array(h, datacenter.node_type_index)
    _hash_array(h, datacenter.core_type)
    for spec in datacenter.node_types:
        h.update(repr((spec.name, spec.base_power_kw, spec.cores_per_node,
                       spec.frequencies_mhz, spec.voltages_v,
                       spec.pstate_power_kw, spec.flow_m3s,
                       spec.performance_scale,
                       spec.static_fraction_p0)).encode())
    for crac in datacenter.cracs:
        cop = crac.cop_model
        h.update(repr((crac.flow_m3s, crac.outlet_range_c,
                       cop.a2, cop.a1, cop.a0)).encode())
    _hash_array(h, workload.ecs)
    _hash_array(h, workload.rewards)
    _hash_array(h, workload.deadline_slack)
    knobs = []
    for f in fields(options):
        value = getattr(options, f.name)
        if f.name == "psi" and psi is not None:
            value = float(psi)
        knobs.append(tuple(value) if isinstance(value, list) else value)
    h.update(repr(tuple(knobs)).encode())
    structure = h.hexdigest()
    stage1 = hashlib.sha256(
        (structure + repr(float(p_const))).encode()).hexdigest()
    req = hashlib.sha256(
        stage1.encode()
        + np.ascontiguousarray(workload.arrival_rates).tobytes()).hexdigest()
    return Digests(structure=structure, stage1=stage1, request=req)


@dataclass
class WarmContext:
    """In-memory caches threaded through one solve (never serialized).

    ``level`` grades what the previous state shares with the current
    request (one of :data:`LEVELS`); the caches below it are only ever
    populated when their validity level is met, so the solver can use
    whatever is present without re-checking digests:

    * ``arrs`` / ``segments`` / ``lin_cache`` — pure functions of the
      structure digest; reuse is value-exact at any level ≥ structure.
    * ``lp_cache`` — keyed by ``stage1_key`` plus the probe temperature,
      so entries self-invalidate when the cap changes; entries come
      from cold solves only, and replay is bit-exact.
    * ``screen_cache`` — the warm screening scores of Stage 1's probes
      under the same keys; a search decides on one only where it could
      not flip the decision (:mod:`repro.optimize.search`).
    * ``seed_t`` — starting vector for the coordinate descent, set only
      at level ``stage1``, where it is exact (the incumbent optimum of
      the identical search problem).
    * ``prev_stage1`` / ``prev_stage2`` — Stage 2 replays when Stage 1
      reproduces its previous output bit-for-bit.
    * ``outcome`` — the full previous result, replayed at ``request``.
    """

    level: str = "none"
    stage1_key: str = ""
    seed_t: np.ndarray | None = None
    arrs: list[Any] | None = None
    segments: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    lin_cache: dict[bytes, Any] = field(default_factory=dict)
    lp_cache: dict[str, "LPSolution | None"] = field(default_factory=dict)
    screen_cache: dict[str, float] = field(default_factory=dict)
    prev_stage1: "Stage1Solution | None" = None
    prev_stage2: "Stage2Solution | None" = None
    outcome: "AssignmentResult | None" = None


@dataclass
class SolveState:
    """Opaque warm-start handle.

    Returned with every :class:`repro.core.api.SolveResult` and accepted
    back via ``SolveRequest.warm_start``.  The portable core is the
    digests plus the previous outlet vector; :attr:`runtime` carries the
    heavyweight caches within a process and is dropped by pickling
    (engine workers ship states across processes without the caches).
    """

    method: str
    search: str
    digests: Digests
    t_crac_out: tuple[float, ...] | None = None
    children: dict[str, "SolveState"] = field(default_factory=dict)
    runtime: WarmContext | None = field(default=None, repr=False,
                                        compare=False)

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["runtime"] = None
        return state


class WarmPool:
    """Several warm-start chains keyed by structure digest (LRU).

    Controllers that juggle *multiple* problem structures at once — the
    fault-aware loop (healthy room plus every distinct degraded
    inventory) and the MPC planner (true room plus every pre-cool
    tightening level) — each keep one chain per structure so a recovery
    or a de-escalation warm-starts from the matching past state, never a
    stale one.  Keys are structure digests (:func:`compute_digests`), so
    a wrong lookup can only cause a cold solve, never a wrong value.
    The pool is bounded: chains for structures that stop recurring are
    evicted least-recently-used, which affects speed, never results.
    """

    def __init__(self, limit: int = 16):
        if limit < 1:
            raise ValueError(f"limit must be at least 1, got {limit}")
        self._limit = limit
        self._states: OrderedDict[str, SolveState] = OrderedDict()

    def __len__(self) -> int:
        return len(self._states)

    def get(self, key: str) -> SolveState | None:
        """The most recent state stored under ``key`` (None when cold)."""
        state = self._states.get(key)
        if state is not None:
            self._states.move_to_end(key)
        return state

    def put(self, key: str, state: SolveState) -> None:
        """Store ``state`` as the head of ``key``'s chain."""
        self._states[key] = state
        self._states.move_to_end(key)
        while len(self._states) > self._limit:
            self._states.popitem(last=False)


def prepare_context(state: SolveState | None, digests: Digests, *,
                    method: str, search: str) -> WarmContext:
    """Grade a previous state against the current request.

    Always returns a usable context — a cold solve just gets one with
    empty caches — so the solver plumbing never branches on None.
    """
    ctx = WarmContext(stage1_key=digests.stage1)
    if state is None or state.method != method \
            or state.digests.structure != digests.structure:
        return ctx
    rt = state.runtime
    if rt is not None:
        ctx.arrs = rt.arrs
        ctx.segments = rt.segments
        ctx.lin_cache = rt.lin_cache
        ctx.lp_cache = rt.lp_cache
        ctx.screen_cache = rt.screen_cache
        for cache in (ctx.lp_cache, ctx.screen_cache):
            if len(cache) > _LP_CACHE_LIMIT:
                cache.clear()
    if rt is not None:
        ctx.prev_stage1 = rt.prev_stage1
        ctx.prev_stage2 = rt.prev_stage2
        if state.digests.request == digests.request \
                and rt.outcome is not None:
            ctx.level = "request"
            ctx.outcome = rt.outcome
            return ctx
    if state.digests.stage1 == digests.stage1:
        ctx.level = "stage1"
        if search == "fast" and state.t_crac_out is not None:
            ctx.seed_t = np.asarray(state.t_crac_out, dtype=float)
    else:
        ctx.level = "structure"
    return ctx


def capture_state(digests: Digests, ctx: WarmContext, outcome: Any, *,
                  method: str, search: str) -> SolveState:
    """Package the caches accumulated during a solve into a new state."""
    ctx.outcome = outcome
    t_out = getattr(outcome, "t_crac_out", None)
    stage1 = getattr(outcome, "stage1", None)
    stage2 = getattr(outcome, "stage2", None)
    if stage1 is not None:
        ctx.prev_stage1 = stage1
        ctx.prev_stage2 = stage2
    return SolveState(
        method=method,
        search=search,
        digests=digests,
        t_crac_out=None if t_out is None else tuple(float(t)
                                                    for t in t_out),
        runtime=ctx,
    )
