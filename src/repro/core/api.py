"""Unified solver API — one request shape for every first-step solver.

The four first-step entry points grew up separately and diverged:
``solve_stage1`` took ``(datacenter, workload, psi, p_const)``,
``solve_baseline`` and ``best_psi_assignment`` took
``(datacenter, workload, p_const)`` with different tuning keywords, and
``solve_exact`` adds its own enumeration knobs.  Their return shapes
diverged the same way (result, ``(result, search)`` tuples, …).

This module is the convergence point:

* :class:`SolveRequest` — the problem: a data center, a workload, a
  power cap, and optionally the previous solve's ``warm_start`` state.
* :class:`SolveOptions` — every tuning knob any solver accepts, all
  keyword-only, with the shared defaults.
* :func:`solve` — dispatch through the :mod:`repro.solvers` backend
  registry, selected by ``SolveOptions.backend`` (or the explicit
  ``method=`` override).  Built-ins: the classic ``"three_stage"``,
  ``"best_psi"``, ``"baseline"`` and ``"exact"`` methods registered
  here, plus the seeded metaheuristics ``"annealing"`` and
  ``"evolution"`` from :mod:`repro.solvers`.  Returns a
  :class:`SolveResult`.

Frozen result protocol
----------------------
Every :func:`solve` call returns a :class:`SolveResult` pairing

* ``outcome`` — the method-specific result object.  It satisfies
  :class:`SolveOutcome` (``.reward_rate``, ``.verify(datacenter,
  p_const)``, ``.to_dict()``); ``SolveResult`` re-exposes the same
  three members and transparently forwards every other attribute to the
  outcome, so existing call sites (``.tc``, ``.pstates``,
  ``.t_crac_out``, ``.power(...)``, …) keep working unchanged.
* ``state`` — an opaque :class:`repro.core.warmstart.SolveState`
  handle.  Feeding it back via ``SolveRequest.warm_start`` lets the
  next solve reuse search state, thermal linearizations and LP
  solutions.  The contract is strict: **a warm-started solve of an
  identical request is bit-identical to a cold solve**, and a state
  never changes *values* — only speed.  ``state`` pickles without its
  in-memory caches, so a state shipped to another process still
  warm-starts exactly for unchanged-cap requests.

These shapes — ``SolveRequest``/``SolveOptions`` in,
``SolveResult``/``SolveState`` out — are frozen as of this release;
new solver capabilities must extend ``SolveOptions`` with defaulted
fields rather than change any signature.  All legacy positional calling
conventions have been removed (they now raise ``TypeError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.core.warmstart import (Digests, SolveState, WarmContext,
                                  capture_state, compute_digests,
                                  prepare_context)
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.solvers import get_solver, list_solvers, register_solver
from repro.workload.tasktypes import Workload

if TYPE_CHECKING:
    from repro.core.assignment import AssignmentResult

__all__ = ["SolveOptions", "SolveRequest", "SolveOutcome", "SolveResult",
           "SolveState", "BestPsiOutcome", "solve"]


@runtime_checkable
class SolveOutcome(Protocol):
    """What every first-step solver result can do.

    ``AssignmentResult``, ``BaselineSolution``, ``ExactResult``,
    :class:`BestPsiOutcome` and :class:`SolveResult` all satisfy this
    protocol.
    """

    @property
    def reward_rate(self) -> float: ...

    def verify(self, datacenter: DataCenter, p_const: float,
               tol: float = 1e-6) -> None: ...

    def to_dict(self) -> dict: ...


@dataclass(frozen=True)
class SolveOptions:
    """Tuning knobs shared across solvers (all keyword-only in use).

    Attributes
    ----------
    psi:
        ARR aggregation level for the single-ψ three-stage pipeline.
    psis:
        ψ levels evaluated by the ``best_psi`` method.
    search:
        CRAC outlet-temperature search mode (``"fast"`` or ``"full"``).
    coarse_step / final_step:
        Grid granularities of the ``"full"`` coarse-to-fine search.
    temp_step / max_assignments:
        Exact-enumeration knobs (``"exact"`` method only).
    backend:
        Solver backend :func:`solve` dispatches to when no explicit
        ``method=`` is given (see :mod:`repro.solvers`).  The default
        ``"three_stage"`` keeps every existing call site bit-identical.
    seed:
        RNG seed for stochastic backends (the metaheuristics).  The
        deterministic built-ins ignore it, but it still splits cache
        and warm-start digests so runs never mix.
    max_evals:
        Evaluation budget for metaheuristic backends — candidates
        repaired-and-scored, **never** wall-clock seconds, so budgeted
        searches stay bit-reproducible.
    """

    psi: float = 50.0
    psis: tuple[float, ...] = (25.0, 50.0)
    search: str = "fast"
    coarse_step: float = 5.0
    final_step: float = 1.0
    temp_step: float = 3.0
    max_assignments: int = 200_000
    backend: str = "three_stage"
    seed: int = 0
    max_evals: int = 2000

    def __post_init__(self) -> None:
        if self.search not in ("fast", "full"):
            raise ValueError(
                f"unknown search mode {self.search!r} (use 'fast' or 'full')")
        if not self.psis:
            raise ValueError("need at least one psi value")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if self.backend not in list_solvers():
            raise ValueError(
                f"unknown solver backend {self.backend!r}; choose from "
                f"{', '.join(list_solvers())}")


@dataclass(frozen=True, eq=False)
class SolveRequest:
    """One first-step problem instance: room + workload + power cap.

    ``warm_start`` optionally carries the state of a previous solve;
    see the module docstring for the reuse contract.
    """

    datacenter: DataCenter
    workload: Workload
    p_const: float
    options: SolveOptions = field(default_factory=SolveOptions)
    warm_start: SolveState | None = None

    def with_options(self, **changes: object) -> "SolveRequest":
        """A copy of this request with some options replaced."""
        return replace(self, options=replace(self.options, **changes))


@dataclass
class BestPsiOutcome:
    """Best-of-ψ result with the per-ψ assignments kept around.

    Satisfies :class:`SolveOutcome`; ``verify`` audits every per-ψ
    assignment (the paper reports them separately, so all must hold).
    """

    by_psi: dict[float, "AssignmentResult"]
    search: object | None = None

    @property
    def best(self) -> "AssignmentResult":
        return max(self.by_psi.values(), key=lambda r: r.reward_rate)

    @property
    def reward_rate(self) -> float:
        return self.best.reward_rate

    @property
    def reward_by_psi(self) -> dict[float, float]:
        return {psi: r.reward_rate for psi, r in self.by_psi.items()}

    def verify(self, datacenter: DataCenter, p_const: float,
               tol: float = 1e-6) -> None:
        for result in self.by_psi.values():
            result.verify(datacenter, p_const, tol=tol)

    def to_dict(self) -> dict:
        return {
            "method": "best_psi",
            "reward_rate": self.reward_rate,
            "best_psi": self.best.psi,
            "by_psi": {str(psi): r.to_dict()
                       for psi, r in self.by_psi.items()},
        }


@dataclass
class SolveResult:
    """A solver outcome paired with its warm-start state.

    Satisfies :class:`SolveOutcome` and forwards every attribute it does
    not define itself to :attr:`outcome`, so it is a drop-in for the
    bare result objects the solvers used to return.
    """

    outcome: SolveOutcome
    state: SolveState

    @property
    def reward_rate(self) -> float:
        return self.outcome.reward_rate

    @property
    def warm_level(self) -> str:
        """Warm-start reuse level this solve engaged (``"none"`` cold)."""
        runtime = self.state.runtime
        return runtime.level if runtime is not None else "none"

    def verify(self, datacenter: DataCenter, p_const: float,
               tol: float = 1e-6) -> None:
        self.outcome.verify(datacenter, p_const, tol=tol)

    def to_dict(self) -> dict:
        return self.outcome.to_dict()

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(object.__getattribute__(self, "outcome"), name)


def _solve_three_stage(request: SolveRequest) -> SolveResult:
    from repro.core.assignment import three_stage_assignment

    opt = request.options
    digests = compute_digests(request.datacenter, request.workload,
                              request.p_const, opt)
    ctx = prepare_context(request.warm_start, digests,
                          method="three_stage", search=opt.search)
    obs_metrics.counter(f"solve.warm_level.{ctx.level}").inc()
    outcome = three_stage_assignment(
        request.datacenter, request.workload, request.p_const,
        psi=opt.psi, search=opt.search, warm=ctx)
    state = capture_state(digests, ctx, outcome, method="three_stage",
                          search=opt.search)
    return SolveResult(outcome=outcome, state=state)


def _solve_best_psi(request: SolveRequest) -> SolveResult:
    from repro.core.assignment import best_psi_assignment

    opt = request.options
    prev = request.warm_start
    contexts: dict[float, WarmContext] = {}
    child_digests: dict[float, Digests] = {}
    for raw_psi in opt.psis:
        psi = float(raw_psi)
        digests = compute_digests(request.datacenter, request.workload,
                                  request.p_const, opt, psi=psi)
        child_digests[psi] = digests
        child = prev.children.get(str(psi)) if prev is not None else None
        contexts[psi] = prepare_context(child, digests,
                                        method="three_stage",
                                        search=opt.search)
    _, by_psi = best_psi_assignment(
        request.datacenter, request.workload, request.p_const,
        psis=opt.psis, search=opt.search, warm=contexts)
    outcome = BestPsiOutcome(by_psi=by_psi)
    children = {
        str(psi): capture_state(child_digests[psi], contexts[psi], result,
                                method="three_stage", search=opt.search)
        for psi, result in by_psi.items()
    }
    parent_digests = compute_digests(request.datacenter, request.workload,
                                     request.p_const, opt)
    best = outcome.best
    state = SolveState(
        method="best_psi", search=opt.search,
        digests=parent_digests,
        t_crac_out=tuple(float(t) for t in best.t_crac_out),
        children=children)
    return SolveResult(outcome=outcome, state=state)


def _solve_generic(request: SolveRequest, method: str,
                   run: Callable[[SolveRequest], SolveOutcome]
                   ) -> SolveResult:
    """Request-level replay wrapper for solvers without deeper warm paths.

    The baseline and exact solvers are deterministic in the request, so
    an unchanged request replays the stored outcome; anything else runs
    cold.
    """
    opt = request.options
    digests = compute_digests(request.datacenter, request.workload,
                              request.p_const, opt)
    prev = request.warm_start
    if prev is not None and prev.method == method \
            and prev.digests.request == digests.request \
            and prev.runtime is not None \
            and prev.runtime.outcome is not None:
        obs_metrics.counter("solve.replays").inc()
        outcome: SolveOutcome = prev.runtime.outcome
    else:
        outcome = run(request)
    ctx = WarmContext(stage1_key=digests.stage1)
    state = capture_state(digests, ctx, outcome, method=method,
                          search=opt.search)
    return SolveResult(outcome=outcome, state=state)


def _run_baseline(request: SolveRequest) -> SolveOutcome:
    from repro.core.baseline import solve_baseline

    opt = request.options
    solution, search = solve_baseline(
        request.datacenter, request.workload, request.p_const,
        search=opt.search, coarse_step=opt.coarse_step,
        final_step=opt.final_step)
    solution.search = search
    return solution


def _run_exact(request: SolveRequest) -> SolveOutcome:
    from repro.core.exact import solve_exact

    opt = request.options
    return solve_exact(
        request.datacenter, request.workload, request.p_const,
        temp_step=opt.temp_step, max_assignments=opt.max_assignments)


def _solve_baseline(request: SolveRequest) -> SolveResult:
    return _solve_generic(request, "baseline", _run_baseline)


def _solve_exact(request: SolveRequest) -> SolveResult:
    return _solve_generic(request, "exact", _run_exact)


register_solver("three_stage", _solve_three_stage, replace=True)
register_solver("best_psi", _solve_best_psi, replace=True)
register_solver("baseline", _solve_baseline, replace=True)
register_solver("exact", _solve_exact, replace=True)


def solve(request: SolveRequest, *, method: str | None = None
          ) -> SolveResult:
    """Solve one first-step problem with the named technique.

    ``method`` overrides ``request.options.backend``; with neither set
    the default is the paper's ``"three_stage"`` decomposition.  The
    name is looked up in the :mod:`repro.solvers` registry, so externally
    registered backends dispatch exactly like the built-ins.

    Every return value is a :class:`SolveResult`: the method-specific
    outcome (``.reward_rate``, ``.verify(datacenter, p_const)``,
    ``.to_dict()`` plus forwarded attributes) together with the
    ``.state`` handle for warm-starting the next solve.
    """
    name = request.options.backend if method is None else method
    return get_solver(name)(request)
