"""Shared pieces of the epoch control loop (deployment extension).

The paper's first step produces one static assignment ("Once a P-state
of a core is assigned, we assume that it is not changed") sized for the
current arrival rates.  Real load drifts, so a deployed system re-runs
the first step periodically;
:class:`repro.faults.policy.FaultAwareController` is that loop.  This
module holds what the loop, the MPC planner, the serve service and the
solver tournament and the RL environment share:

* :func:`plan_with_transient_guard` — the guarded replan.  Before
  committing a new plan, simulate the **thermal transient** from the
  previous operating point (:mod:`repro.thermal.transient`): a plan
  whose steady state is feasible can still overshoot a redline
  mid-transition, in which case the power cap is derated until the
  transition is safe.  A cold start commits the plain plan, and a room
  that admits no plan sheds all load;
* :func:`run_epoch` — the epoch step: carry the room through one epoch
  of a committed plan (transient or cold-start settle) and replay the
  epoch's task slice through the second-step DES;
* :func:`idle_start_t_out` — the idle room, the start state when the
  first plan's own transition is measured;
* :func:`shed_plan` — the all-off fallback when no plan is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.api import SolveOptions, SolveRequest, SolveResult, solve
from repro.core.warmstart import SolveState
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import span as obs_span
from repro.simulate.engine import CoreOutage, simulate_trace
from repro.simulate.metrics import SimulationMetrics
from repro.thermal.transient import simulate_transient
from repro.workload.tasktypes import Workload
from repro.workload.trace import Task, Trace, as_trace

__all__ = ["ShedPlan", "shed_plan", "idle_start_t_out",
           "plan_with_transient_guard", "EpochOutcome", "run_epoch"]


@dataclass(frozen=True)
class ShedPlan:
    """Load-shedding fallback when the room admits no feasible plan.

    Quacks like the slice of :class:`AssignmentResult` the control loops
    consume: every core off, zero desired rates, the coldest air each
    (possibly derated) CRAC can still deliver.  Committed when even the
    fully-derated first step is infeasible — the run then measures the
    outage instead of aborting (fault-aware chaos runs, MPC horizons on
    a crippled inventory, shed-all serve ticks).
    """

    t_crac_out: np.ndarray
    pstates: np.ndarray
    tc: np.ndarray
    reward_rate: float = 0.0


def shed_plan(datacenter: DataCenter, n_task_types: int) -> ShedPlan:
    """The all-off, coldest-outlet :class:`ShedPlan` for ``datacenter``."""
    return ShedPlan(
        t_crac_out=np.asarray([c.outlet_range_c[0] for c in datacenter.cracs],
                              dtype=float),
        pstates=datacenter.all_off_pstates(),
        tc=np.zeros((n_task_types, datacenter.n_cores)))


def idle_start_t_out(datacenter: DataCenter) -> np.ndarray:
    """The idle room settled at mid-range outlets.

    The state *before* any plan exists: all cores off, each CRAC at the
    midpoint of its outlet range, settled to steady state.  Used where
    the first plan's own transition is measured (the solver tournament's
    exposure check); the control loop instead settles its cold start at
    the first plan's operating point.
    """
    model = datacenter.require_thermal()
    idle = datacenter.node_power_kw(datacenter.all_off_pstates())
    t_mid = np.full(datacenter.n_crac, float(np.mean(
        [c.outlet_range_c for c in datacenter.cracs])))
    return model.steady_state(t_mid, idle).t_out


def plan_with_transient_guard(datacenter: DataCenter, workload: Workload,
                              p_const: float,
                              t_out_prev: np.ndarray | None, *,
                              psi: float = 50.0, tau_s: float = 120.0,
                              transient_horizon_s: float | None = None,
                              derate_step: float = 0.05,
                              max_derate: int = 10,
                              on_exhausted: str = "raise",
                              warm_start: SolveState | None = None
                              ) -> tuple[SolveResult | ShedPlan, int,
                                         float | None]:
    """Solve a first-step plan whose *transition* is transient-safe.

    The guarded replan of the control loop's interval arm and the serve
    service: solve the three-stage assignment, simulate the
    thermal transient from ``t_out_prev`` into the new operating point,
    and shrink the power cap by ``derate_step`` until no inlet
    overshoots its redline mid-transition.

    Parameters
    ----------
    t_out_prev:
        Outlet temperatures of the *previous* operating point (the
        state the room transitions from), one per unit of
        ``datacenter``; ``None`` on a cold start, which has nothing to
        transition from and commits one plain solve, outside the
        ``transient_guard`` span.
    transient_horizon_s:
        How far to integrate the transient; defaults to ``10 * tau_s``
        (well past settling).
    on_exhausted:
        ``"raise"`` — give up loudly after ``max_derate`` steps
        (committing an unsafe transition is a bug), and let an
        infeasible solve's ``RuntimeError`` through.  ``"best"`` —
        return the least-overshooting plan found; chaos runs use this
        because after a severe fault *no* admissible plan may transition
        cleanly, and the experiment wants to measure the residual
        exposure rather than abort.  When a solve is infeasible (the
        cold start, or any derated re-solve) it returns the all-off
        :func:`shed_plan` instead.
    warm_start:
        Previous solve state to warm the (re-)solves from.  The state
        chains through the derate iterations, so each derated re-solve
        warm-starts from the previous iteration.

    Returns
    -------
    (plan, derated, overshoot_c):
        The committed plan (a :class:`repro.core.api.SolveResult`, whose
        ``.state`` warm-starts the next replan, or a :class:`ShedPlan`),
        how many derating steps it took, and the worst remaining redline
        overshoot (<= 0 when safe; ``None`` for a cold start or a shed).
    """
    if on_exhausted not in ("raise", "best"):
        raise ValueError(f"on_exhausted must be 'raise' or 'best', got "
                         f"{on_exhausted!r}")
    model = datacenter.require_thermal()
    horizon = 10.0 * tau_s if transient_horizon_s is None \
        else transient_horizon_s
    cap = p_const
    best: tuple[SolveResult, int, float] | None = None
    overshoot = np.inf
    state = warm_start
    options = SolveOptions(psi=psi)
    try:
        if t_out_prev is None:
            return solve(SolveRequest(datacenter, workload, cap,
                                      options=options,
                                      warm_start=state)), 0, None
        with obs_span("transient_guard", p_const=p_const):
            for derated in range(max_derate + 1):
                plan = solve(SolveRequest(datacenter, workload, cap,
                                          options=options,
                                          warm_start=state))
                state = plan.state
                node_power = datacenter.node_power_kw(plan.pstates)
                with obs_span("transient"):
                    result = simulate_transient(
                        model, plan.t_crac_out, node_power, t_out_prev,
                        duration_s=horizon, tau_s=tau_s)
                overshoot = result.max_inlet_overshoot(datacenter.redline_c)
                if overshoot <= 1e-6:
                    obs_annotate(derated=derated)
                    obs_metrics.counter("controller.derates").inc(derated)
                    return plan, derated, overshoot
                if best is None or overshoot < best[2]:
                    best = (plan, derated, overshoot)
                cap *= 1.0 - derate_step
            obs_annotate(derated=best[1], exhausted=True)
            obs_metrics.counter("controller.derates").inc(max_derate)
            obs_metrics.counter("controller.derate_exhausted").inc()
        if on_exhausted == "best":
            return best
        raise RuntimeError(
            f"transition still overshoots redlines by {overshoot:.2f} C "
            f"after {max_derate} derating steps")
    except RuntimeError:
        # no plan at all (an infeasible solve, cold or derated): shed
        # all load unless the caller wants the error
        if on_exhausted == "raise":
            raise
        return shed_plan(datacenter, workload.n_task_types), 0, None


@dataclass(frozen=True)
class EpochOutcome:
    """What one epoch of a committed plan did.

    Attributes
    ----------
    metrics:
        Second-step DES metrics of the epoch's task slice.
    overshoot_c / violation_minutes:
        Worst redline overshoot the room reached over the epoch, and the
        simulated minutes spent above any redline (``None`` / 0.0 for a
        cold start, which settles without a transition).
    t_out:
        The room's outlet temperatures at the epoch's end, the state
        the next epoch transitions from.
    """

    metrics: SimulationMetrics
    overshoot_c: float | None
    violation_minutes: float
    t_out: np.ndarray


def run_epoch(datacenter: DataCenter, workload: Workload, plan,
              t_out_prev: np.ndarray | None,
              tasks: Trace | Sequence[Task],
              start_s: float, end_s: float, *, tau_s: float,
              outages: list[CoreOutage] | None = None,
              stranded: str = "requeue") -> EpochOutcome:
    """The epoch step: carry the room through ``[start_s, end_s)``.

    ``plan`` is the committed plan (anything with ``t_crac_out``,
    ``pstates`` and ``tc``, so a :class:`ShedPlan` works too).  The room
    transitions from ``t_out_prev`` into the plan's operating point over
    the epoch (:func:`~repro.thermal.transient.simulate_transient`); a
    cold start (``None``) settles at the plan's steady state before
    tasks arrive.  ``tasks`` is the trace's slice arriving in the
    epoch, in run time; it is replayed in epoch-local time through the
    DES, with ``outages`` (epoch-local) stranding tasks on crashed
    cores per ``stranded``.
    """
    model = datacenter.require_thermal()
    node_power = datacenter.node_power_kw(plan.pstates)
    if t_out_prev is None:
        overshoot, violation_min = None, 0.0
        t_out = model.steady_state(plan.t_crac_out, node_power).t_out
    else:
        dt = min(1.0, tau_s / 4.0)
        with obs_span("transient"):
            transient = simulate_transient(
                model, plan.t_crac_out, node_power, t_out_prev,
                duration_s=max(end_s - start_s, dt), tau_s=tau_s, dt_s=dt)
        redline = datacenter.redline_c
        overshoot = float(transient.max_inlet_overshoot(redline))
        violation_min = transient.violation_minutes(redline)
        t_out = transient.t_out[-1]
    metrics = simulate_trace(datacenter, workload, plan.tc, plan.pstates,
                             as_trace(tasks).shifted(start_s),
                             duration=end_s - start_s,
                             faults=outages or None,
                             stranded_policy=stranded)
    return EpochOutcome(metrics=metrics, overshoot_c=overshoot,
                        violation_minutes=violation_min, t_out=t_out)
