"""Epoch-based re-assignment controller (deployment extension).

The paper's first step produces one static assignment ("Once a P-state
of a core is assigned, we assume that it is not changed") sized for the
current arrival rates.  Real load drifts, so a deployed system re-runs
the first step periodically.  This controller closes that loop:

* at each epoch boundary it measures the profile's arrival rates,
  rebuilds the workload, and re-solves the three-stage assignment under
  the same power cap;
* before committing a new assignment it simulates the **thermal
  transient** from the previous operating point
  (:mod:`repro.thermal.transient`): a plan whose steady state is feasible
  can still overshoot a redline mid-transition, in which case the
  controller derates the plan (shrinks the power cap) until the
  transition is safe;
* within each epoch the second-step dynamic scheduler replays the
  (non-stationary) task stream against the epoch's plan.

This is precisely the deployment the paper's two-step time-scale
argument sanctions: epochs are long (minutes+) relative to the thermal
settling time, and tasks are short relative to epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.api import SolveOptions, SolveRequest, SolveResult, solve
from repro.core.assignment import AssignmentResult, three_stage_assignment
from repro.core.warmstart import SolveState
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import span as obs_span
from repro.simulate.engine import simulate_trace
from repro.simulate.metrics import SimulationMetrics
from repro.thermal.transient import simulate_transient
from repro.workload.profiles import ArrivalProfile, generate_nonstationary_trace
from repro.workload.tasktypes import Workload
from repro.workload.trace import Task

__all__ = ["EpochRecord", "ControllerResult", "EpochController",
           "ShedPlan", "shed_plan", "idle_start_t_out",
           "plan_with_transient_guard"]


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
    """Cold-start room state: the idle room settled at mid-range outlets.

    The convention every controller shares for the state *before* the
    first plan exists: all cores off, each CRAC at the midpoint of its
    outlet range, settled to steady state.
    """
    model = datacenter.require_thermal()
    idle = datacenter.node_power_kw(datacenter.all_off_pstates())
    t_mid = np.full(datacenter.n_crac, float(np.mean(
        [c.outlet_range_c for c in datacenter.cracs])))
    return model.steady_state(t_mid, idle).t_out


def plan_with_transient_guard(datacenter: DataCenter, workload: Workload,
                              p_const: float, t_out_prev: np.ndarray, *,
                              psi: float = 50.0, tau_s: float = 120.0,
                              transient_horizon_s: float | None = None,
                              derate_step: float = 0.05,
                              max_derate: int = 10,
                              on_exhausted: str = "raise",
                              warm_start: SolveState | None = None,
                              warm_seed: bool = False
                              ) -> tuple[SolveResult, int, float]:
    """Solve a first-step plan whose *transition* is transient-safe.

    The derate loop shared by the epoch controller and the fault-aware
    chaos controller: solve the three-stage assignment, simulate the
    thermal transient from ``t_out_prev`` into the new operating point,
    and shrink the power cap by ``derate_step`` until no inlet
    overshoots its redline mid-transition.

    Parameters
    ----------
    t_out_prev:
        Outlet temperatures of the *previous* operating point (the
        state the room transitions from), one per unit of
        ``datacenter``.
    transient_horizon_s:
        How far to integrate the transient; defaults to ``10 * tau_s``
        (well past settling).
    on_exhausted:
        ``"raise"`` — give up loudly after ``max_derate`` steps (the
        epoch controller's behavior: committing an unsafe transition is
        a bug).  ``"best"`` — return the least-overshooting plan found;
        chaos runs use this because after a severe fault *no* admissible
        plan may transition cleanly, and the experiment wants to measure
        the residual exposure rather than abort.
    warm_start / warm_seed:
        Previous solve state to warm the (re-)solves from, and whether
        the heuristic seeded search may engage after a cap change (see
        :class:`repro.core.api.SolveOptions`).  The state chains through
        the derate iterations, so each derated re-solve warm-starts from
        the previous iteration.

    Returns
    -------
    (plan, derated, overshoot_c):
        The committed plan (a :class:`repro.core.api.SolveResult`, whose
        ``.state`` warm-starts the next replan), how many derating steps
        it took, and the worst remaining redline overshoot (<= 0 when
        safe).
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
    options = SolveOptions(psi=psi, warm_seed=warm_seed)
    with obs_span("transient_guard", p_const=p_const):
        for derated in range(max_derate + 1):
            plan = solve(SolveRequest(datacenter, workload, cap,
                                      options=options, warm_start=state))
            state = plan.state
            node_power = datacenter.node_power_kw(plan.pstates)
            with obs_span("transient"):
                result = simulate_transient(model, plan.t_crac_out,
                                            node_power, t_out_prev,
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


@dataclass
class EpochRecord:
    """One epoch of the controller's run.

    Attributes
    ----------
    start_s / end_s:
        Epoch boundaries.
    rates:
        Arrival rates the plan was sized for (profile at epoch start).
    plan:
        The epoch's first-step assignment (a
        :class:`repro.core.api.SolveResult`).
    derated:
        How many derating steps the transient check forced (0 = the
        initial plan transitioned safely).
    transient_overshoot_c:
        Worst redline overshoot during the transition into this epoch
        (after derating; <= 0 means safe).
    metrics:
        Second-step DES metrics for the epoch's task stream.
    """

    start_s: float
    end_s: float
    rates: np.ndarray
    plan: SolveResult
    derated: int
    transient_overshoot_c: float
    metrics: SimulationMetrics


@dataclass
class ControllerResult:
    """Full controller run output.

    Rate properties follow one convention for degenerate runs: with no
    epochs, or a horizon of zero length (a single instantaneous epoch),
    ``reward_rate`` and ``planned_reward_rate`` are **0.0** — no time
    passed, so no reward *rate* was sustained.  They never raise
    ``IndexError``/``ZeroDivisionError`` (the same latent-degenerate
    class :class:`~repro.experiments.runner.DegenerateBaselineError`
    guards in the experiment layer).
    """

    epochs: list[EpochRecord]

    @property
    def total_reward(self) -> float:
        return float(sum(e.metrics.total_reward for e in self.epochs))

    @property
    def horizon_s(self) -> float:
        """Covered horizon; 0.0 for an empty epoch list."""
        if not self.epochs:
            return 0.0
        return float(self.epochs[-1].end_s - self.epochs[0].start_s)

    @property
    def reward_rate(self) -> float:
        horizon = self.horizon_s
        if horizon <= 0.0:
            return 0.0
        return self.total_reward / horizon

    @property
    def planned_reward_rate(self) -> float:
        """Time-weighted mean of the epochs' first-step predictions."""
        horizon = self.horizon_s
        if horizon <= 0.0:
            return 0.0
        total = sum(e.plan.reward_rate * (e.end_s - e.start_s)
                    for e in self.epochs)
        return float(total / horizon)


class EpochController:
    """Re-runs the first step at fixed epochs over a drifting workload.

    Parameters
    ----------
    datacenter:
        Room with a thermal model attached.
    base_workload:
        Supplies everything except arrival rates (ECS, rewards,
        deadlines); rates are re-measured from the profile per epoch.
    p_const:
        Room power cap, kW.
    epoch_s:
        Re-assignment period, seconds.  Should comfortably exceed the
        thermal settling time (see
        :func:`repro.thermal.transient.time_to_steady_state`).
    psi:
        ARR aggregation level for the three-stage solver.
    tau_s:
        Node thermal time constant used in the transient safety check.
    derate_step:
        Each derating iteration multiplies the plan's power cap by
        ``1 - derate_step`` until the transition is transient-safe.
    max_derate:
        Give up (raise) after this many derating steps.
    """

    def __init__(self, datacenter: DataCenter, base_workload: Workload,
                 p_const: float, epoch_s: float = 1800.0,
                 psi: float = 50.0, tau_s: float = 120.0,
                 derate_step: float = 0.05, max_derate: int = 10):
        if epoch_s <= 0:
            raise ValueError("epoch length must be positive")
        if not 0.0 < derate_step < 1.0:
            raise ValueError("derate_step must be in (0, 1)")
        self.datacenter = datacenter
        self.base_workload = base_workload
        self.p_const = p_const
        self.epoch_s = epoch_s
        self.psi = psi
        self.tau_s = tau_s
        self.derate_step = derate_step
        self.max_derate = max_derate
        # warm-start state chained across epochs: only the arrival-rate
        # vector changes between epochs (and the cap inside the derate
        # loop), so every reuse it engages is value-exact — epoch plans
        # are bit-identical to a cold-solving controller's.
        self._warm: SolveState | None = None

    # ------------------------------------------------------------------
    def _plan_for_rates(self, rates: np.ndarray,
                        p_cap: float) -> AssignmentResult:
        workload = replace(self.base_workload, arrival_rates=rates)
        return three_stage_assignment(self.datacenter, workload, p_cap,
                                      psi=self.psi)

    def _transient_overshoot(self, t_out_prev: np.ndarray,
                             plan: AssignmentResult) -> float:
        model = self.datacenter.require_thermal()
        node_power = self.datacenter.node_power_kw(plan.pstates)
        horizon = min(10.0 * self.tau_s, self.epoch_s)
        result = simulate_transient(model, plan.t_crac_out, node_power,
                                    t_out_prev, duration_s=horizon,
                                    tau_s=self.tau_s)
        return result.max_inlet_overshoot(self.datacenter.redline_c)

    def plan_epoch(self, rates: np.ndarray, t_out_prev: np.ndarray
                   ) -> tuple[SolveResult, int, float]:
        """Solve one epoch's plan with the transient safety loop.

        Warm-starts from the previous epoch's plan (exact reuse only —
        see ``_warm``) and chains the returned state for the next call.
        """
        workload = replace(self.base_workload, arrival_rates=rates)
        plan, derated, overshoot = plan_with_transient_guard(
            self.datacenter, workload, self.p_const, t_out_prev,
            psi=self.psi, tau_s=self.tau_s,
            transient_horizon_s=min(10.0 * self.tau_s, self.epoch_s),
            derate_step=self.derate_step, max_derate=self.max_derate,
            on_exhausted="raise", warm_start=self._warm)
        self._warm = plan.state
        return plan, derated, overshoot

    # ------------------------------------------------------------------
    def run(self, profile: ArrivalProfile, horizon_s: float,
            rng: np.random.Generator) -> ControllerResult:
        """Drive the controller over ``horizon_s`` seconds of load.

        The task stream is drawn from ``profile`` once (one realization)
        and split at epoch boundaries; each epoch's slice replays against
        that epoch's plan.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        dc = self.datacenter
        model = dc.require_thermal()
        trace = generate_nonstationary_trace(self.base_workload, profile,
                                             horizon_s, rng)
        n_epochs = int(np.ceil(horizon_s / self.epoch_s))
        t_out_prev: np.ndarray | None = None
        epochs: list[EpochRecord] = []
        cursor = 0
        for e in range(n_epochs):
            start = e * self.epoch_s
            end = min((e + 1) * self.epoch_s, horizon_s)
            with obs_span("epoch", index=e):
                rates = np.asarray(profile.rates(start), dtype=float)
                if t_out_prev is None:
                    t_out_prev = idle_start_t_out(dc)
                plan, derated, overshoot = self.plan_epoch(rates, t_out_prev)
                # epoch task slice, re-based to epoch-local time
                chunk: list[Task] = []
                while cursor < len(trace) and trace[cursor].arrival < end:
                    t = trace[cursor]
                    chunk.append(Task(arrival=t.arrival - start,
                                      task_type=t.task_type, uid=t.uid,
                                      deadline=t.deadline - start))
                    cursor += 1
                workload = replace(self.base_workload, arrival_rates=rates)
                metrics = simulate_trace(dc, workload, plan.tc,
                                         plan.pstates, chunk,
                                         duration=end - start)
                epochs.append(EpochRecord(
                    start_s=start, end_s=end, rates=rates, plan=plan,
                    derated=derated, transient_overshoot_c=overshoot,
                    metrics=metrics))
                node_power = dc.node_power_kw(plan.pstates)
                t_out_prev = model.steady_state(plan.t_crac_out,
                                                node_power).t_out
            obs_metrics.counter("controller.epochs").inc()
        return ControllerResult(epochs=epochs)
