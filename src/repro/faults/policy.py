"""The control loop: plan, propagate, replay, record — one epoch at a time.

The paper's first step produces one static assignment sized for the
current arrival rates; a deployed system re-runs it when load drifts or
equipment fails.  :class:`FaultAwareController` is that loop, for load
and inventory changes alike.  It drives one run over a
:class:`~repro.faults.model.FaultSchedule` (empty for a healthy room):

* the timeline is split into **control intervals** at every fault onset
  and recovery, at the optional replan grid (:attr:`ReactionPolicy.epoch_s`)
  and at the run boundaries, so the inventory is constant within each
  interval;
* at each boundary the controller re-solves the three-stage assignment
  on the degraded view (:mod:`repro.faults.inject`) under the
  possibly-reduced power cap, for the arrival rates the drifting profile
  gives at that instant.  The ``"interval"`` arm runs the guarded
  replan (:func:`repro.core.controller.plan_with_transient_guard`); the
  ``"mpc"`` arm runs the receding-horizon planner
  (:class:`repro.control.mpc.MPCPlanner`).  After a severe fault no
  admissible plan may transition cleanly, so chaos runs keep the
  least-overshooting plan and *measure* the residual exposure
  (redline-violation minutes) instead of aborting;
* within each interval the epoch step
  (:func:`repro.core.controller.run_epoch`) carries the room through
  the interval and the second-step DES replays the interval's task
  slice against the degraded room; node crashes landing exactly at the
  interval's end are injected as
  :class:`~repro.simulate.engine.CoreOutage` events so tasks queued past
  the boundary on dying cores are stranded and re-queued or dropped with
  explicit accounting;
* room temperature state is carried across intervals as the end state
  of the transition transient, in full-room coordinates (dead nodes
  reconstructed as passive pass-throughs), so a recovery transitions
  from the physically-correct degraded state.

This is the deployment the paper's two-step time-scale argument
sanctions: epochs are long relative to the thermal settling time, and
tasks are short relative to epochs.  With an empty schedule and no grid
the run is a single interval on the untouched room: one plain
(unguarded, cold-start) three-stage solve plus one fault-free DES
replay — bit-identical to ``repro simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.control.forecast import (FORECAST_KINDS, PersistenceForecast,
                                    make_forecast)
from repro.control.mpc import MPCConfig, MPCPlanner
from repro.core.api import SolveOptions
from repro.core.controller import (ShedPlan, plan_with_transient_guard,
                                   run_epoch)
from repro.core.warmstart import WarmPool, compute_digests
from repro.datacenter.builder import DataCenter
from repro.faults.inject import DegradedView, degraded_view
from repro.faults.model import FaultKind, FaultSchedule
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.simulate.engine import CoreOutage
from repro.simulate.metrics import SimulationMetrics
from repro.workload.profiles import ArrivalProfile
from repro.workload.tasktypes import Workload
from repro.workload.trace import Task, Trace, as_trace

__all__ = ["ReactionPolicy", "IntervalRecord", "ChaosRunResult",
           "FaultAwareController"]


@dataclass(frozen=True)
class ReactionPolicy:
    """Tunables for the control loop (both arms, any fault timeline).

    Attributes
    ----------
    psi:
        ARR aggregation level for the re-solves.
    tau_s:
        Node thermal time constant for transient checks and state
        propagation.
    derate_step / max_derate:
        The transient-guard derate loop (see
        :func:`~repro.core.controller.plan_with_transient_guard`).
    stranded:
        What the dynamic scheduler does with tasks stranded on crashed
        cores: ``"requeue"`` or ``"drop"``.
    on_derate_exhausted:
        ``"best"`` (default) commits the least-overshooting plan and
        records the exposure; ``"raise"`` aborts the run when no plan
        transitions cleanly.
    warm:
        Warm-start policy for the re-solves.  ``"replay"`` (default)
        threads :class:`~repro.core.warmstart.SolveState` between
        intervals that share an inventory, engaging only the
        value-exact reuse levels — every committed plan is bit-identical
        to a cold solve.  ``"off"`` disables warm-starting entirely.
    controller:
        ``"interval"`` (default) replans reactively at inventory changes
        with the transient-guard derate loop; ``"mpc"`` replans with the
        receding-horizon planner (:class:`repro.control.mpc.MPCPlanner`),
        which looks ahead over forecast rates and escalates pre-cooling
        before derating compute.
    epoch_s:
        Optional periodic replan grid added to the fault-boundary cuts.
        ``None`` (default) keeps the classic fault-boundaries-only
        timeline; the MPC controller defaults its decision epoch to
        :attr:`MPCConfig.step_s` when unset.
    forecast / forecast_seed:
        Forecast provider for the MPC lookahead when the run is given an
        arrival profile (``"oracle"`` / ``"persistence"`` / ``"noisy"``,
        see :mod:`repro.control.forecast`); without a profile the
        lookahead degenerates to persistence.
    mpc:
        Explicit planner tunables; ``None`` derives an
        :class:`~repro.control.mpc.MPCConfig` from this policy's shared
        knobs (``psi`` / ``tau_s`` / derate loop / ``warm``).
    """

    psi: float = 50.0
    tau_s: float = 120.0
    derate_step: float = 0.05
    max_derate: int = 10
    stranded: str = "requeue"
    on_derate_exhausted: str = "best"
    warm: str = "replay"
    controller: str = "interval"
    epoch_s: float | None = None
    forecast: str = "oracle"
    forecast_seed: int = 0
    mpc: MPCConfig | None = None

    def __post_init__(self) -> None:
        if self.stranded not in ("requeue", "drop"):
            raise ValueError(
                f"stranded must be 'requeue' or 'drop', got {self.stranded!r}")
        if not 0.0 < self.derate_step < 1.0:
            raise ValueError(
                f"derate_step must be in (0, 1), got {self.derate_step}")
        if self.on_derate_exhausted not in ("best", "raise"):
            raise ValueError("on_derate_exhausted must be 'best' or 'raise'")
        if self.warm not in ("off", "replay"):
            raise ValueError(
                f"warm must be 'off' or 'replay', got {self.warm!r}")
        if self.controller not in ("interval", "mpc"):
            raise ValueError(
                f"controller must be 'interval' or 'mpc', "
                f"got {self.controller!r}")
        if self.epoch_s is not None and self.epoch_s <= 0:
            raise ValueError(f"epoch_s must be positive, got {self.epoch_s}")
        if self.forecast not in FORECAST_KINDS:
            raise ValueError(
                f"forecast must be one of {FORECAST_KINDS}, "
                f"got {self.forecast!r}")

    def mpc_config(self) -> MPCConfig:
        """The planner tunables this policy implies.

        An explicit :attr:`mpc` wins; otherwise the policy's shared
        knobs are mirrored into an :class:`~repro.control.mpc.MPCConfig`
        so ``--controller interval`` vs ``mpc`` comparisons differ only
        in the control law, not in tolerances.
        """
        if self.mpc is not None:
            return self.mpc
        return MPCConfig(
            step_s=self.epoch_s if self.epoch_s is not None else 60.0,
            psi=self.psi, tau_s=self.tau_s,
            derate_step=self.derate_step, max_derate=self.max_derate,
            on_exhausted=self.on_derate_exhausted, warm=self.warm)


@dataclass
class IntervalRecord:
    """One control interval (epoch) of a run.

    Attributes
    ----------
    start_s / end_s:
        Interval boundaries (run time).
    cause:
        Why this interval began: ``"start"``, ``"epoch"`` for a replan
        grid boundary, or comma-joined ``fault:<kind>`` /
        ``recovery:<kind>`` markers for the events at its left boundary.
    n_nodes_alive / crac_capacity / cap_kw:
        The inventory the interval ran under.
    plan_reward_rate / t_crac_out_c:
        Stage 3 prediction and CRAC outlet temperatures of the
        interval's committed plan.
    derated:
        Derate steps the transient guard took (0 = clean transition).
    predicted_overshoot_c:
        Worst redline overshoot the planner forecast for the committed
        plan: the transient guard's persistent-plan check (interval
        arm) or the MPC chained-horizon prediction.  ``None`` for the
        cold start, which has no previous operating point to transition
        from, and for a shed interval.
    transient_overshoot_c:
        Worst redline overshoot the room actually reached over the
        interval, from the transient that carries its state forward
        (``None`` for the cold start).
    violation_minutes:
        Simulated minutes of that transient spent above any redline.
    warm_level:
        Warm-start reuse level of the committed solve (``"none"``,
        ``"structure"``, ``"stage1"``, ``"request"``, or ``"shed"``).
    metrics:
        Second-step DES metrics for the interval's task slice.
    """

    start_s: float
    end_s: float
    cause: str
    n_nodes_alive: int
    crac_capacity: list[float]
    cap_kw: float
    plan_reward_rate: float
    t_crac_out_c: list[float]
    derated: int
    predicted_overshoot_c: float | None
    transient_overshoot_c: float | None
    violation_minutes: float
    warm_level: str
    metrics: SimulationMetrics
    #: True when no feasible plan existed and all load was shed.
    shed: bool = False
    #: Pre-cool level of the committed plan (MPC controller only;
    #: the reactive interval controller never pre-cools).
    precooled: int = 0

    def to_dict(self) -> dict:
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "cause": self.cause,
            "n_nodes_alive": self.n_nodes_alive,
            "crac_capacity": self.crac_capacity,
            "cap_kw": self.cap_kw,
            "plan_reward_rate": self.plan_reward_rate,
            "t_crac_out_c": self.t_crac_out_c,
            "derated": self.derated,
            "predicted_overshoot_c": self.predicted_overshoot_c,
            "transient_overshoot_c": self.transient_overshoot_c,
            "violation_minutes": self.violation_minutes,
            "warm_level": self.warm_level,
            "shed": self.shed,
            "precooled": self.precooled,
            "metrics": self.metrics.to_dict(),
        }


@dataclass
class ChaosRunResult:
    """Aggregate outcome of one run of the control loop."""

    horizon_s: float
    schedule: FaultSchedule
    intervals: list[IntervalRecord]

    @property
    def total_reward(self) -> float:
        return float(sum(iv.metrics.total_reward for iv in self.intervals))

    @property
    def reward_rate(self) -> float:
        """Reward per second; 0.0 for a degenerate (zero-length) horizon."""
        if self.horizon_s <= 0.0:
            return 0.0
        return self.total_reward / self.horizon_s

    @property
    def violation_minutes(self) -> float:
        """Total simulated time with any inlet above its redline."""
        return float(sum(iv.violation_minutes for iv in self.intervals))

    @property
    def tasks_lost(self) -> int:
        """Arrivals that never earned reward: dropped + stranded-dropped."""
        lost = 0
        for iv in self.intervals:
            lost += int(iv.metrics.dropped.sum())
            if iv.metrics.stranded_dropped is not None:
                lost += int(iv.metrics.stranded_dropped.sum())
        return lost

    @property
    def tasks_requeued(self) -> int:
        return int(sum(
            0 if iv.metrics.stranded_requeued is None
            else iv.metrics.stranded_requeued.sum() for iv in self.intervals))

    @property
    def n_replans(self) -> int:
        """Re-solves triggered by inventory changes (cold start excluded)."""
        return sum(1 for iv in self.intervals if iv.cause != "start")

    @property
    def precools(self) -> int:
        """Total pre-cool levels committed (MPC controller only)."""
        return sum(iv.precooled for iv in self.intervals)

    @property
    def derates(self) -> int:
        """Total derate steps committed across the run's intervals."""
        return sum(iv.derated for iv in self.intervals)

    @property
    def shed_intervals(self) -> int:
        return sum(1 for iv in self.intervals if iv.shed)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "horizon_s": self.horizon_s,
            "n_fault_events": len(self.schedule),
            "total_reward": self.total_reward,
            "reward_rate": self.reward_rate,
            "violation_minutes": self.violation_minutes,
            "tasks_lost": self.tasks_lost,
            "tasks_requeued": self.tasks_requeued,
            "n_replans": self.n_replans,
            "precools": self.precools,
            "derates": self.derates,
            "intervals": [iv.to_dict() for iv in self.intervals],
        }


def _interval_cause(schedule: FaultSchedule, t: float) -> str:
    """Human-readable reason the inventory changed at instant ``t``."""
    if t == 0.0:
        return "start"
    markers = [f"fault:{ev.kind.value}" for ev in schedule
               if ev.start_s == t]
    markers += [f"recovery:{ev.kind.value}" for ev in schedule
                if ev.end_s == t]
    return ",".join(markers) if markers else "epoch"


class FaultAwareController:
    """Drives the thermal-aware control loop through a run.

    Parameters
    ----------
    datacenter:
        The healthy room (thermal model attached).
    workload:
        The base workload (the paper's Section VI setup).  Its arrival
        rates are used throughout unless :meth:`run` is given a
        drifting profile, which then supplies each interval's rates.
    p_const:
        Nominal room power cap, kW (scaled down by active cap-drop
        faults).
    policy:
        Reaction tunables (:class:`ReactionPolicy`).
    """

    def __init__(self, datacenter: DataCenter, workload: Workload,
                 p_const: float, policy: ReactionPolicy | None = None):
        if p_const <= 0:
            raise ValueError("power cap must be positive")
        datacenter.require_thermal()
        self.datacenter = datacenter
        self.workload = workload
        self.p_const = p_const
        self.policy = policy or ReactionPolicy()
        # warm-start chains keyed by structure digest: the healthy room
        # and every distinct degraded inventory (and, under MPC, every
        # pre-cool tightening level) keep independent chains, so a
        # recovery replays against the pre-fault state, not the
        # degraded one
        self._mpc: MPCPlanner | None = None
        if self.policy.controller == "mpc":
            self._mpc = MPCPlanner(self.policy.mpc_config())
            self._warm: WarmPool = self._mpc.pool
        else:
            self._warm = WarmPool()

    # ------------------------------------------------------------------
    def run(self, trace: Trace | list[Task], horizon_s: float,
            schedule: FaultSchedule,
            profile: ArrivalProfile | None = None) -> ChaosRunResult:
        """Replay ``trace`` over ``horizon_s`` seconds under ``schedule``.

        With ``profile`` the interval workloads track the drifting
        arrival rates (and the MPC lookahead reads its forecast from the
        profile); without it the stationary workload is used everywhere,
        which keeps the classic chaos runs bit-identical.  ``trace``
        must be in arrival order; a list of tasks is converted once.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        trace = as_trace(trace)
        dc = self.datacenter
        pol = self.policy
        schedule.validate_for(dc.n_nodes, dc.n_crac)
        cuts = {0.0, float(horizon_s)}
        cuts.update(schedule.boundaries(horizon_s))
        grid = None
        if pol.controller == "mpc":
            grid = self._mpc.config.step_s
        elif pol.epoch_s is not None:
            grid = pol.epoch_s
        if grid is not None:
            k = 1
            while k * grid < horizon_s:
                cuts.add(float(k * grid))
                k += 1
        provider = None
        if pol.controller == "mpc":
            provider = (make_forecast(pol.forecast, profile,
                                      seed=pol.forecast_seed)
                        if profile is not None else PersistenceForecast())
        intervals: list[IntervalRecord] = []
        t_out_full: np.ndarray | None = None
        cursor = 0
        ordered = sorted(cuts)
        for a, b in zip(ordered[:-1], ordered[1:]):
            state = schedule.state_at(a, dc.n_nodes, dc.n_crac)
            view = degraded_view(dc, self.workload, state)
            cap = view.cap(self.p_const)
            cause = _interval_cause(schedule, a)
            with obs_span("interval", cause=cause,
                          n_nodes_alive=view.datacenter.n_nodes):
                record, t_out_full, cursor = self._run_interval(
                    a, b, horizon_s, cause, state, view, cap, trace,
                    cursor, t_out_full, schedule, profile, provider)
            intervals.append(record)
        return ChaosRunResult(horizon_s=float(horizon_s), schedule=schedule,
                              intervals=intervals)

    def _run_interval(self, a: float, b: float, horizon_s: float,
                      cause: str, state, view: DegradedView, cap: float,
                      trace: Trace, cursor: int,
                      t_out_full: np.ndarray | None,
                      schedule: FaultSchedule,
                      profile: ArrivalProfile | None = None,
                      provider=None
                      ) -> tuple[IntervalRecord, np.ndarray, int]:
        """One constant-inventory interval: replan, then the epoch step."""
        pol = self.policy
        precooled = 0
        wl_iv = view.workload
        if profile is not None:
            wl_iv = replace(view.workload, arrival_rates=np.asarray(
                profile.rates(a), dtype=float))
        t_prev = (None if t_out_full is None
                  else view.reduce_t_out(t_out_full))
        if pol.controller == "mpc":
            cfg = self._mpc.config
            forecast_rates = provider.rates_ahead(
                a, wl_iv.arrival_rates, cfg.horizon_steps, cfg.step_s)
            with obs_span("replan", cold_start=t_prev is None):
                decision = self._mpc.plan(view.datacenter, wl_iv, cap,
                                          t_prev, forecast_rates,
                                          first_step_s=b - a)
            plan = decision.plan
            derated = decision.derated
            precooled = decision.precooled
            predicted = decision.predicted_overshoot_c
        else:
            # warm chains keyed by the inventory's structure digest
            warm_key = None if pol.warm == "off" else compute_digests(
                view.datacenter, wl_iv, cap,
                SolveOptions(psi=pol.psi)).structure
            with obs_span("replan", cold_start=t_prev is None):
                plan, derated, predicted = plan_with_transient_guard(
                    view.datacenter, wl_iv, cap, t_prev,
                    psi=pol.psi, tau_s=pol.tau_s,
                    derate_step=pol.derate_step,
                    max_derate=pol.max_derate,
                    on_exhausted=pol.on_derate_exhausted,
                    warm_start=(None if warm_key is None
                                else self._warm.get(warm_key)))
            if warm_key is not None and not isinstance(plan, ShedPlan):
                self._warm.put(warm_key, plan.state)
        shed = isinstance(plan, ShedPlan)
        warm_level = "shed" if shed else plan.warm_level
        if shed:
            obs_metrics.counter("chaos.shed_events").inc()
        if cause != "start":
            obs_metrics.counter("chaos.replans").inc()

        # the interval's task slice
        first = cursor
        cursor = int(np.searchsorted(trace.arrival, b, "left"))

        # nodes dying exactly at the right boundary strand their queues
        outages: list[CoreOutage] = []
        if b < horizon_s:
            for ev in schedule.events_starting_at(
                    b, kind=FaultKind.NODE_CRASH):
                pos = np.nonzero(view.node_map == ev.target)[0]
                if pos.size == 0:
                    continue  # already dead in this interval
                node = view.datacenter.nodes[int(pos[0])]
                outages.append(CoreOutage(
                    start_s=b - a,
                    cores=tuple(node.core_indices)))
        epoch = run_epoch(view.datacenter, wl_iv, plan, t_prev,
                          trace[first:cursor], a, b, tau_s=pol.tau_s,
                          outages=outages, stranded=pol.stranded)
        record = IntervalRecord(
            start_s=a, end_s=b, cause=cause,
            n_nodes_alive=view.datacenter.n_nodes,
            crac_capacity=[float(c) for c in state.crac_capacity],
            cap_kw=cap,
            plan_reward_rate=plan.reward_rate,
            t_crac_out_c=[float(t) for t in plan.t_crac_out],
            derated=derated,
            predicted_overshoot_c=predicted,
            transient_overshoot_c=epoch.overshoot_c,
            violation_minutes=epoch.violation_minutes,
            warm_level=warm_level,
            metrics=epoch.metrics,
            shed=shed,
            precooled=precooled)
        return record, view.expand_t_out(epoch.t_out), cursor
