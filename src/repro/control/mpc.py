"""Receding-horizon predictive control on the transient thermal model.

The paper's Section V.A premise — "temperature evolution in the data
center is in orders of minutes, while the execution of a task is in
orders of seconds" — is used *defensively* by the interval arm
(:func:`repro.core.controller.plan_with_transient_guard` assumes the
candidate plan persists until the room settles and derates the power
cap until that worst case is clean).  This module uses the same slow
dynamics *offensively*, the receding-horizon formulation of Van Damme
et al. (PAPERS.md):

* each decision solves the first-step assignment for the next ``H``
  forecast rate vectors (:mod:`repro.control.forecast`), chaining
  :class:`~repro.core.warmstart.SolveState` through the horizon — rates
  are the only thing changing between steps, which is exactly the
  ``"stage1"`` reuse level, so Stage 1/2 replay bit-identically and
  only the Stage 3 rate LP re-solves per step;
* the chained plans are pushed through
  :func:`~repro.thermal.transient.simulate_transient` from the current
  room state — step ``j``'s transition starts from where step ``j-1``
  actually left the air, and the *terminal* step is integrated to
  settling, so the prediction is never more optimistic than the
  interval guard's persistent-plan assumption, only better informed;
* when the predicted trajectory overshoots a redline the planner first
  escalates **pre-cooling** — re-solving the committed step against a
  redline-tightened view of the room
  (:meth:`~repro.datacenter.builder.DataCenter.with_redline_margin`),
  which banks cold-air headroom at full compute capacity — and only
  then falls back to the interval controller's cap-derate loop, so a
  hazardous transition costs cooling margin before it costs compute;
* when nothing is feasible the planner degrades to shedding load
  (:func:`~repro.core.controller.shed_plan`), never crashing the run.

Warm chains are pooled per problem structure
(:class:`~repro.core.warmstart.WarmPool`): the true room and each
pre-cool tightening level keep independent chains, so every reuse the
solver engages stays value-exact.  The loop that calls the planner
once per epoch is :class:`repro.faults.policy.FaultAwareController`
with ``ReactionPolicy(controller="mpc")``.  See docs/CONTROL.md for the
full horizon/forecast/warm-replay contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.api import SolveOptions, SolveRequest, SolveResult, solve
from repro.core.controller import shed_plan
from repro.core.warmstart import WarmPool, compute_digests
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import span as obs_span
from repro.thermal.transient import simulate_transient
from repro.workload.tasktypes import Workload

__all__ = ["MPCConfig", "MPCDecision", "MPCPlanner"]

#: Overshoot below this is "clean" (same tolerance as the interval guard).
_CLEAN_C = 1e-6


@dataclass(frozen=True)
class MPCConfig:
    """Tunables of the predictive controller.

    Attributes
    ----------
    horizon_steps:
        Lookahead depth ``H`` (number of forecast steps, including the
        committed one).  ``H = 1`` reduces the prediction to the
        interval guard's persistent-plan assumption.
    step_s:
        Length of one lookahead step (the decision epoch), seconds.
    psi:
        ARR aggregation level of every horizon solve.
    tau_s:
        Node thermal time constant of the prediction model.
    precool_step_c / max_precool:
        Pre-cool escalation: level ``k`` re-solves the committed step
        with every redline tightened by ``k * precool_step_c`` degrees
        (full cap, colder outlets).  0 levels disables pre-cooling.
    derate_step / max_derate:
        The cap-derate fallback: each step multiplies the cap by
        ``1 - derate_step``, as in
        :func:`~repro.core.controller.plan_with_transient_guard`.  Unlike
        the guard, a derated cap that admits no plan ends the ladder and
        the best plan found so far is committed; the guard sheds all
        load in that case.
    settle_factor:
        The terminal lookahead step is integrated for
        ``settle_factor * tau_s`` seconds (past settling), so hazards
        beyond the horizon are never missed.
    on_exhausted:
        ``"best"`` (default) commits the least-overshooting candidate
        when every escalation still overshoots; ``"raise"`` aborts.
    warm:
        ``"replay"`` (default) chains warm-start state through the
        horizon and across decisions (value-exact reuse only);
        ``"off"`` solves everything cold.
    """

    horizon_steps: int = 3
    step_s: float = 60.0
    psi: float = 50.0
    tau_s: float = 120.0
    precool_step_c: float = 1.0
    max_precool: int = 3
    derate_step: float = 0.05
    max_derate: int = 10
    settle_factor: float = 10.0
    on_exhausted: str = "best"
    warm: str = "replay"

    def __post_init__(self) -> None:
        if self.horizon_steps < 1:
            raise ValueError(
                f"horizon_steps must be >= 1, got {self.horizon_steps}")
        if self.step_s <= 0:
            raise ValueError(f"step_s must be positive, got {self.step_s}")
        if self.tau_s <= 0:
            raise ValueError(f"tau_s must be positive, got {self.tau_s}")
        if self.precool_step_c <= 0:
            raise ValueError("precool_step_c must be positive")
        if self.max_precool < 0:
            raise ValueError("max_precool must be >= 0")
        if not 0.0 < self.derate_step < 1.0:
            raise ValueError("derate_step must be in (0, 1)")
        if self.max_derate < 0:
            raise ValueError("max_derate must be >= 0")
        if self.settle_factor <= 0:
            raise ValueError("settle_factor must be positive")
        if self.on_exhausted not in ("best", "raise"):
            raise ValueError("on_exhausted must be 'best' or 'raise'")
        if self.warm not in ("off", "replay"):
            raise ValueError(
                f"warm must be 'off' or 'replay', got {self.warm!r}")


@dataclass
class MPCDecision:
    """One committed MPC decision.

    Attributes
    ----------
    plan:
        The committed first-step plan — a
        :class:`~repro.core.api.SolveResult`, or a
        :class:`~repro.core.controller.ShedPlan` when ``shed``.
    precooled:
        Pre-cool level of the committed plan (0 = solved against the
        true redlines).
    derated:
        Cap-derate steps of the committed plan.
    predicted_overshoot_c:
        Worst redline overshoot along the predicted chained trajectory
        (``None`` on a cold start, which has no transition to predict).
    predicted_violation_min:
        Predicted minutes above any redline over the horizon.
    lookahead_steps:
        Horizon steps actually solved (may be shorter than ``H`` if a
        future step was infeasible).
    warm_level:
        Warm-start reuse level the committed solve engaged.
    shed:
        True when no feasible plan existed and all load is shed.
    """

    plan: Any
    precooled: int
    derated: int
    predicted_overshoot_c: float | None
    predicted_violation_min: float
    lookahead_steps: int
    warm_level: str
    shed: bool = False


class MPCPlanner:
    """Stateless-per-decision planner holding the warm chains.

    One planner instance should live as long as the control loop: its
    :class:`~repro.core.warmstart.WarmPool` carries the per-structure
    warm chains (true room, pre-cool levels, degraded inventories)
    across decisions.
    """

    def __init__(self, config: MPCConfig | None = None):
        self.config = config or MPCConfig()
        self.pool = WarmPool()

    # ------------------------------------------------------------------
    def _solve_step(self, datacenter: DataCenter, workload: Workload,
                    rates: np.ndarray, cap: float, options: SolveOptions,
                    state) -> SolveResult:
        wl = replace(workload, arrival_rates=np.asarray(rates, dtype=float))
        return solve(SolveRequest(datacenter, wl, cap, options=options,
                                  warm_start=state))

    def _structure_key(self, datacenter: DataCenter, workload: Workload,
                       cap: float, options: SolveOptions) -> str:
        return compute_digests(datacenter, workload, cap, options).structure

    def _shed_decision(self, datacenter: DataCenter,
                       workload: Workload) -> MPCDecision:
        obs_metrics.counter("mpc.shed_events").inc()
        return MPCDecision(
            plan=shed_plan(datacenter, workload.n_task_types),
            precooled=0, derated=0, predicted_overshoot_c=None,
            predicted_violation_min=0.0, lookahead_steps=0,
            warm_level="shed", shed=True)

    # ------------------------------------------------------------------
    def plan(self, datacenter: DataCenter, workload: Workload,
             p_const: float, t_out_prev: np.ndarray | None,
             forecast_rates: np.ndarray, *,
             first_step_s: float | None = None) -> MPCDecision:
        """One receding-horizon decision.

        Parameters
        ----------
        t_out_prev:
            Outlet temperatures of the room *now* (full view
            coordinates), or ``None`` on a cold start — then the first
            lookahead plan is committed unguarded, matching the interval
            controllers' cold-start convention.
        forecast_rates:
            ``(H, n_task_types)`` forecast matrix (row 0 = the step
            being committed); a single vector is treated as ``H = 1``.
        first_step_s:
            Length of the committed step (defaults to
            ``config.step_s``); the fault-aware loop passes the actual
            interval length, which fault boundaries can cut short.
        """
        cfg = self.config
        rates = np.atleast_2d(np.asarray(forecast_rates, dtype=float))
        first_s = cfg.step_s if first_step_s is None else float(first_step_s)
        if first_s <= 0:
            raise ValueError(f"first_step_s must be positive, got {first_s}")
        options = SolveOptions(psi=cfg.psi)
        pooled = cfg.warm != "off"

        with obs_span("mpc", steps=int(rates.shape[0]), cap_kw=p_const):
            obs_metrics.counter("mpc.decisions").inc()
            decision = self._plan_inner(datacenter, workload, p_const,
                                        t_out_prev, rates, first_s,
                                        options, pooled)
            obs_annotate(precooled=decision.precooled,
                         derated=decision.derated, shed=decision.shed)
        return decision

    def _plan_inner(self, datacenter: DataCenter, workload: Workload,
                    p_const: float, t_out_prev: np.ndarray | None,
                    rates: np.ndarray, first_s: float,
                    options: SolveOptions, pooled: bool) -> MPCDecision:
        cfg = self.config

        # -- lookahead: warm-chained solves over the forecast horizon --
        key = self._structure_key(datacenter, workload, p_const, options) \
            if pooled else None
        state = self.pool.get(key) if pooled else None
        plans: list[SolveResult] = []
        with obs_span("lookahead", steps=int(rates.shape[0])):
            for j in range(rates.shape[0]):
                try:
                    step_plan = self._solve_step(datacenter, workload,
                                                 rates[j], p_const,
                                                 options, state)
                except RuntimeError:
                    # infeasible (LP or CRAC search) at this step; the
                    # guard-loop convention treats both as "no plan"
                    if j == 0:
                        if cfg.on_exhausted == "raise":
                            raise
                        return self._shed_decision(datacenter, workload)
                    break  # truncate the horizon, keep the solved prefix
                state = step_plan.state
                plans.append(step_plan)
                obs_metrics.counter("mpc.lookahead_solves").inc()
        if pooled:
            self.pool.put(key, state)

        if t_out_prev is None:
            # cold start: nothing to transition from (parity with the
            # interval arm's plain first solve)
            return MPCDecision(
                plan=plans[0], precooled=0, derated=0,
                predicted_overshoot_c=None, predicted_violation_min=0.0,
                lookahead_steps=len(plans),
                warm_level=plans[0].warm_level)

        # -- chained transient prediction -------------------------------
        model = datacenter.require_thermal()
        redline = datacenter.redline_c
        dt = min(1.0, cfg.tau_s / 4.0)
        settle_s = cfg.settle_factor * cfg.tau_s
        t_prev = np.asarray(t_out_prev, dtype=float)

        def predict(first_plan: SolveResult) -> tuple[float, float]:
            """Worst overshoot and violation minutes over the horizon."""
            t_out = t_prev
            worst, viol = -np.inf, 0.0
            seq = [first_plan] + plans[1:]
            for j, p in enumerate(seq):
                dur = first_s if j == 0 else cfg.step_s
                if j == len(seq) - 1:
                    # terminal step: integrate to settling, so the
                    # prediction covers everything the interval guard's
                    # persistent-plan assumption would
                    dur = max(dur, settle_s)
                node_power = datacenter.node_power_kw(p.pstates)
                with obs_span("transient"):
                    res = simulate_transient(
                        model, p.t_crac_out, node_power, t_out,
                        duration_s=max(dur, dt), tau_s=cfg.tau_s, dt_s=dt)
                worst = max(worst, res.max_inlet_overshoot(redline))
                viol += res.violation_minutes(redline)
                t_out = res.t_out[-1]
            return float(worst), float(viol)

        # -- candidate ladder: as-planned, pre-cool levels, derates ----
        best: tuple[SolveResult, int, int, float, float] | None = None

        def consider(plan_c: SolveResult, precool: int, derate: int
                     ) -> bool:
            nonlocal best
            worst, viol = predict(plan_c)
            if best is None or worst < best[3]:
                best = (plan_c, precool, derate, worst, viol)
            return worst <= _CLEAN_C

        clean = consider(plans[0], 0, 0)
        if not clean:
            # pre-cool first: tighter redlines at full compute capacity
            for level in range(1, cfg.max_precool + 1):
                dc_level = datacenter.with_redline_margin(
                    level * cfg.precool_step_c)
                key_l = self._structure_key(dc_level, workload, p_const,
                                            options) if pooled else None
                try:
                    plan_l = self._solve_step(dc_level, workload, rates[0],
                                              p_const, options,
                                              self.pool.get(key_l)
                                              if pooled else None)
                except RuntimeError:
                    break  # redlines too tight for any plan; stop here
                if pooled:
                    self.pool.put(key_l, plan_l.state)
                obs_metrics.counter("mpc.precools").inc()
                clean = consider(plan_l, level, 0)
                if clean:
                    break
        if not clean:
            # the interval controller's cap-derate loop as the fallback
            cap = p_const
            state_d = plans[0].state
            for derate in range(1, cfg.max_derate + 1):
                cap *= 1.0 - cfg.derate_step
                try:
                    plan_d = self._solve_step(datacenter, workload,
                                              rates[0], cap, options,
                                              state_d)
                except RuntimeError:
                    break  # derated cap admits no plan; commit the best
                state_d = plan_d.state
                obs_metrics.counter("mpc.derates").inc()
                clean = consider(plan_d, 0, derate)
                if clean:
                    break
        if not clean:
            obs_metrics.counter("mpc.exhausted").inc()
            if cfg.on_exhausted == "raise":
                raise RuntimeError(
                    f"predicted trajectory still overshoots redlines by "
                    f"{best[3]:.2f} C after pre-cool and derate "
                    f"escalation")

        plan_c, precool, derate, worst, viol = best
        return MPCDecision(
            plan=plan_c, precooled=precool, derated=derate,
            predicted_overshoot_c=worst, predicted_violation_min=viol,
            lookahead_steps=len(plans), warm_level=plan_c.warm_level)
