"""The rolling-horizon control service behind ``repro serve``.

Architecture: one plain loop.  The service pulls one tick at a time
from a streaming trace source — any iterator of
:class:`repro.workload.trace.TickDemand`, typically
:func:`repro.workload.trace.stream_trace_ticks`, so trace generation
never runs ahead of control — and runs the control step on it:
re-solve the first-step assignment for the tick's arrival-rate vector
with the previous tick's :class:`~repro.core.warmstart.SolveState` as a
warm start, transient-guard the transition
(:func:`repro.core.controller.plan_with_transient_guard`), then admit
arrivals against the plan's execution-rate capacity and shed the
excess.  The step is synchronous and CPU-bound, so the loop has nothing
to overlap and needs no event loop.

Warm-start economics: between ticks only the arrival-rate vector
changes, which is exactly the ``"stage1"`` reuse level — Stage 1 and
Stage 2 replay bit-identically and only the Stage 3 rate LP re-solves.
The service therefore pays the full search cost once, on the first
tick.

Determinism: with a seeded trace stream the whole run is a pure
function of its inputs — :meth:`ServeResult.to_dict` contains no wall
times, so two runs with the same seed produce identical tick logs
(enforced by the CI ``serve-smoke`` job).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from repro.control.forecast import ForecastProvider
from repro.control.mpc import MPCConfig, MPCPlanner
from repro.core.controller import ShedPlan, plan_with_transient_guard
from repro.core.warmstart import SolveState
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import span as obs_span
from repro.workload.tasktypes import Workload
from repro.workload.trace import Task, TickDemand

__all__ = ["ServeConfig", "TickRecord", "ServeResult", "ControlService",
           "serve_trace"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the control service.

    Attributes
    ----------
    tick_s:
        Control-tick length, seconds (the replanning period).
    psi:
        ARR aggregation level for the re-solves.
    tau_s / derate_step / max_derate:
        Transient-guard parameters
        (:func:`repro.core.controller.plan_with_transient_guard`).
    warm:
        ``"replay"`` (default) threads warm-start state between ticks
        using only the value-exact reuse levels; ``"off"`` solves every
        tick cold.
    controller:
        ``"interval"`` (default) replans each tick reactively with the
        transient guard; ``"mpc"`` plans with the receding-horizon
        planner (:mod:`repro.control.mpc`), looking ``horizon_ticks``
        ticks ahead and pre-cooling before derating.
    horizon_ticks:
        MPC lookahead depth, in ticks.
    precool_step_c / max_precool:
        MPC pre-cool escalation (redline tightening per level, levels).
    """

    tick_s: float = 60.0
    psi: float = 50.0
    tau_s: float = 120.0
    derate_step: float = 0.05
    max_derate: int = 10
    warm: str = "replay"
    controller: str = "interval"
    horizon_ticks: int = 3
    precool_step_c: float = 1.0
    max_precool: int = 3

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError(f"tick_s must be positive, got {self.tick_s}")
        if self.warm not in ("off", "replay"):
            raise ValueError(
                f"warm must be 'off' or 'replay', got {self.warm!r}")
        if self.controller not in ("interval", "mpc"):
            raise ValueError(
                f"controller must be 'interval' or 'mpc', "
                f"got {self.controller!r}")
        if self.horizon_ticks < 1:
            raise ValueError("horizon_ticks must be at least 1")

    def mpc_config(self) -> MPCConfig:
        """The planner tunables this service config implies."""
        return MPCConfig(
            horizon_steps=self.horizon_ticks, step_s=self.tick_s,
            psi=self.psi, tau_s=self.tau_s,
            precool_step_c=self.precool_step_c,
            max_precool=self.max_precool,
            derate_step=self.derate_step, max_derate=self.max_derate,
            on_exhausted="best", warm=self.warm)


@dataclass
class TickRecord:
    """One control tick of a service run (no wall times — deterministic).

    Attributes
    ----------
    index / start_s:
        Tick number and start instant.
    rates:
        Arrival-rate vector the tick was planned for.
    reward_rate:
        Stage 3 prediction of the committed plan (0.0 on a shed-all
        tick).
    warm_level:
        Warm-start reuse level the replan engaged (``"none"``,
        ``"structure"``, ``"stage1"``, ``"request"``, or ``"shed"``
        when no feasible plan existed).
    derated:
        Derate steps the transient guard took.
    arrived / admitted / shed_tasks:
        Tick arrivals vs. what the plan's execution-rate capacity
        admitted; the rest was shed.
    shed:
        True when the tick shed any load (including shed-all ticks).
    precooled:
        Pre-cool level the committed plan was solved at (MPC controller
        only; the reactive tick controller never pre-cools).
    """

    index: int
    start_s: float
    rates: list[float]
    reward_rate: float
    warm_level: str
    derated: int
    arrived: int
    admitted: int
    shed_tasks: int
    shed: bool
    precooled: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_s": self.start_s,
            "rates": self.rates,
            "reward_rate": self.reward_rate,
            "warm_level": self.warm_level,
            "derated": self.derated,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed_tasks": self.shed_tasks,
            "shed": self.shed,
            "precooled": self.precooled,
        }


@dataclass
class ServeResult:
    """Aggregate outcome of one service run."""

    tick_s: float
    ticks: list[TickRecord] = field(default_factory=list)

    @property
    def n_ticks(self) -> int:
        return len(self.ticks)

    @property
    def total_reward(self) -> float:
        """Predicted reward over the run (reward rate x tick length)."""
        return float(sum(t.reward_rate for t in self.ticks)) * self.tick_s

    @property
    def tasks_arrived(self) -> int:
        return sum(t.arrived for t in self.ticks)

    @property
    def tasks_shed(self) -> int:
        return sum(t.shed_tasks for t in self.ticks)

    @property
    def shed_ticks(self) -> int:
        return sum(1 for t in self.ticks if t.shed)

    @property
    def warm_levels(self) -> dict[str, int]:
        """Tick count per warm-start reuse level."""
        levels: dict[str, int] = {}
        for t in self.ticks:
            levels[t.warm_level] = levels.get(t.warm_level, 0) + 1
        return levels

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "tick_s": self.tick_s,
            "n_ticks": self.n_ticks,
            "total_reward": self.total_reward,
            "tasks_arrived": self.tasks_arrived,
            "tasks_shed": self.tasks_shed,
            "shed_ticks": self.shed_ticks,
            "warm_levels": self.warm_levels,
            "ticks": [t.to_dict() for t in self.ticks],
        }


def _admit(tasks: tuple[Task, ...], capacity_rates: np.ndarray,
           tick_s: float) -> tuple[int, int]:
    """Admission control: how many of ``tasks`` the plan can serve.

    The committed plan's execution-rate matrix bounds the sustainable
    throughput per task type at ``tc.sum(axis=1)`` tasks/s; a tick
    admits at most ``floor(rate * tick_s)`` arrivals of each type
    (earliest first — flash-crowd excess is shed, not queued across
    ticks, because a stale backlog would invalidate the steady-state
    planning model).

    Returns ``(admitted, shed)`` counts.
    """
    allowance = np.floor(capacity_rates * tick_s + 1e-9).astype(int)
    taken = np.zeros_like(allowance)
    admitted = 0
    for task in tasks:
        if taken[task.task_type] < allowance[task.task_type]:
            taken[task.task_type] += 1
            admitted += 1
    return admitted, len(tasks) - admitted


class ControlService:
    """Drives the rolling-horizon control loop over a tick stream.

    Parameters
    ----------
    datacenter:
        The room (thermal model attached).
    workload:
        Base workload; each tick's plan uses the tick's arrival-rate
        vector in place of ``workload.arrival_rates``.
    p_const:
        Room power cap, kW.
    config:
        Service tunables (:class:`ServeConfig`).
    forecast:
        Optional :class:`~repro.control.forecast.ForecastProvider` for
        the MPC lookahead (``controller="mpc"``); ``None`` degenerates
        the lookahead to persistence (every future tick looks like the
        current one).
    """

    def __init__(self, datacenter: DataCenter, workload: Workload,
                 p_const: float, config: ServeConfig | None = None,
                 forecast: ForecastProvider | None = None):
        if p_const <= 0:
            raise ValueError("power cap must be positive")
        datacenter.require_thermal()
        self.datacenter = datacenter
        self.workload = workload
        self.p_const = p_const
        self.config = config or ServeConfig()
        self.forecast = forecast
        self._mpc: MPCPlanner | None = None
        if self.config.controller == "mpc":
            self._mpc = MPCPlanner(self.config.mpc_config())
        self._warm: SolveState | None = None
        self._t_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _shed_all(self, demand: TickDemand) -> TickRecord:
        """Shed-all tick: the room admitted no feasible plan."""
        obs_metrics.counter("serve.shed_events").inc()
        obs_metrics.counter("serve.shed_tasks").inc(len(demand.tasks))
        obs_annotate(warm_level="shed")
        return TickRecord(
            index=demand.index, start_s=demand.start_s,
            rates=[float(r) for r in demand.rates],
            reward_rate=0.0, warm_level="shed", derated=0,
            arrived=len(demand.tasks), admitted=0,
            shed_tasks=len(demand.tasks), shed=True)

    def _mpc_step(self, demand: TickDemand, wl: Workload):
        """Plan one tick with the receding-horizon planner."""
        cfg = self.config
        rates = wl.arrival_rates
        if self.forecast is not None:
            forecast_rates = self.forecast.rates_ahead(
                demand.start_s, rates, cfg.horizon_ticks, cfg.tick_s)
        else:
            forecast_rates = np.tile(rates, (cfg.horizon_ticks, 1))
        return self._mpc.plan(self.datacenter, wl, self.p_const,
                              self._t_out, forecast_rates,
                              first_step_s=cfg.tick_s)

    def _control_step(self, demand: TickDemand) -> TickRecord:
        """One tick: warm replan, transient guard, admission control."""
        cfg = self.config
        wl = replace(self.workload,
                     arrival_rates=np.asarray(demand.rates, dtype=float))
        precooled = 0
        if cfg.controller == "mpc":
            decision = self._mpc_step(demand, wl)
            plan = decision.plan
            derated = decision.derated
            precooled = decision.precooled
        else:
            plan, derated, _ = plan_with_transient_guard(
                self.datacenter, wl, self.p_const, self._t_out,
                psi=cfg.psi, tau_s=cfg.tau_s, derate_step=cfg.derate_step,
                max_derate=cfg.max_derate, on_exhausted="best",
                warm_start=self._warm)
            if cfg.warm != "off" and not isinstance(plan, ShedPlan):
                self._warm = plan.state
        if isinstance(plan, ShedPlan):
            # the room admits no plan at these rates — shed everything
            # this tick and keep the service alive
            return self._shed_all(demand)
        warm_level = plan.warm_level

        # propagate the room's operating point for the next transition
        model = self.datacenter.require_thermal()
        node_power = self.datacenter.node_power_kw(plan.pstates)
        self._t_out = model.steady_state(plan.t_crac_out, node_power).t_out

        admitted, shed_tasks = _admit(demand.tasks, plan.tc.sum(axis=1),
                                      cfg.tick_s)
        if shed_tasks:
            obs_metrics.counter("serve.shed_events").inc()
            obs_metrics.counter("serve.shed_tasks").inc(shed_tasks)
        obs_annotate(warm_level=warm_level, admitted=admitted,
                     shed_tasks=shed_tasks)
        return TickRecord(
            index=demand.index, start_s=demand.start_s,
            rates=[float(r) for r in demand.rates],
            reward_rate=float(plan.reward_rate), warm_level=warm_level,
            derated=derated, arrived=len(demand.tasks),
            admitted=admitted, shed_tasks=shed_tasks,
            shed=shed_tasks > 0, precooled=precooled)

    # ------------------------------------------------------------------
    def stream(self, source: Iterable[TickDemand]) -> Iterator[TickRecord]:
        """Process ticks lazily, yielding each record as it completes."""
        for demand in source:
            with obs_span("serve.tick", index=demand.index):
                record = self._control_step(demand)
            obs_metrics.counter("serve.ticks").inc()
            yield record

    def run(self, source: Iterable[TickDemand]) -> ServeResult:
        """Consume ``source`` to exhaustion and return the run log."""
        result = ServeResult(tick_s=self.config.tick_s)
        with obs_span("serve", tick_s=self.config.tick_s,
                      warm=self.config.warm):
            result.ticks.extend(self.stream(source))
        return result


def serve_trace(datacenter: DataCenter, workload: Workload, p_const: float,
                source: Iterable[TickDemand],
                config: ServeConfig | None = None,
                forecast: ForecastProvider | None = None) -> ServeResult:
    """Run a fresh service over ``source`` to completion."""
    return ControlService(datacenter, workload, p_const, config,
                          forecast).run(source)
