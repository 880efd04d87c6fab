"""Chaos sweep: reward and thermal exposure versus fault rate.

The experiment asks how gracefully the two-step scheme degrades: a room
is generated exactly as for ``repro simulate`` (same scenario, same
trace seed), then replayed under fault timelines of increasing intensity
(:func:`repro.faults.schedule.generate_fault_schedule` with rates scaled
by a *factor*).  Factor 0 is the healthy control — bit-identical to the
fault-free run — and every other factor is reported relative to it:

* **reward retained** — achieved reward rate / healthy reward rate;
* **redline-violation minutes** — transition time above any redline;
* **MTTR-to-replan** — mean wall-clock seconds per fault re-solve;
* **tasks lost / requeued** — explicit stranded-task accounting.

Every point is a pure function of ``(ChaosConfig, factor)``, so the
sweep rides the PR-1 engine unchanged: points fan out over worker
processes (:func:`~repro.experiments.engine.parallel_map`, workers
recompute from the config so results are identical across ``--jobs``)
and land in the generic point cache
(:func:`~repro.experiments.engine.load_point` /
:func:`~repro.experiments.engine.store_point`).  Wall-clock fields
(``mean_replan_s``) are measured, not derived, and are the one part of
a point that legitimately varies between executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.engine import load_point, parallel_map, store_point
from repro.experiments.generator import Scenario, generate_scenario
from repro.faults.model import FaultSchedule
from repro.faults.policy import (ChaosRunResult, FaultAwareController,
                                 ReactionPolicy)
from repro.faults.schedule import (FaultRates, demo_rates,
                                   generate_fault_schedule)
from repro.workload.trace import generate_trace

__all__ = ["ChaosConfig", "ChaosPoint", "run_chaos_point",
           "run_chaos_scenario", "sweep_chaos", "chaos_table"]


@dataclass(frozen=True)
class ChaosConfig:
    """Everything that determines one chaos run (except the rate factor).

    Attributes
    ----------
    n_nodes / seed / horizon_s:
        Mirror ``repro simulate``: the room and power cap come from
        ``generate_scenario(scaled_down(PAPER_SET_1, n_nodes), seed)``,
        the trace from ``generate_trace(..., rng(seed + 1))``.
    psi:
        ARR aggregation level of every solve.
    stranded:
        Stranded-task disposition (``"requeue"`` / ``"drop"``).
    rates:
        Factor-1.0 fault rates; ``None`` derives
        :func:`~repro.faults.schedule.demo_rates` from the room and
        horizon.  Fault timelines draw from ``seed + 2``.
    controller:
        Replan policy: ``"interval"`` (default, the classic reactive
        loop) or ``"mpc"`` (the receding-horizon planner,
        :mod:`repro.control.mpc`).
    """

    n_nodes: int = 20
    seed: int = 1
    horizon_s: float = 30.0
    psi: float = 50.0
    stranded: str = "requeue"
    rates: FaultRates | None = None
    controller: str = "interval"

    def resolved_rates(self, n_crac: int) -> FaultRates:
        if self.rates is not None:
            return self.rates
        return demo_rates(self.horizon_s, self.n_nodes, n_crac)

    def cache_tag(self) -> str:
        return f"chaos-n{self.n_nodes}-seed{self.seed}"

    def cache_extra(self, factor: float, n_crac: int) -> dict:
        return {
            "horizon_s": self.horizon_s,
            "psi": self.psi,
            "stranded": self.stranded,
            "rates": self.resolved_rates(n_crac).to_dict(),
            "factor": factor,
            "controller": self.controller,
        }


@dataclass
class ChaosPoint:
    """One factor's summary in a chaos sweep.

    ``reward_retained`` is filled in by :func:`sweep_chaos` relative to
    the factor-0 control (``None`` when the control earned nothing).
    ``detail`` is the full :meth:`ChaosRunResult.to_dict` payload for
    consumers that want per-interval data.
    """

    factor: float
    n_fault_events: int
    reward_rate: float
    violation_minutes: float
    tasks_lost: int
    tasks_requeued: int
    n_replans: int
    mean_replan_s: float
    reward_retained: float | None = None
    detail: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_result(cls, factor: float,
                    result: ChaosRunResult) -> "ChaosPoint":
        return cls(factor=float(factor),
                   n_fault_events=len(result.schedule),
                   reward_rate=result.reward_rate,
                   violation_minutes=result.violation_minutes,
                   tasks_lost=result.tasks_lost,
                   tasks_requeued=result.tasks_requeued,
                   n_replans=result.n_replans,
                   mean_replan_s=result.mean_replan_s,
                   detail=result.to_dict())

    def to_dict(self) -> dict:
        return {
            "factor": self.factor,
            "n_fault_events": self.n_fault_events,
            "reward_rate": self.reward_rate,
            "violation_minutes": self.violation_minutes,
            "tasks_lost": self.tasks_lost,
            "tasks_requeued": self.tasks_requeued,
            "n_replans": self.n_replans,
            "mean_replan_s": self.mean_replan_s,
            "reward_retained": self.reward_retained,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ChaosPoint":
        return cls(factor=float(doc["factor"]),
                   n_fault_events=int(doc["n_fault_events"]),
                   reward_rate=float(doc["reward_rate"]),
                   violation_minutes=float(doc["violation_minutes"]),
                   tasks_lost=int(doc["tasks_lost"]),
                   tasks_requeued=int(doc["tasks_requeued"]),
                   n_replans=int(doc["n_replans"]),
                   mean_replan_s=float(doc["mean_replan_s"]),
                   reward_retained=doc.get("reward_retained"),
                   detail=doc.get("detail", {}))


def _chaos_inputs(config: ChaosConfig) -> tuple[Scenario, list]:
    """The exact room and trace ``repro simulate`` would use."""
    scenario = generate_scenario(scaled_down(PAPER_SET_1, config.n_nodes),
                                 config.seed)
    trace = generate_trace(scenario.workload, config.horizon_s,
                           np.random.default_rng(config.seed + 1))
    return scenario, trace


def run_chaos_scenario(config: ChaosConfig,
                       schedule: FaultSchedule) -> ChaosRunResult:
    """One chaos run under an explicit (hand-written) fault timeline."""
    scenario, trace = _chaos_inputs(config)
    controller = FaultAwareController(
        scenario.datacenter, scenario.workload, scenario.p_const,
        ReactionPolicy(psi=config.psi, stranded=config.stranded,
                       controller=config.controller))
    return controller.run(trace, config.horizon_s, schedule)


def run_chaos_point(config: ChaosConfig, factor: float) -> ChaosPoint:
    """One sweep point: draw the factor's timeline, run, summarize.

    Pure in ``(config, factor)`` up to measured wall times — a worker
    process recomputing it returns the same simulated numbers.  Factor 0
    uses the empty schedule (the healthy control), not a zero-rate draw,
    so it consumes no random numbers.
    """
    if factor < 0:
        raise ValueError("rate factor must be >= 0")
    scenario, trace = _chaos_inputs(config)
    n_crac = scenario.datacenter.n_crac
    if factor == 0:
        schedule = FaultSchedule.empty()
    else:
        schedule = generate_fault_schedule(
            config.n_nodes, n_crac, config.horizon_s,
            config.resolved_rates(n_crac).scaled(factor),
            np.random.default_rng(config.seed + 2))
    controller = FaultAwareController(
        scenario.datacenter, scenario.workload, scenario.p_const,
        ReactionPolicy(psi=config.psi, stranded=config.stranded,
                       controller=config.controller))
    result = controller.run(trace, config.horizon_s, schedule)
    return ChaosPoint.from_result(factor, result)


def sweep_chaos(config: ChaosConfig, factors: list[float], *,
                jobs: int = 1, cache_dir: str | None = None,
                resume: bool = False) -> list[ChaosPoint]:
    """Sweep fault-rate factors; always includes the factor-0 control.

    Points are cached individually (keyed on the config and factor) and
    computed through :func:`~repro.experiments.engine.parallel_map`, so
    ``--jobs`` and ``--resume`` behave exactly as in the other sweeps.
    Returned points are sorted by factor with ``reward_retained`` filled
    in relative to the control.
    """
    wanted = sorted(set(float(f) for f in factors) | {0.0})
    # the generator builds the room with the config's CRAC count, so the
    # cache keys need no room (nor trace) generated in this process
    n_crac = scaled_down(PAPER_SET_1, config.n_nodes).n_crac
    points: dict[float, ChaosPoint] = {}
    pending: list[float] = []
    for factor in wanted:
        payload = None
        if cache_dir is not None and resume:
            payload = load_point(cache_dir, config.cache_tag(),
                                 config.cache_extra(factor, n_crac))
        if payload is not None:
            points[factor] = ChaosPoint.from_dict(payload["point"])
        else:
            pending.append(factor)
    computed = parallel_map(partial(run_chaos_point, config), pending,
                            jobs=jobs)
    for factor, point in zip(pending, computed):
        points[factor] = point
        if cache_dir is not None:
            store_point(cache_dir, config.cache_tag(),
                        config.cache_extra(factor, n_crac),
                        {"point": point.to_dict()})
    baseline = points[0.0].reward_rate
    for point in points.values():
        point.reward_retained = (point.reward_rate / baseline
                                 if baseline > 0 else None)
    return [points[f] for f in wanted]


def chaos_table(points: list[ChaosPoint]) -> str:
    """Fixed-width text table of a chaos sweep (CLI output)."""
    lines = [f"{'factor':>7}{'faults':>7}{'reward/s':>10}{'retained':>10}"
             f"{'viol min':>9}{'lost':>6}{'requeued':>9}{'replans':>8}"
             f"{'replan s':>9}"]
    for p in points:
        retained = ("     --- " if p.reward_retained is None
                    else f"{100 * p.reward_retained:8.1f}%")
        lines.append(
            f"{p.factor:>7.2f}{p.n_fault_events:>7d}{p.reward_rate:>10.1f}"
            f"{retained}{p.violation_minutes:>9.2f}{p.tasks_lost:>6d}"
            f"{p.tasks_requeued:>9d}{p.n_replans:>8d}"
            f"{p.mean_replan_s:>9.3f}")
    return "\n".join(lines)
