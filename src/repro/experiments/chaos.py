"""Chaos sweep: reward and thermal exposure versus fault rate.

The experiment asks how gracefully the two-step scheme degrades: a room
is generated exactly as for ``repro simulate`` (same scenario, same
trace seed), then replayed under fault timelines of increasing intensity
(:func:`repro.faults.schedule.generate_fault_schedule` with rates scaled
by a *factor*).  Factor 0 is the healthy control — bit-identical to the
fault-free run — and every other factor is reported relative to it:

* **reward retained** — achieved reward rate / healthy reward rate;
* **redline-violation minutes** — transition time above any redline;
* **tasks lost / requeued** — explicit stranded-task accounting.

MTTR-to-replan is a measurement, not a result: each re-solve runs in a
``replan`` span, which ``repro profile`` reports.

Every point is a pure function of ``(ChaosConfig, factor)``, so the
sweep is one call of :func:`~repro.experiments.engine.sweep`: points
fan out over worker processes (workers recompute from the config, so
results are identical across ``--jobs``) and are cached per point under
a key derived from every config field.  A point holds no wall-clock
field, so two executions of one sweep are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.engine import DrawKey, SweepPoint, sweep
from repro.experiments.generator import Scenario, generate_scenario
from repro.faults.model import FaultSchedule
from repro.faults.policy import (ChaosRunResult, FaultAwareController,
                                 ReactionPolicy)
from repro.faults.schedule import (FaultRates, demo_rates,
                                   generate_fault_schedule)
from repro.workload.trace import Trace, generate_trace

__all__ = ["ChaosConfig", "ChaosPoint", "fault_schedule",
           "run_chaos_point", "run_chaos_scenario", "sweep_chaos",
           "chaos_table"]


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


@dataclass
class ChaosPoint(SweepPoint):
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
                   detail=result.to_dict())


@lru_cache(maxsize=1)
def _chaos_trace(key: DrawKey) -> Trace:
    """The trace, drawn once per process and config."""
    return generate_trace(key.workload, key.config.horizon_s,
                          np.random.default_rng(key.config.seed + 1))


def _chaos_inputs(config: ChaosConfig) -> tuple[Scenario, Trace]:
    """The exact room and trace ``repro simulate`` would use.

    The trace is shared by every factor; each run gets a room of its
    own, so no thermal-model cache carries over between runs.
    """
    scenario = generate_scenario(scaled_down(PAPER_SET_1, config.n_nodes),
                                 config.seed)
    return scenario, _chaos_trace(DrawKey(config, scenario.workload))


def fault_schedule(config, n_crac: int, factor: float) -> FaultSchedule:
    """The fault timeline of one rate factor (shared with the control sweep).

    ``config`` carries ``n_nodes``/``seed``/``horizon_s``/``rates``;
    ``rates=None`` derives :func:`~repro.faults.schedule.demo_rates`
    from the room.  Factor 0 is the empty schedule (the healthy
    control), not a zero-rate draw, so it consumes no random numbers.
    """
    if factor == 0:
        return FaultSchedule.empty()
    rates = config.rates if config.rates is not None \
        else demo_rates(config.horizon_s, config.n_nodes, n_crac)
    return generate_fault_schedule(
        config.n_nodes, n_crac, config.horizon_s, rates.scaled(factor),
        np.random.default_rng(config.seed + 2))


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
    process recomputing it returns the same simulated numbers.
    """
    if factor < 0:
        raise ValueError("rate factor must be >= 0")
    scenario, trace = _chaos_inputs(config)
    schedule = fault_schedule(config, scenario.datacenter.n_crac, factor)
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

    Points run through :func:`~repro.experiments.engine.sweep`, so
    ``--jobs`` and ``--resume`` behave exactly as in the other sweeps.
    Returned points are sorted by factor with ``reward_retained`` filled
    in relative to the control.
    """
    wanted = sorted(set(float(f) for f in factors) | {0.0})
    points = sweep("chaos", config, [{"factor": f} for f in wanted],
                   run_chaos_point, ChaosPoint, jobs=jobs,
                   cache_dir=cache_dir, resume=resume)
    baseline = points[0].reward_rate
    for point in points:
        point.reward_retained = (point.reward_rate / baseline
                                 if baseline > 0 else None)
    return points


def chaos_table(points: list[ChaosPoint]) -> str:
    """Fixed-width text table of a chaos sweep (CLI output)."""
    lines = [f"{'factor':>7}{'faults':>7}{'reward/s':>10}{'retained':>10}"
             f"{'viol min':>9}{'lost':>6}{'requeued':>9}{'replans':>8}"]
    for p in points:
        retained = ("     --- " if p.reward_retained is None
                    else f"{100 * p.reward_retained:8.1f}%")
        lines.append(
            f"{p.factor:>7.2f}{p.n_fault_events:>7d}{p.reward_rate:>10.1f}"
            f"{retained}{p.violation_minutes:>9.2f}{p.tasks_lost:>6d}"
            f"{p.tasks_requeued:>9d}{p.n_replans:>8d}")
    return "\n".join(lines)
