"""Control sweep: predictive (MPC) versus reactive (interval) control.

The experiment isolates the value of *looking ahead*.  One room, one
flash-crowd arrival profile, one seeded fault timeline per intensity
factor — replayed twice per factor, once under the classic reactive
interval controller and once under the receding-horizon planner
(:mod:`repro.control.mpc`).  Both arms share every tolerance (``psi``,
derate loop, warm policy) and the same epoch grid, so the only
difference is the control law: the interval controller reacts to the
transition it is already in, the MPC plans against the forecast and
pre-cools (banks cold-air headroom at full compute) before it derates.

Reported per arm and factor:

* **reward rate** and **reward retained** relative to that arm's own
  fault-free (factor-0) control;
* **redline-violation minutes** over the transition trajectories;
* escalation counts — pre-cools, derates, shed intervals.

Points carry no wall-clock fields and no measured-time detail, so a
point is a *byte-identical* pure function of ``(config, arm)`` —
``--jobs 2`` must reproduce ``--jobs 1`` exactly (the CI ``mpc-smoke``
job diffs the JSON) and the small sweep is pinned as a golden baseline.
Caching and fan-out are the engine's :func:`~repro.experiments.engine.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.control.mpc import MPCConfig
from repro.experiments.chaos import fault_schedule
from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.engine import DrawKey, SweepPoint, sweep
from repro.experiments.generator import Scenario, generate_scenario
from repro.faults.policy import (ChaosRunResult, FaultAwareController,
                                 ReactionPolicy)
from repro.faults.schedule import FaultRates
from repro.workload.profiles import (ConstantProfile,
                                     generate_nonstationary_trace)
from repro.workload.trace import FlashCrowdProfile, Trace

__all__ = ["CONTROLLERS", "ControlConfig", "ControlPoint",
           "run_control_point", "sweep_control", "control_table"]

#: Controller arms of the sweep (CLI choices).
CONTROLLERS = ("interval", "mpc")


@dataclass(frozen=True)
class ControlConfig:
    """Everything that determines one control-sweep arm except
    ``(controller, factor)``.

    Attributes
    ----------
    n_nodes / seed / horizon_s:
        Room and power cap from
        ``generate_scenario(scaled_down(PAPER_SET_1, n_nodes), seed)``;
        the non-stationary trace draws from ``seed + 1`` and fault
        timelines from ``seed + 2`` (the ``repro chaos`` convention).
    epoch_s:
        Decision epoch of both arms — the interval controller replans
        on this grid too, so the arms see identical rate measurements.
    burst_start_s / burst_duration_s / burst_magnitude:
        The flash crowd multiplied onto the scenario's base rates.
    psi:
        ARR aggregation level of every solve (both arms).
    horizon_steps:
        MPC lookahead depth, in epochs.
    precool_step_c / max_precool:
        MPC pre-cool escalation.
    forecast:
        MPC forecast provider kind (:mod:`repro.control.forecast`).
    stranded:
        Stranded-task disposition at fault boundaries.
    rates:
        Factor-1.0 fault rates; ``None`` derives
        :func:`~repro.faults.schedule.demo_rates`.
    """

    n_nodes: int = 12
    seed: int = 1
    horizon_s: float = 360.0
    epoch_s: float = 60.0
    burst_start_s: float = 120.0
    burst_duration_s: float = 120.0
    burst_magnitude: float = 4.0
    psi: float = 50.0
    horizon_steps: int = 3
    precool_step_c: float = 1.0
    max_precool: int = 3
    forecast: str = "oracle"
    stranded: str = "requeue"
    rates: FaultRates | None = None

    def profile(self, base_rates: np.ndarray) -> FlashCrowdProfile:
        """The flash-crowd arrival profile over the scenario's rates."""
        return FlashCrowdProfile(
            ConstantProfile(np.asarray(base_rates, dtype=float)),
            bursts=((self.burst_start_s, self.burst_duration_s,
                     self.burst_magnitude),))

    def policy(self, controller: str) -> ReactionPolicy:
        """The reaction policy of one arm (shared knobs, one control law)."""
        if controller not in CONTROLLERS:
            raise ValueError(
                f"controller must be one of {CONTROLLERS}, "
                f"got {controller!r}")
        return ReactionPolicy(
            psi=self.psi, stranded=self.stranded, controller=controller,
            epoch_s=self.epoch_s, forecast=self.forecast,
            mpc=MPCConfig(
                horizon_steps=self.horizon_steps, step_s=self.epoch_s,
                psi=self.psi, precool_step_c=self.precool_step_c,
                max_precool=self.max_precool) if controller == "mpc"
            else None)


@dataclass
class ControlPoint(SweepPoint):
    """One ``(controller, factor)`` arm's summary.

    Deliberately carries **no wall-clock fields and no detail payload**:
    every field is a deterministic function of ``(config, arm)``, so the
    sweep's JSON is byte-identical across ``--jobs`` and golden-safe.
    ``reward_retained`` is filled by :func:`sweep_control` relative to
    the same controller's factor-0 run (``None`` when that run earned
    nothing).
    """

    controller: str
    factor: float
    n_fault_events: int
    reward_rate: float
    violation_minutes: float
    tasks_lost: int
    n_replans: int
    precools: int
    derates: int
    sheds: int
    reward_retained: float | None = None

    @classmethod
    def from_result(cls, controller: str, factor: float,
                    result: ChaosRunResult) -> "ControlPoint":
        return cls(controller=controller, factor=float(factor),
                   n_fault_events=len(result.schedule),
                   reward_rate=result.reward_rate,
                   violation_minutes=result.violation_minutes,
                   tasks_lost=result.tasks_lost,
                   n_replans=result.n_replans,
                   precools=result.precools,
                   derates=result.derates,
                   sheds=result.shed_intervals)


@lru_cache(maxsize=1)
def _control_demand(key: DrawKey) -> tuple[FlashCrowdProfile, Trace]:
    """The flash-crowd profile and trace, drawn once per process and
    config."""
    config, workload = key.config, key.workload
    profile = config.profile(workload.arrival_rates)
    trace = generate_nonstationary_trace(
        workload, profile, config.horizon_s,
        np.random.default_rng(config.seed + 1))
    return profile, trace


def _control_inputs(config: ControlConfig
                    ) -> tuple[Scenario, FlashCrowdProfile, Trace]:
    """Room, profile and non-stationary trace of one arm.

    The profile and trace are shared by every arm.  Each arm gets a room
    of its own: a shared room would carry its thermal model's cache of
    censored views from arm to arm and change the runs' metric counters.
    """
    scenario = generate_scenario(scaled_down(PAPER_SET_1, config.n_nodes),
                                 config.seed)
    return (scenario,
            *_control_demand(DrawKey(config, scenario.workload)))


def run_control_point(config: ControlConfig, controller: str,
                      factor: float) -> ControlPoint:
    """One arm: draw the factor's timeline, run, summarize.

    Byte-identically pure in ``(config, controller, factor)`` — no wall
    times survive into the point.  Fault timelines are drawn as in
    ``repro chaos`` (:func:`~repro.experiments.chaos.fault_schedule`).
    """
    if factor < 0:
        raise ValueError("rate factor must be >= 0")
    scenario, profile, trace = _control_inputs(config)
    schedule = fault_schedule(config, scenario.datacenter.n_crac, factor)
    loop = FaultAwareController(
        scenario.datacenter, scenario.workload, scenario.p_const,
        config.policy(controller))
    result = loop.run(trace, config.horizon_s, schedule, profile=profile)
    return ControlPoint.from_result(controller, factor, result)


def sweep_control(config: ControlConfig, factors: list[float],
                  controllers: tuple[str, ...] = CONTROLLERS, *,
                  jobs: int = 1, cache_dir: str | None = None,
                  resume: bool = False) -> list[ControlPoint]:
    """Sweep ``controllers x factors``; always includes each arm's
    factor-0 control.

    Points run through :func:`~repro.experiments.engine.sweep`, so
    ``--jobs`` / ``--resume`` behave exactly as in the other sweeps.
    Returned points are ordered controller-major, factor-minor, with
    ``reward_retained`` filled in against the same controller's
    factor-0 run.
    """
    for controller in controllers:
        if controller not in CONTROLLERS:
            raise ValueError(
                f"controller must be one of {CONTROLLERS}, "
                f"got {controller!r}")
    wanted = sorted(set(float(f) for f in factors) | {0.0})
    arms = [{"controller": c, "factor": f}
            for c in controllers for f in wanted]
    points = sweep("control", config, arms, run_control_point, ControlPoint,
                   jobs=jobs, cache_dir=cache_dir, resume=resume)
    baseline = {p.controller: p.reward_rate for p in points
                if p.factor == 0.0}
    for point in points:
        base = baseline[point.controller]
        point.reward_retained = (point.reward_rate / base
                                 if base > 0 else None)
    return points


def control_table(points: list[ControlPoint]) -> str:
    """Fixed-width text table of a control sweep (CLI output)."""
    lines = [f"{'ctrl':>9}{'factor':>7}{'faults':>7}{'reward/s':>10}"
             f"{'retained':>10}{'viol min':>9}{'lost':>6}{'precool':>8}"
             f"{'derate':>7}{'shed':>5}"]
    for p in points:
        retained = ("     --- " if p.reward_retained is None
                    else f"{100 * p.reward_retained:8.1f}%")
        lines.append(
            f"{p.controller:>9}{p.factor:>7.2f}{p.n_fault_events:>7d}"
            f"{p.reward_rate:>10.1f}{retained}"
            f"{p.violation_minutes:>9.2f}{p.tasks_lost:>6d}"
            f"{p.precools:>8d}{p.derates:>7d}{p.sheds:>5d}")
    return "\n".join(lines)
