"""The ledger's five workloads, each driving ``repro`` from outside.

Every workload calls public entry points of the package and wraps each
call in a :func:`repro.obs.span` named after the function, so a traced
run can attribute its wall time to layers (``layers.py``); the
program's own spans and counters nest under those spans.  With tracing
off the spans are shared no-ops.

A workload returns an :class:`Outcome`: how long each repetition of its
set-up took, the wall time and operation count of each timed call,
failure counts, the planned reward rate (the quality of the answer),
and a digest of every operation's deterministic output (compared across
traced and untraced runs).

Inputs come from ``seed`` alone and nothing is cached between runs:
each process generates its rooms from scratch and passes no engine
``cache_dir``.

What the planner is asked — rooms, arrival rates, power caps, fault
timelines — is fixed, so the reward rate it answers with is the same
for every seed and can be gated exactly.  ``seed`` draws what must not
change that answer: the order of the independent requests (fig6's
samples, plan's cap ladder, zonal's caps, control's controller arms)
and the tasks that arrive in each serve tick (serve plans from the
tick's rates and admits the tasks afterwards).  Rooms could not vary
anyway: across generator seeds 1-10 the comparison inside one 150-node
Figure 6 sample took 4.7 s to 15.1 s, a plan's mean cold solve 0.48 s
to 0.94 s, and a zonal plan on 3000-node rooms 2.3 s to 11.4 s, far
beyond any usable regression bound.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import numpy as np

from repro import obs
from repro.core.api import SolveRequest, solve
from repro.core.stage1_zonal import solve_stage1_zonal
from repro.core.stage2 import convert_power_to_pstates
from repro.core.stage3 import solve_stage3
from repro.datacenter import build_datacenter
from repro.datacenter.power import total_power
from repro.experiments.config import PAPER_SET_1, PAPER_SET_3, scaled_down
from repro.experiments.control import ControlConfig, sweep_control
from repro.experiments.generator import Scenario, generate_scenario
from repro.experiments.runner import run_comparison
from repro.serve import ServeConfig, serve_trace
from repro.thermal.sparse import attach_zonal_thermal
from repro.workload import (DiurnalProfile, FlashCrowdProfile,
                            RegionalShiftProfile, Task, TickDemand, Workload,
                            generate_workload)

__all__ = ["Outcome", "WORKLOADS", "strict"]

T = TypeVar("T")

#: Nodes of the rooms fig6, plan and serve run on.  The paper's rooms
#: have 150, but their interference LP alone takes 11-24 s on a 2-vCPU
#: machine, against 3 s at 100 nodes, and three workloads pay it in
#: every run.
PAPER_NODES = 100

#: Generator seed of the set-1 room plan and serve run on.
PAPER_ROOM_SEED = 1

#: fig6's samples: paper set and generator seed of each room.
FIG6_SAMPLES = ((PAPER_SET_1, 1), (PAPER_SET_3, 1))

#: Times each run repeats its workload's set-up; ``setup_s`` reports
#: the median.
SETUP_REPEATS = 3

#: Cap ladder of ``plan``, as fractions of ``Pmax - Pmin`` above ``Pmin``.
PLAN_CAPS = tuple(np.linspace(0.2, 1.0, 8))

#: Generator seed of zonal's 3000-node room (``bench_sparse.py``'s).
ZONAL_ROOM_SEED = 7

#: zonal's caps, as fractions of the way from all-off to all-P0 power.
ZONAL_CAPS = (0.4, 0.6)

#: CRAC outlets of the zonal plans, held fixed as in ``bench_sparse.py``.
ZONAL_OUTLET_C = 18.0

#: serve's control tick, s.
SERVE_TICK_S = 10.0

#: ``ControlConfig.seed`` of control's room, trace and fault timeline.
CONTROL_SEED = 1

#: Nodes in control's room (``ControlConfig``'s default).
CONTROL_NODES = 12

#: control's horizon and its flash crowd (start, duration), s: three
#: 60 s epochs, calm, burst, calm.
CONTROL_HORIZON_S = 180.0
CONTROL_BURST_S = (60.0, 60.0)

# independent random streams drawn from one --seed
_ORDER, _DEMAND = range(2)

#: A Stage 1 redline row binds when its slack is below this many °C.
BINDING_SLACK = 1e-6


def strict(value):
    """``value`` with every non-finite float replaced by ``None``.

    Artifacts are written with ``allow_nan=False``; ``None`` (JSON
    ``null``) stands for "no finite value", such as a profile root's
    ``min_s`` or a control point's undefined ``reward_retained``.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(v) for v in value]
    return value


def _digest(doc) -> str:
    text = json.dumps(strict(doc), sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one workload run measured and produced.

    ``setup_s`` holds the duration of each repetition of the set-up
    (empty when the workload has none).  ``op_s`` holds the wall time of
    each timed call, minus any time the workload excluded (serve's
    demand generation), and ``rates`` the operations per second of each
    call; ``ops`` counts the operations completed.  ``reward_rate`` is
    the planned reward rate of the answers, reward/s, the same for
    every seed.  ``outputs`` holds one digest per operation, in order,
    for the traced-vs-untraced comparison.
    """

    setup_s: list[float] = field(default_factory=list)
    first_op_at: float = 0.0
    op_s: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    reward_rate: float = 0.0
    outputs: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def set_up(self, build: Callable[[], T]) -> T:
        """Run ``build`` :data:`SETUP_REPEATS` times, timing each, and
        return the last result."""
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            result = build()
            self.setup_s.append(time.perf_counter() - t0)
        return result

    @contextmanager
    def timed(self, ops: int = 1) -> Iterator[list[float]]:
        """Time one call meant to complete ``ops`` operations; the
        caller may append seconds to exclude."""
        excluded: list[float] = []
        t0 = time.perf_counter()
        if not self.first_op_at:
            self.first_op_at = t0
        try:
            yield excluded
        finally:
            seconds = time.perf_counter() - t0 - sum(excluded)
            self.op_s.append(seconds)
            self.rates.append(ops / seconds)

    def another(self, seconds: float, unit_started: float) -> bool:
        """Whether to start another unit of work (a pass over the caps, a
        serve run) after the one that started at ``unit_started``.

        The run stops at the whole number of units that ends nearest to
        ``seconds`` after the first timed call, rather than always
        overshooting by up to one unit.
        """
        now = time.perf_counter()
        return now - self.first_op_at + (now - unit_started) / 2 < seconds

    def fail(self, what: str, exc: Exception) -> None:
        """Record an operation that raised; the run goes on."""
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        traceback.print_exc()


def _paper_scenario(n_nodes: int) -> Scenario:
    """The shared paper room, set 1, with its generator's arrival rates."""
    with obs.span("generate_scenario"):
        return generate_scenario(scaled_down(PAPER_SET_1, n_nodes),
                                 PAPER_ROOM_SEED)


def _mean_by_key(values: dict) -> float:
    """Mean of ``values`` summed in key order, so that the order the
    seed gave the requests cannot change its last bits."""
    return float(np.mean([values[k] for k in sorted(values)]))


# ----------------------------------------------------------------------
def fig6(seed: int, seconds: float, *, n_nodes: int = PAPER_NODES
         ) -> Outcome:
    """Figure 6 samples: for each room of :data:`FIG6_SAMPLES`, in an
    order drawn from ``seed``, generate it and compare the three-stage
    technique against the P0-or-off baseline.

    Every sample builds a distinct room, so memoizing rooms cannot move
    this workload.  Two samples outlast a run's ``seconds``, so the run
    measures exactly two.  The reward rate is the mean best-of-ψ one.
    """
    out = Outcome()
    order = np.random.default_rng([seed, _ORDER])
    rewards: dict[int, float] = {}
    improvements: dict[int, float] = {}
    baselines: dict[int, float] = {}
    for k in order.permutation(len(FIG6_SAMPLES)).tolist():
        config, room_seed = FIG6_SAMPLES[k]
        out.attempted += 1
        with out.timed():
            try:
                with obs.span("generate_scenario"):
                    scenario = generate_scenario(
                        scaled_down(config, n_nodes), room_seed)
                with obs.span("run_comparison"):
                    result = run_comparison(scenario)
            except Exception as exc:  # the benchmark reports, then exits
                out.fail(f"sample {config.name}", exc)
                continue
        with obs.span("check"):
            out.ops += 1
            if result.is_degenerate:
                out.errors.append(f"sample {config.name}: baseline earned "
                                  "zero reward (degenerate)")
            else:
                improvements[k] = result.improvement_pct()
            rewards[k] = result.best_reward
            baselines[k] = result.baseline_reward
            out.outputs.append(_digest(result.to_dict()))
    if rewards:
        out.reward_rate = _mean_by_key(rewards)
    out.notes.update(
        improvement_pct=[improvements.get(k) for k in sorted(rewards)],
        baseline_reward_rate=[baselines[k] for k in sorted(baselines)])
    return out


def _binding_redlines(result) -> int:
    """Redline rows with slack below :data:`BINDING_SLACK` at the
    Stage 1 optimum of a three-stage result."""
    stage1 = result.stage1
    lin = stage1.linearization
    slack = lin.redline_rhs - lin.inlet_gain @ stage1.node_power_kw
    return int(np.count_nonzero(slack < BINDING_SLACK))


def plan(seed: int, seconds: float, *, n_nodes: int = PAPER_NODES
         ) -> Outcome:
    """Cold three-stage solves up a power-cap ladder, each verified.

    The timed part repeats whole passes over the ladder, each in an
    order drawn from ``seed``, until ``seconds`` have passed.  Set-up
    generates the room and runs one warm-up solve at the cap the first
    pass solves last.  The solves are cold, so a cap must get the same
    plan, bit for bit, every time it is solved: after seven other caps
    as after none.  The reward rate is the mean over the ladder.
    """
    out = Outcome()
    order = np.random.default_rng([seed, _ORDER])
    ladder = order.permutation(len(PLAN_CAPS)).tolist()

    def set_up():
        scenario = _paper_scenario(n_nodes)
        bounds = scenario.bounds
        caps = [float(bounds.p_min + f * (bounds.p_max - bounds.p_min))
                for f in PLAN_CAPS]
        with obs.span("solve"):
            warm_up = solve(SolveRequest(scenario.datacenter,
                                         scenario.workload, caps[ladder[-1]]))
        return scenario, caps, warm_up

    scenario, caps, warm_up = out.set_up(set_up)
    dc, wl = scenario.datacenter, scenario.workload
    with obs.span("check"):
        plans: dict[int, str] = {ladder[-1]: _digest(warm_up.to_dict())}
    binding: dict[int, int] = {}
    rewards: dict[int, float] = {}
    passes = 0
    while True:
        pass_started = time.perf_counter()
        if passes:
            ladder = order.permutation(len(caps)).tolist()
        for rung in ladder:
            cap = caps[rung]
            out.attempted += 1
            with out.timed():
                try:
                    with obs.span("solve"):
                        result = solve(SolveRequest(dc, wl, cap))
                    with obs.span("verify"):
                        result.verify(dc, cap)
                except Exception as exc:  # counted as a failed solve
                    out.fail(f"pass {passes} rung {rung}", exc)
                    continue
            with obs.span("check"):
                out.ops += 1
                digest = _digest(result.to_dict())
                out.outputs.append(digest)
                if plans.setdefault(rung, digest) != digest:
                    out.errors.append(
                        f"pass {passes} rung {rung}: plan differs from "
                        "the cap's earlier plan")
                if rung not in rewards:
                    binding[rung] = _binding_redlines(result)
                    rewards[rung] = float(result.reward_rate)
        passes += 1
        if not out.another(seconds, pass_started):
            break
    if rewards:
        out.reward_rate = _mean_by_key(rewards)
    out.notes.update(
        passes=passes, caps_kw=caps,
        binding_redline_rows=[binding[k] for k in sorted(binding)],
        redline_bound_share=(sum(1 for b in binding.values() if b)
                             / len(binding) if binding else 0.0),
        solve_p50_s=float(np.median(out.op_s)),
        solve_p75_s=float(np.percentile(out.op_s, 75)))
    return out


def _zonal_plan(dc, wl: Workload, cap: float, t_fix: np.ndarray):
    with obs.span("solve_stage1_zonal"):
        stage1, _ = solve_stage1_zonal(dc, wl, p_const=cap, t_crac_out=t_fix,
                                       max_sweeps=2)
    with obs.span("convert_power_to_pstates"):
        stage2 = convert_power_to_pstates(dc, stage1.core_power_kw,
                                          stage1.node_power_kw)
    with obs.span("solve_stage3"):
        stage3 = solve_stage3(dc, wl, stage2.pstates)
    return stage1, stage2, stage3


def _zonal_op(out: Outcome, fraction: float, n_nodes: int, n_crac: int
              ) -> dict | None:
    """Build a fresh room and plan it cold at cap ``fraction``; the
    plan's output document, or ``None`` if it raised.  The room dies
    with this call, so consecutive plans never hold two rooms."""
    t_fix = np.full(n_crac, ZONAL_OUTLET_C)
    rng = np.random.default_rng(ZONAL_ROOM_SEED)
    with obs.span("build_datacenter"):
        dc = build_datacenter(n_nodes=n_nodes, n_crac=n_crac, rng=rng)
    with obs.span("attach_zonal_thermal"):
        attach_zonal_thermal(dc)
    with obs.span("generate_workload"):
        wl = generate_workload(dc, rng)
    with obs.span("total_power"):
        p_off = total_power(
            dc, t_fix, dc.node_power_kw(dc.all_off_pstates())).total
        p_full = total_power(
            dc, t_fix, dc.node_power_kw(dc.all_p0_pstates())).total
    cap = p_off + fraction * (p_full - p_off)
    out.attempted += 1
    with out.timed():
        try:
            stage1, stage2, stage3 = _zonal_plan(dc, wl, cap, t_fix)
        except Exception as exc:  # counted as a failed plan
            out.fail(f"cap fraction {fraction}", exc)
            return None
    return {"objective": stage1.objective, "sweeps": stage1.sweeps,
            "repair_scale": stage1.repair_scale,
            "pstates": stage2.pstates.tolist(),
            "reward_rate": stage3.reward_rate}


def zonal(seed: int, seconds: float, *, n_nodes: int = 3000,
          n_crac: int = 60) -> Outcome:
    """Cold zonal plans (Stage 1 zonal -> Stage 2 -> Stage 3) on a
    3000-node sparse-model room, one per cap of :data:`ZONAL_CAPS` in an
    order drawn from ``seed``, in whole passes until ``seconds`` have
    passed.

    Each plan gets a freshly built room, so no model cache carries over.
    Outlets are fixed at :data:`ZONAL_OUTLET_C`, as in
    ``bench_sparse.py``.  Every plan must be feasible for the full
    model without repair (``repair_scale == 1``) and equal the first
    plan at its cap.  The reward rate is the mean over the caps.
    """
    out = Outcome()
    order = np.random.default_rng([seed, _ORDER])
    plans: dict[int, str] = {}
    rewards: dict[int, float] = {}
    passes = 0
    while True:
        pass_started = time.perf_counter()
        for rung in order.permutation(len(ZONAL_CAPS)).tolist():
            fraction = ZONAL_CAPS[rung]
            doc = _zonal_op(out, fraction, n_nodes, n_crac)
            if doc is None:
                continue
            with obs.span("check"):
                out.ops += 1
                if doc["repair_scale"] != 1.0:
                    out.errors.append(
                        f"cap fraction {fraction}: zonal plan needed "
                        f"repair (repair_scale {doc['repair_scale']})")
                digest = _digest(doc)
                out.outputs.append(digest)
                if rung not in plans:
                    plans[rung] = digest
                    rewards[rung] = float(doc["reward_rate"])
                elif digest != plans[rung]:
                    out.errors.append(
                        f"pass {passes} cap fraction {fraction}: plan "
                        "differs from the cap's first plan")
        passes += 1
        if not out.another(seconds, pass_started):
            break
    if rewards:
        out.reward_rate = _mean_by_key(rewards)
    out.notes.update(passes=passes, plan_p50_s=float(np.median(out.op_s)))
    return out


def composite_profile(base_rates: np.ndarray, horizon_s: float):
    """``repro serve``'s composite trace: diurnal swing 0.4, a regional
    shift of 0.3 over half the horizon, and a x4 flash crowd on
    ``[h/3, h/2)``."""
    diurnal = DiurnalProfile(base_rates=base_rates, amplitude=0.4,
                             period_s=horizon_s)
    shifted = RegionalShiftProfile(diurnal, amplitude=0.3,
                                   period_s=horizon_s / 2.0)
    return FlashCrowdProfile(shifted,
                             bursts=((horizon_s / 3.0, horizon_s / 6.0, 4.0),))


class TickSource:
    """Tick demand for :func:`serve_trace`, timed as it is generated.

    Each tick draws per-type Poisson counts at the profile's rates at
    the tick start and sorted uniform arrival times inside the tick.
    ``stream_trace_ticks`` thins candidates one at a time in Python and
    cannot feed a paper-sized room in reasonable time; this source is
    vectorized.  ``gen_s`` accumulates generation time so the caller can
    subtract it from the service's wall time.
    """

    def __init__(self, workload: Workload, profile, tick_s: float,
                 n_ticks: int, rng: np.random.Generator):
        self.workload = workload
        self.profile = profile
        self.tick_s = tick_s
        self.n_ticks = n_ticks
        self.rng = rng
        self.gen_s = 0.0

    def __iter__(self) -> Iterator[TickDemand]:
        slack = self.workload.deadline_slack
        uid = 0
        for index in range(self.n_ticks):
            t0 = time.perf_counter()
            with obs.span("demand"):
                start = index * self.tick_s
                rates = np.asarray(self.profile.rates(start), dtype=float)
                counts = self.rng.poisson(rates * self.tick_s)
                types = np.repeat(np.arange(rates.size), counts)
                times = self.rng.uniform(start, start + self.tick_s,
                                         size=types.size)
                order = np.argsort(times, kind="stable")
                times, types = times[order], types[order]
                deadlines = times + slack[types]
                # positional: Task(arrival, task_type, uid, deadline)
                tasks = tuple(map(Task, times.tolist(), types.tolist(),
                                  range(uid, uid + types.size),
                                  deadlines.tolist()))
                uid += len(tasks)
                demand = TickDemand(index=index, start_s=start, rates=rates,
                                    tasks=tasks)
            self.gen_s += time.perf_counter() - t0
            yield demand


def serve(seed: int, seconds: float, *, n_nodes: int = PAPER_NODES,
          ticks: int = 30) -> Outcome:
    """Rolling-horizon serving: :func:`serve_trace` runs of ``ticks``
    ticks over the composite profile, repeated with fresh demand until
    ``seconds`` have passed.

    Set-up generates the room.  Each run replans its first tick cold
    and the rest warm (arrival rates change, so Stage 1 replays).
    ``seed`` draws the tasks that arrive; the service plans each tick
    from the profile's rates before it admits them, so every run must
    plan the same reward rates.  The reward rate is the run's mean over
    its ticks.  Demand generation is excluded from the timed work.
    """
    out = Outcome()
    scenario = out.set_up(lambda: _paper_scenario(n_nodes))
    wl = scenario.workload
    profile = composite_profile(wl.arrival_rates, ticks * SERVE_TICK_S)
    config = ServeConfig(tick_s=SERVE_TICK_S)
    planned: list[float] | None = None
    totals = {"arrived": 0, "shed": 0}
    run = 0
    while True:
        run_started = time.perf_counter()
        source = TickSource(wl, profile, SERVE_TICK_S, ticks,
                            np.random.default_rng([seed, _DEMAND, run]))
        out.attempted += ticks
        result = None
        with out.timed(ticks) as excluded:
            try:
                with obs.span("serve_trace"):
                    result = serve_trace(scenario.datacenter, wl,
                                         scenario.p_const, source, config)
            except Exception as exc:  # every tick of the run failed
                out.failed += ticks - 1
                out.fail(f"run {run}", exc)
            excluded.append(source.gen_s)
        if result is not None:
            with obs.span("check"):
                if result.n_ticks != ticks:
                    out.errors.append(
                        f"run {run}: {result.n_ticks} of {ticks} ticks")
                out.ops += result.n_ticks
                rates = [t.reward_rate for t in result.ticks]
                if planned is None:
                    planned = rates
                    out.reward_rate = (result.total_reward
                                       / (result.n_ticks * SERVE_TICK_S))
                elif rates != planned:
                    out.errors.append(
                        f"run {run}: planned reward rates differ from "
                        "run 0's")
                totals["arrived"] += result.tasks_arrived
                totals["shed"] += result.tasks_shed
                out.outputs.append(_digest(result.to_dict()))
        run += 1
        if not out.another(seconds, run_started):
            break
    out.notes.update(runs=run, tasks_arrived=totals["arrived"],
                     tasks_shed=totals["shed"])
    return out


def control(seed: int, seconds: float, *,
            horizon_s: float = CONTROL_HORIZON_S,
            factors: tuple[float, ...] = (1.0,),
            controllers: tuple[str, ...] = ("interval", "mpc")) -> Outcome:
    """One control sweep: interval and MPC control at fault-rate factors
    0 and 1 on a flash-crowd trace, replayed through the DES.

    Room, trace draws and fault timeline come from the fixed
    :data:`CONTROL_SEED`; ``seed`` draws the order of the controllers,
    whose arms must not depend on it.  The sweep outlasts a run's
    ``seconds``, so the run measures exactly one; throughput counts
    arms.  The reward rate is the mean over the arms.
    """
    out = Outcome()
    rng = np.random.default_rng([seed, _ORDER])
    controllers = tuple(controllers[i]
                        for i in rng.permutation(len(controllers)))
    burst_start_s, burst_duration_s = CONTROL_BURST_S
    config = ControlConfig(n_nodes=CONTROL_NODES, seed=CONTROL_SEED,
                           horizon_s=horizon_s, burst_start_s=burst_start_s,
                           burst_duration_s=burst_duration_s)
    arms = len(controllers) * len(set(factors) | {0.0})
    out.attempted = arms
    with out.timed(arms):
        try:
            with obs.span("sweep_control"):
                points = sweep_control(config, list(factors), controllers,
                                       jobs=1, cache_dir=None)
        except Exception as exc:  # every arm of the sweep failed
            out.failed = arms - 1
            out.fail("sweep", exc)
            return out
    with obs.span("check"):
        out.ops = len(points)
        by_arm = {(p.controller, p.factor): p for p in points}
        docs = [by_arm[arm].to_dict() for arm in sorted(by_arm)]
        out.outputs.extend(_digest(doc) for doc in docs)
        out.reward_rate = _mean_by_key(
            {arm: p.reward_rate for arm, p in by_arm.items()})
        out.notes.update(
            violation_minutes=sum(doc["violation_minutes"] for doc in docs),
            tasks_lost=sum(doc["tasks_lost"] for doc in docs),
            points=strict(docs))
    return out


#: Workload name -> function ``(seed, seconds, **sizes) -> Outcome``.
WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "fig6": fig6, "plan": plan, "zonal": zonal, "serve": serve,
    "control": control,
}
