"""Discrete-event replay of a task trace through the dynamic scheduler.

This is the paper's second-step evaluation: tasks arrive, the
:class:`~repro.core.scheduler.DynamicScheduler` maps each to a core (or
drops it), cores execute their queues FIFO, and reward is collected for
every task finished by its deadline.  Because the scheduler only assigns
tasks it can finish in time, an assignment is a completion unless a
fault strands it.  Completions therefore carry no decision, and the
replay is one pass over the trace in (stable) arrival order, merged with
the few fault and recovery instants.

Fault injection (chaos-testing extension): the replay optionally
consumes :class:`CoreOutage` windows.  A FAULT instant kills a set of
cores — queued-but-unfinished work on them is *stranded*: its reward is
never collected, its recorded busy time is rolled back to the crash
instant, and each stranded task is either re-entered into the arrival
stream at the crash time (``requeue``) or discarded (``drop``), with
explicit per-type accounting either way.  A task finishing exactly at
the crash instant has completed.  A RECOVERY instant readmits the cores
with an empty queue.  At one instant, faults apply first (in outage-list
order), then recoveries, then the trace's arrivals, then the tasks
requeued at that instant: an arrival at a crash sees the core dead, and
one at a recovery may use it.  With no outages the replay is
bit-identical to the fault-free engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.scheduler import DynamicScheduler
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.simulate.metrics import SimulationMetrics
from repro.workload.tasktypes import Workload
from repro.workload.trace import Task, Trace, as_trace

__all__ = ["CoreOutage", "simulate_trace"]

#: Allowed dispositions for tasks stranded by a core outage.
STRANDED_POLICIES = ("requeue", "drop")


@dataclass(frozen=True)
class CoreOutage:
    """A window during which a set of cores cannot execute tasks.

    The DES-level shape of a node crash: the affected cores take no new
    tasks on ``[start_s, end_s)`` and any queued work is stranded at
    ``start_s``.  ``end_s = inf`` means no recovery within the run.
    Windows may overlap (cores are dead while covered by at least one).
    """

    start_s: float
    cores: tuple[int, ...]
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if not self.start_s >= 0.0:
            raise ValueError(f"outage start must be >= 0, got {self.start_s}")
        if not self.end_s > self.start_s:
            raise ValueError("outage must end after it starts")
        if not self.cores:
            raise ValueError("outage needs at least one core")


def simulate_trace(datacenter: DataCenter, workload: Workload,
                   tc: np.ndarray, pstates: np.ndarray,
                   trace: Trace | Sequence[Task], *,
                   duration: float | None = None,
                   collect_latency: bool = True,
                   faults: Sequence[CoreOutage] | None = None,
                   stranded_policy: str = "requeue") -> SimulationMetrics:
    """Replay ``trace`` and return :class:`SimulationMetrics`.

    Parameters
    ----------
    tc / pstates:
        Desired rates and P-states from a first-step assignment (either
        technique).
    trace:
        A :class:`~repro.workload.trace.Trace` in arrival order (as
        produced by :func:`repro.workload.trace.generate_trace`); a
        sequence of tasks is converted once.  An unsorted trace replays
        as its stable-sorted copy.
    duration:
        Horizon used for rate metrics; defaults to the latest arrival (or
        1s for an empty trace).  Completions beyond the horizon still
        execute — the horizon only normalizes rates.
    collect_latency:
        Record per-task response times (memory ~ one float per task);
        disable for very long runs that only need rates.
    faults:
        Optional :class:`CoreOutage` windows to inject.  ``None`` (or
        empty) reproduces the fault-free replay bit-identically.
    stranded_policy:
        ``"requeue"`` re-enters tasks stranded by an outage into the
        arrival stream at the crash instant (original deadline — they
        may still be dropped if no surviving core can make it);
        ``"drop"`` discards them.  Response times of requeued tasks are
        measured from the requeue instant.
    """
    trace = as_trace(trace)
    with obs_span("des_replay", n_tasks=len(trace),
                  faulted=bool(faults)):
        metrics = _simulate_trace(
            datacenter, workload, tc, pstates, trace, duration=duration,
            collect_latency=collect_latency, faults=faults,
            stranded_policy=stranded_policy)
    obs_metrics.counter("des.replays").inc()
    obs_metrics.counter("des.tasks_completed").inc(int(metrics.completed.sum()))
    obs_metrics.counter("des.tasks_dropped").inc(int(metrics.dropped.sum()))
    obs_metrics.counter("des.fault_events").inc(metrics.n_fault_events)
    if metrics.stranded_requeued is not None:
        obs_metrics.counter("des.stranded_requeued").inc(
            int(metrics.stranded_requeued.sum()))
    if metrics.stranded_dropped is not None:
        obs_metrics.counter("des.stranded_dropped").inc(
            int(metrics.stranded_dropped.sum()))
    return metrics


def _simulate_trace(datacenter: DataCenter, workload: Workload,
                    tc: np.ndarray, pstates: np.ndarray,
                    trace: Trace, *,
                    duration: float | None,
                    collect_latency: bool,
                    faults: Sequence[CoreOutage] | None,
                    stranded_policy: str) -> SimulationMetrics:
    if stranded_policy not in STRANDED_POLICIES:
        raise ValueError(f"stranded_policy must be one of "
                         f"{STRANDED_POLICIES}, got {stranded_policy!r}")
    valid = trace.arrival >= 0.0
    if not valid.all():
        raise ValueError(f"task arrival must be non-negative, "
                         f"got {trace.arrival[~valid][0]}")
    order = np.argsort(trace.arrival, kind="stable")
    arrivals = trace.arrival[order].tolist()
    task_types = trace.task_type[order].tolist()
    deadlines = trace.deadline[order].tolist()
    if duration is None:
        duration = arrivals[-1] if arrivals else 1.0
        duration = max(duration, 1e-9)
    scheduler = DynamicScheduler(datacenter, workload, tc, pstates)
    select_core = scheduler.select_core
    record_assignment = scheduler.record_assignment
    exec_time = scheduler.exec_time
    n_cores = datacenter.n_cores
    t_count = workload.n_task_types
    core_free = np.zeros(n_cores)
    busy = np.zeros(n_cores)
    busy_by_type = np.zeros((t_count, n_cores))
    latencies: list[list[float]] | None = \
        [[] for _ in range(t_count)] if collect_latency else None
    dropped = np.zeros(t_count, dtype=int)
    # one entry per assignment, in assignment order
    finishes: list[float] = []
    types: list[int] = []

    # fault-injection state -------------------------------------------
    have_faults = bool(faults)
    dead_count = np.zeros(n_cores, dtype=int)
    # per-core FIFO of queued work: (finish, assignment, task type,
    # deadline, start, latency slot); finish times grow along each FIFO
    queued: list[deque[tuple[float, int, int, float, float, int | None]]] \
        | None = [deque() for _ in range(n_cores)] if have_faults else None
    stranded: list[int] = []
    lat_removals: list[set[int]] | None = \
        [set() for _ in range(t_count)] if collect_latency else None
    stranded_requeued = np.zeros(t_count, dtype=int)
    stranded_dropped = np.zeros(t_count, dtype=int)
    # (time, 0 = fault / 1 = recovery, outage index, cores), in the order
    # the instants apply
    instants: list[tuple[float, int, int, tuple[int, ...]]] = []
    for k, outage in enumerate(faults or ()):
        cores = np.asarray(outage.cores, dtype=int)
        if np.any(cores < 0) or np.any(cores >= n_cores):
            raise ValueError(f"outage cores must be in 0..{n_cores - 1}")
        instants.append((float(outage.start_s), 0, k, tuple(cores)))
        if math.isfinite(outage.end_s):
            instants.append((float(outage.end_s), 1, k, tuple(cores)))
    instants.sort(key=lambda instant: instant[:3])

    def clip(t: float) -> float:
        return min(t, duration)

    def arrive(arrival: float, task_type: int, deadline: float) -> None:
        core = select_core(task_type, deadline, arrival, core_free)
        if core is None:
            dropped[task_type] += 1
            return
        record_assignment(task_type, core)
        start = max(arrival, core_free[core])
        finish = start + exec_time[task_type, core]
        if finish > deadline + 1e-9:
            raise AssertionError(
                "scheduler assigned a task it cannot finish in time")
        core_free[core] = finish
        # busy time is clipped to the measurement horizon so utilization
        # stays a fraction even when queues extend past it (long-deadline
        # types may legally finish after the last arrival)
        clipped = max(0.0, clip(finish) - clip(start))
        busy[core] += clipped
        busy_by_type[task_type, core] += clipped
        slot = None
        if latencies is not None:
            slot = len(latencies[task_type])
            latencies[task_type].append(finish - arrival)
        if queued is not None:
            queued[core].append((finish, len(finishes), task_type, deadline,
                                 start, slot))
        finishes.append(finish)
        types.append(task_type)

    # (task type, deadline) of stranded tasks awaiting their requeue
    requeued: list[tuple[int, float]] = []

    def crash(now: float, cores: tuple[int, ...]) -> None:
        newly_dead: list[int] = []
        for core in cores:
            dead_count[core] += 1
            if dead_count[core] == 1:
                newly_dead.append(core)
        if newly_dead:
            scheduler.mark_cores_dead(np.asarray(newly_dead))
        for core in newly_dead:
            fifo = queued[core]
            while fifo and fifo[0][0] <= now:   # finished by the crash
                fifo.popleft()
            for finish, rec, task_type, deadline, start, slot in fifo:
                stranded.append(rec)
                scheduler.forget_assignment(task_type, core)
                # roll back busy time the task will never execute:
                # it ran (at most) from its start until the crash
                lost = max(0.0, clip(finish) - clip(max(start, now)))
                busy[core] -= lost
                busy_by_type[task_type, core] -= lost
                if lat_removals is not None and slot is not None:
                    lat_removals[task_type].add(slot)
                if stranded_policy == "requeue":
                    stranded_requeued[task_type] += 1
                    requeued.append((task_type, deadline))
                else:
                    stranded_dropped[task_type] += 1
            fifo.clear()

    def recover(now: float, cores: tuple[int, ...]) -> None:
        newly_alive: list[int] = []
        for core in cores:
            dead_count[core] -= 1
            if dead_count[core] == 0:
                newly_alive.append(core)
        if newly_alive:
            scheduler.mark_cores_alive(np.asarray(newly_alive))
            # the queue was cleared at crash time; the core restarts idle
            core_free[np.asarray(newly_alive)] = now

    n_done = 0   # instants applied so far
    requeue_t = 0.0

    def advance(t: float) -> float:
        """Apply every instant due before a trace arrival at ``t``.

        Returns the earliest arrival time that needs the next call.
        """
        nonlocal n_done, requeue_t
        while True:
            pending = n_done < len(instants)
            next_t = instants[n_done][0] if pending else math.inf
            if requeued and requeue_t < min(t, next_t):
                # nothing else happens at the requeue instant
                for task_type, deadline in requeued:
                    arrive(requeue_t, task_type, deadline)
                requeued.clear()
            elif pending and next_t <= t:
                now, is_recovery, _, cores = instants[n_done]
                n_done += 1
                if is_recovery:
                    recover(now, cores)
                else:
                    crash(now, cores)
                    if requeued:
                        requeue_t = now
            else:
                return requeue_t if requeued else next_t

    barrier = instants[0][0] if instants else math.inf
    for arrival, task_type, deadline in zip(arrivals, task_types, deadlines):
        if arrival >= barrier:
            barrier = advance(arrival)
        arrive(arrival, task_type, deadline)
    advance(math.inf)

    type_idx = np.asarray(types, dtype=int)
    done = np.ones(type_idx.size, dtype=bool)
    done[stranded] = False
    completed = np.bincount(type_idx[done], minlength=t_count)
    # add rewards in (finish, assignment) order, one at a time, so the
    # float total does not depend on how the sum is vectorised
    order = np.argsort(np.asarray(finishes, dtype=float), kind="stable")
    order = order[done[order]]
    rewards = np.asarray(workload.rewards, dtype=float)[type_idx[order]]
    total_reward = 0.0
    for reward in rewards.tolist():
        total_reward += reward

    response_times = None
    if latencies is not None:
        response_times = []
        for i, samples in enumerate(latencies):
            if lat_removals is not None and lat_removals[i]:
                samples = [v for s, v in enumerate(samples)
                           if s not in lat_removals[i]]
            response_times.append(np.asarray(samples))

    return SimulationMetrics(
        duration=float(duration),
        total_reward=total_reward,
        completed=completed,
        dropped=dropped,
        atc=scheduler.assigned / float(duration),
        tc=np.asarray(tc, dtype=float),
        busy_time=busy,
        busy_by_type=busy_by_type,
        response_times=response_times,
        stranded_requeued=stranded_requeued if have_faults else None,
        stranded_dropped=stranded_dropped if have_faults else None,
        n_fault_events=len(instants),
    )
