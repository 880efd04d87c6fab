"""Event-heap DES replay, kept as the oracle for ``simulate_trace``.

Every arrival, completion, fault and recovery is an :class:`Event` on a
binary heap ordered by ``(time, kind, seq)``.  It is slow, but it states
the replay's semantics literally, so the engine's tests compare
:class:`~repro.simulate.metrics.SimulationMetrics` against it field by
field with ``==``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Any, Sequence

import numpy as np

from repro.core.scheduler import DynamicScheduler
from repro.datacenter.builder import DataCenter
from repro.simulate import CoreOutage, SimulationMetrics
from repro.workload.tasktypes import Workload
from repro.workload.trace import Task

__all__ = ["EventKind", "Event", "EventQueue", "heap_simulate_trace",
           "assert_same_metrics"]


class EventKind(IntEnum):
    """Kinds of simulation events.

    The integer values fix the pop order at identical timestamps, and
    each adjacency is deliberate:

    * ``COMPLETION`` first — a finishing core frees up (and its task
      counts as done) before anything else happens at that instant;
    * ``FAULT`` before ``RECOVERY`` — the two compose through per-core
      counters, so a fault starting exactly when another ends leaves the
      core dead either way, but the fixed order keeps replays
      deterministic;
    * ``ARRIVAL`` last — a task arriving at the instant of a fault sees
      the core already dead, and one arriving at a recovery instant may
      already use the recovered core.
    """

    COMPLETION = 0
    FAULT = 1
    RECOVERY = 2
    ARRIVAL = 3


@dataclass(order=True, frozen=True)
class Event:
    """One scheduled event.

    Sort key is ``(time, kind, seq)``; ``payload`` is excluded from
    ordering.
    """

    time: float
    kind: EventKind
    seq: int
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Heap-based future event list."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns it (useful for assertions)."""
        if not time >= 0.0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = Event(time=float(time), kind=kind, seq=next(self._counter),
                      payload=payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        """Timestamp of the earliest event."""
        if not self._heap:
            raise IndexError("peek on empty event queue")
        return self._heap[0].time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def heap_simulate_trace(datacenter: DataCenter, workload: Workload,
                        tc: np.ndarray, pstates: np.ndarray,
                        trace: list[Task], *,
                        duration: float | None = None,
                        collect_latency: bool = True,
                        faults: Sequence[CoreOutage] | None = None,
                        stranded_policy: str = "requeue",
                        completion_times: list[float] | None = None
                        ) -> SimulationMetrics:
    """The heap replay; ``completion_times`` (if given) collects the
    instant of every completion, in pop order."""
    if duration is None:
        duration = trace[-1].arrival if trace else 1.0
        duration = max(duration, 1e-9)
    scheduler = DynamicScheduler(datacenter, workload, tc, pstates)
    n_cores = datacenter.n_cores
    t_count = workload.n_task_types
    core_free = np.zeros(n_cores)
    busy = np.zeros(n_cores)
    busy_by_type = np.zeros((t_count, n_cores))
    latencies: list[list[float]] | None = \
        [[] for _ in range(t_count)] if collect_latency else None
    completed = np.zeros(t_count, dtype=int)
    dropped = np.zeros(t_count, dtype=int)
    total_reward = 0.0

    queue = EventQueue()
    for task in trace:
        queue.push(task.arrival, EventKind.ARRIVAL, task)

    # fault-injection state -------------------------------------------
    have_faults = bool(faults)
    dead_count = np.zeros(n_cores, dtype=int)
    # per-core queued work: rec_id -> (task, start, finish, latency slot)
    inflight: list[dict[int, tuple[Task, float, float, int | None]]] = \
        [{} for _ in range(n_cores)]
    cancelled: set[int] = set()
    lat_removals: list[set[int]] | None = \
        [set() for _ in range(t_count)] if collect_latency else None
    stranded_requeued = np.zeros(t_count, dtype=int)
    stranded_dropped = np.zeros(t_count, dtype=int)
    n_fault_events = 0
    next_rec = 0
    if have_faults:
        for outage in faults:
            cores = np.asarray(outage.cores, dtype=int)
            if np.any(cores < 0) or np.any(cores >= n_cores):
                raise ValueError(
                    f"outage cores must be in 0..{n_cores - 1}")
            queue.push(outage.start_s, EventKind.FAULT, tuple(cores))
            if math.isfinite(outage.end_s):
                queue.push(outage.end_s, EventKind.RECOVERY, tuple(cores))

    def clip(t: float) -> float:
        return min(t, duration)

    prev_time = 0.0
    while queue:
        event = queue.pop()
        if event.time < prev_time - 1e-9:
            raise AssertionError("event times went backwards")
        prev_time = event.time
        if event.kind is EventKind.COMPLETION:
            task_type, core, rec_id = event.payload
            if rec_id in cancelled:
                cancelled.discard(rec_id)
                continue
            del inflight[core][rec_id]
            if completion_times is not None:
                completion_times.append(event.time)
            completed[task_type] += 1
            total_reward += float(workload.rewards[task_type])
            continue
        if event.kind is EventKind.FAULT:
            n_fault_events += 1
            newly_dead: list[int] = []
            for core in event.payload:
                dead_count[core] += 1
                if dead_count[core] == 1:
                    newly_dead.append(core)
            if newly_dead:
                scheduler.mark_cores_dead(np.asarray(newly_dead))
            now = event.time
            for core in newly_dead:
                for rec_id, (task, start, finish, slot) \
                        in inflight[core].items():
                    cancelled.add(rec_id)
                    scheduler.forget_assignment(task.task_type, core)
                    # roll back busy time the task will never execute:
                    # it ran (at most) from its start until the crash
                    lost = max(0.0, clip(finish) - clip(max(start, now)))
                    busy[core] -= lost
                    busy_by_type[task.task_type, core] -= lost
                    if lat_removals is not None and slot is not None:
                        lat_removals[task.task_type].add(slot)
                    if stranded_policy == "requeue":
                        stranded_requeued[task.task_type] += 1
                        queue.push(now, EventKind.ARRIVAL,
                                   Task(arrival=now,
                                        task_type=task.task_type,
                                        uid=task.uid,
                                        deadline=task.deadline))
                    else:
                        stranded_dropped[task.task_type] += 1
                inflight[core].clear()
            continue
        if event.kind is EventKind.RECOVERY:
            n_fault_events += 1
            newly_alive: list[int] = []
            for core in event.payload:
                dead_count[core] -= 1
                if dead_count[core] == 0:
                    newly_alive.append(core)
            if newly_alive:
                scheduler.mark_cores_alive(np.asarray(newly_alive))
                # the queue was cleared at crash time; the core restarts idle
                core_free[np.asarray(newly_alive)] = event.time
            continue
        task: Task = event.payload
        core = scheduler.select_core(task.task_type, task.deadline,
                                     task.arrival, core_free)
        if core is None:
            dropped[task.task_type] += 1
            continue
        scheduler.record_assignment(task.task_type, core)
        start = max(task.arrival, core_free[core])
        exec_time = scheduler.exec_time[task.task_type, core]
        finish = start + exec_time
        if finish > task.deadline + 1e-9:
            raise AssertionError(
                "scheduler assigned a task it cannot finish in time")
        core_free[core] = finish
        # busy time is clipped to the measurement horizon so utilization
        # stays a fraction even when queues extend past it (long-deadline
        # types may legally finish after the last arrival)
        clipped = max(0.0, clip(finish) - clip(start))
        busy[core] += clipped
        busy_by_type[task.task_type, core] += clipped
        slot = None
        if latencies is not None:
            slot = len(latencies[task.task_type])
            latencies[task.task_type].append(finish - task.arrival)
        queue.push(finish, EventKind.COMPLETION,
                   (task.task_type, core, next_rec))
        inflight[core][next_rec] = (task, start, finish, slot)
        next_rec += 1

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
        n_fault_events=n_fault_events,
    )


def assert_same_metrics(got: SimulationMetrics,
                        want: SimulationMetrics) -> None:
    """Every :class:`SimulationMetrics` field equal, bit for bit."""
    for f in fields(SimulationMetrics):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        elif isinstance(b, list):
            assert isinstance(a, list) and len(a) == len(b), f.name
            for x, y in zip(a, b):
                assert x.dtype == y.dtype, f.name
                np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert a == b and type(a) is type(b), (f.name, a, b)
