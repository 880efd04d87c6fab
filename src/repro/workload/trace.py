"""Task arrival traces (Section III.B) for the dynamic scheduler.

The first-step optimization only needs arrival *rates*; the second-step
dynamic scheduler consumes an actual stream of tasks.  We model each task
type as an independent Poisson process with the workload's rate, the
standard model consistent with the paper's steady-state analysis.

A trace is a :class:`Trace`: four numpy columns (arrival, type, uid,
deadline) in arrival order, so replaying or slicing it builds no
per-task objects.  Indexing or iterating it yields :class:`Task` rows.

For the live control service (:mod:`repro.serve`) this module also
provides *streaming* generation — :func:`stream_trace_ticks` yields one
:class:`TickDemand` per control tick — plus two profile combinators
(:class:`FlashCrowdProfile`, :class:`RegionalShiftProfile`) that wrap
any :class:`repro.workload.profiles.ArrivalProfile` with the demand
patterns the service is stress-tested against: sudden flash-crowd
bursts and slow regional demand shifts between task types.  The
combinators duck-type the profile protocol rather than import it, since
:mod:`repro.workload.profiles` already imports from here.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.obs.trace import span as obs_span
from repro.workload.tasktypes import Workload

__all__ = ["Task", "Trace", "generate_trace", "FlashCrowdProfile",
           "RegionalShiftProfile", "TickDemand", "stream_trace_ticks"]


@dataclass(frozen=True, order=True, slots=True)
class Task:
    """One task instance flowing through the data center.

    Ordered by arrival time so heaps/sorts work directly.

    Attributes
    ----------
    arrival:
        Arrival time, seconds.
    task_type:
        Index into the workload's task types.
    uid:
        Unique id (dense, per trace).
    deadline:
        ``arrival + m_i`` (Section III.B).
    """

    arrival: float
    task_type: int
    uid: int
    deadline: float


_COLUMNS = (("arrival", np.float64), ("task_type", np.int64),
            ("uid", np.int64), ("deadline", np.float64))


@dataclass(frozen=True, eq=False)
class Trace:
    """A task trace as four read-only columns, one row per task.

    The columns hold the :class:`Task` fields.  ``len``, ``int``
    indexing (a :class:`Task`), iteration (:class:`Task` rows) and
    slicing (a :class:`Trace` view sharing the columns) work as on a
    list of tasks.  Generated traces are in arrival order with dense
    uids; :meth:`from_tasks` keeps whatever order it is given.
    """

    arrival: np.ndarray
    task_type: np.ndarray
    uid: np.ndarray
    deadline: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shape = self.arrival.shape
        if len(shape) != 1 or any(getattr(self, name).shape != shape
                                  for name, _ in _COLUMNS):
            raise ValueError("trace columns must be 1-D and equally long")

    @classmethod
    def from_tasks(cls, tasks: Sequence[Task]) -> "Trace":
        """The columns of ``tasks``, in the given order."""
        return cls(*([getattr(t, name) for t in tasks]
                     for name, _ in _COLUMNS))

    def __len__(self) -> int:
        return self.arrival.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Trace(self.arrival[key], self.task_type[key],
                         self.uid[key], self.deadline[key])
        k = operator.index(key)
        return Task(float(self.arrival[k]), int(self.task_type[k]),
                    int(self.uid[k]), float(self.deadline[k]))

    def __iter__(self) -> Iterator[Task]:
        return map(Task, self.arrival.tolist(), self.task_type.tolist(),
                   self.uid.tolist(), self.deadline.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name, _ in _COLUMNS)

    def shifted(self, dt: float) -> "Trace":
        """The same tasks with arrivals and deadlines ``dt`` s earlier."""
        return Trace(self.arrival - dt, self.task_type, self.uid,
                     self.deadline - dt)


def as_trace(tasks: Trace | Sequence[Task]) -> Trace:
    """``tasks`` as a :class:`Trace` (converted once if it is a list)."""
    return tasks if isinstance(tasks, Trace) else Trace.from_tasks(tasks)


def merge_arrivals(per_type: list[tuple[int, np.ndarray]],
                   workload: Workload, first_uid: int = 0) -> Trace:
    """Merge per-type arrival times into one trace in arrival order.

    ``per_type`` lists ``(task type, arrival times)`` in ascending type
    order.  The stable sort over the type-major concatenation orders
    tasks by ``(arrival, type)``; uids count up from ``first_uid`` and
    deadlines add the workload's per-type slack.
    """
    times = np.concatenate([np.empty(0)] + [t for _, t in per_type])
    types = np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.full(t.size, i, dtype=np.int64) for i, t in per_type])
    order = np.argsort(times, kind="stable")
    times, types = times[order], types[order]
    slack = np.asarray(workload.deadline_slack, dtype=float)
    return Trace(times, types,
                 np.arange(first_uid, first_uid + times.size),
                 times + slack[types])


def thin_arrivals(profile, max_rates: np.ndarray, a: float, b: float,
                  rng: np.random.Generator
                  ) -> list[tuple[int, np.ndarray]]:
    """Per-type arrivals on ``[a, b)`` by Lewis-Shedler thinning.

    Type by type, candidates arrive at the profile's maximum rate, each
    with one uniform draw, in the scalar order the draws have always
    had; a candidate at ``t`` is kept when its draw is at most
    ``rates(t) / max_rate``, evaluated for all of a type's candidates in
    one :meth:`rates_at` call.  The candidates and their draws are kept
    in ``array("d")`` buffers, 8 bytes each instead of a float object
    and a list slot.
    """
    per_type: list[tuple[int, np.ndarray]] = []
    for i, rate_max in enumerate(max_rates):
        if rate_max <= 0:
            continue
        candidates = array("d")
        draws = array("d")
        t = a
        while True:
            t += rng.exponential(1.0 / rate_max)
            if t >= b:
                break
            candidates.append(t)
            draws.append(rng.uniform())
        if candidates:
            times = np.frombuffer(candidates)
            accept = profile.rates_at(times)[:, i] / rate_max
            per_type.append((i, times[np.frombuffer(draws) <= accept]))
    return per_type


def generate_trace(workload: Workload, duration: float,
                   rng: np.random.Generator) -> Trace:
    """Sample a merged Poisson arrival trace over ``[0, duration)``.

    Tasks of type *i* arrive with exponential inter-arrival times of mean
    ``1 / lambda_i``; the per-type streams are merged and re-numbered in
    arrival order.  Types with zero rate produce no tasks.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    with obs_span("trace", duration_s=duration):
        per_type: list[tuple[int, np.ndarray]] = []
        for i, rate in enumerate(workload.arrival_rates):
            if rate <= 0:
                continue
            # Expected count + 6 sigma headroom, then trim; resample the
            # rare shortfall instead of looping one-by-one in Python.
            n_expected = rate * duration
            n_draw = int(n_expected + 6.0 * np.sqrt(n_expected) + 10)
            while True:
                gaps = rng.exponential(1.0 / rate, size=n_draw)
                times = np.cumsum(gaps)
                if times[-1] >= duration:
                    break
                n_draw *= 2
            per_type.append((i, times[times < duration]))
        return merge_arrivals(per_type, workload)


@dataclass(frozen=True)
class FlashCrowdProfile:
    """Flash-crowd bursts multiplied onto an inner profile.

    Each burst is ``(start_s, duration_s, magnitude)``: every task
    type's rate is multiplied by ``magnitude`` on
    ``[start_s, start_s + duration_s)``.  Overlapping bursts compound.
    ``inner`` is any arrival profile
    (:class:`repro.workload.profiles.ArrivalProfile`).
    """

    inner: object
    bursts: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        for start, duration, magnitude in self.bursts:
            if duration <= 0:
                raise ValueError(
                    f"burst duration must be positive, got {duration}")
            if magnitude < 0:
                raise ValueError(
                    f"burst magnitude must be non-negative, got {magnitude}")
            if start < 0:
                raise ValueError(
                    f"burst start must be non-negative, got {start}")

    def _factor(self, t: float) -> float:
        factor = 1.0
        for start, duration, magnitude in self.bursts:
            if start <= t < start + duration:
                factor *= magnitude
        return factor

    def rates(self, t: float) -> np.ndarray:
        return np.asarray(self.inner.rates(t), dtype=float) \
            * self._factor(t)

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        factor = np.ones(times.shape)
        for start, duration, magnitude in self.bursts:
            factor = factor * np.where(
                (start <= times) & (times < start + duration), magnitude, 1.0)
        return np.asarray(self.inner.rates_at(times), dtype=float) \
            * factor[:, None]

    def max_rates(self) -> np.ndarray:
        # valid thinning bound: assume every amplifying burst overlaps
        bound = 1.0
        for _, _, magnitude in self.bursts:
            bound *= max(magnitude, 1.0)
        return np.asarray(self.inner.max_rates(), dtype=float) * bound


@dataclass(frozen=True)
class RegionalShiftProfile:
    """Slow demand shift *between* task types (regions) over a cycle.

    Each task type ``i`` is modulated by
    ``1 + amplitude * sin(2 pi t / period_s + 2 pi i / T)`` — the phase
    offset staggers the types around the cycle, so total demand is
    roughly conserved while its composition rotates (follow-the-sun
    regional load).  ``inner`` is any arrival profile.
    """

    inner: object
    amplitude: float = 0.3
    period_s: float = 3600.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.period_s <= 0:
            raise ValueError("period must be positive")

    def _factors(self, t: float, n: int) -> np.ndarray:
        phase = 2.0 * np.pi * np.arange(n) / max(n, 1)
        return 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * t / self.period_s + phase)

    def rates(self, t: float) -> np.ndarray:
        base = np.asarray(self.inner.rates(t), dtype=float)
        return base * self._factors(t, base.size)

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        base = np.asarray(self.inner.rates_at(times), dtype=float)
        return base * self._factors(times[:, None], base.shape[1])

    def max_rates(self) -> np.ndarray:
        return np.asarray(self.inner.max_rates(), dtype=float) \
            * (1.0 + self.amplitude)


@dataclass(frozen=True)
class TickDemand:
    """Demand presented to the control service during one tick.

    Attributes
    ----------
    index / start_s:
        Tick number and its start instant (run time, seconds).
    rates:
        The profile's arrival-rate vector at ``start_s`` — what the
        rolling-horizon replanner plans against.
    tasks:
        The tick's sampled arrivals (absolute arrival times), uids
        continuous across the whole stream.
    """

    index: int
    start_s: float
    rates: np.ndarray
    tasks: tuple[Task, ...]


def stream_trace_ticks(workload: Workload, profile: object, tick_s: float,
                       n_ticks: int, rng: np.random.Generator
                       ) -> Iterator[TickDemand]:
    """Yield one :class:`TickDemand` per control tick.

    Arrivals are sampled per tick by Lewis-Shedler thinning against the
    profile's global maximum rates; because Poisson increments over
    disjoint windows are independent, restarting the candidate stream at
    each tick boundary is still an exact simulation of the
    inhomogeneous process.  Task uids number the stream continuously.
    """
    if tick_s <= 0:
        raise ValueError(f"tick length must be positive, got {tick_s}")
    if n_ticks <= 0:
        raise ValueError(f"tick count must be positive, got {n_ticks}")
    max_rates = np.asarray(profile.max_rates(), dtype=float)
    if max_rates.shape != (workload.n_task_types,):
        raise ValueError("profile dimension does not match workload")
    uid = 0
    for index in range(n_ticks):
        a = index * tick_s
        tick = merge_arrivals(
            thin_arrivals(profile, max_rates, a, a + tick_s, rng),
            workload, first_uid=uid)
        uid += len(tick)
        yield TickDemand(index=index, start_s=a,
                         rates=np.asarray(profile.rates(a), dtype=float),
                         tasks=tuple(tick))
