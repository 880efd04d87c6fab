"""Tuple-sort trace generators, kept as the oracle for the columnar ones.

These are the list-of-:class:`Task` generators the columnar
:class:`~repro.workload.trace.Trace` generators replaced: per-type
draws merged by sorting ``(arrival, type)`` tuples, and thinning that
evaluates the profile's rates one candidate at a time.  The columnar
generators must reproduce them bit for bit from the same seed.
"""

from __future__ import annotations

import numpy as np

from repro.workload.trace import Task

__all__ = ["oracle_generate_trace", "oracle_nonstationary_trace",
           "oracle_stream_ticks"]


def _tasks(arrivals, slack, first_uid=0):
    arrivals.sort()
    return [Task(arrival=t, task_type=i, uid=first_uid + uid,
                 deadline=t + float(slack[i]))
            for uid, (t, i) in enumerate(arrivals)]


def oracle_generate_trace(workload, duration, rng):
    arrivals = []
    for i, rate in enumerate(workload.arrival_rates):
        if rate <= 0:
            continue
        n_expected = rate * duration
        n_draw = int(n_expected + 6.0 * np.sqrt(n_expected) + 10)
        while True:
            gaps = rng.exponential(1.0 / rate, size=n_draw)
            times = np.cumsum(gaps)
            if times[-1] >= duration:
                break
            n_draw *= 2
        times = times[times < duration]
        arrivals.extend((float(t), i) for t in times)
    return _tasks(arrivals, workload.deadline_slack)


def _thin(profile, a, b, rng):
    arrivals = []
    for i, rate_max in enumerate(np.asarray(profile.max_rates(),
                                            dtype=float)):
        if rate_max <= 0:
            continue
        t = a
        while True:
            t += rng.exponential(1.0 / rate_max)
            if t >= b:
                break
            if rng.uniform() <= profile.rates(t)[i] / rate_max:
                arrivals.append((t, i))
    return arrivals


def oracle_nonstationary_trace(workload, profile, duration, rng):
    return _tasks(_thin(profile, 0.0, duration, rng),
                  workload.deadline_slack)


def oracle_stream_ticks(workload, profile, tick_s, n_ticks, rng):
    """Each tick's tasks, uids continuous across ticks."""
    ticks, uid = [], 0
    for index in range(n_ticks):
        a = index * tick_s
        tasks = _tasks(_thin(profile, a, a + tick_s, rng),
                       workload.deadline_slack, uid)
        uid += len(tasks)
        ticks.append(tasks)
    return ticks
