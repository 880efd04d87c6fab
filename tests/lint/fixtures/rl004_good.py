"""RL004 good: simulated time from the trace, durations from
perf_counter (monotonic, never serialized as an absolute instant)."""

import time


def timed_step(sim_clock_s, fn):
    t0 = time.perf_counter()
    result = fn(sim_clock_s)
    return result, time.perf_counter() - t0
