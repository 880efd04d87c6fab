"""``simulate_trace`` against the event-heap oracle, field by field.

Random traces (some on a coarse time grid, so arrivals tie) replay
under random outage sets through both engines.  Outages may overlap,
never end, share a start, or start exactly at an arrival, at a task's
finish or at the horizon; every
:class:`~repro.simulate.metrics.SimulationMetrics` field must be equal
bit for bit, ``total_reward`` included.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulate import CoreOutage, simulate_trace
from repro.workload.trace import Task, Trace, generate_trace
from tests.simulate.heap_oracle import assert_same_metrics, heap_simulate_trace


def _trace(workload, horizon, seed, grid):
    trace = list(generate_trace(workload, horizon,
                                np.random.default_rng(seed)))
    if grid is None:
        return trace
    snapped = []
    for task in trace:
        t = round(task.arrival / grid) * grid
        snapped.append(Task(arrival=t, task_type=task.task_type,
                            uid=task.uid,
                            deadline=t + float(
                                workload.deadline_slack[task.task_type])))
    return snapped


def _outages(data, n_cores, trace, horizon, finishes):
    outages: list[CoreOutage] = []
    for _ in range(data.draw(st.integers(0, 4), label="n_outages")):
        where = data.draw(st.sampled_from(
            ["arrival", "finish", "horizon", "shared", "anywhere"]))
        if where == "arrival" and trace:
            start = trace[data.draw(st.integers(0, len(trace) - 1))].arrival
        elif where == "finish" and finishes:
            start = data.draw(st.sampled_from(finishes))
        elif where == "horizon":
            start = horizon
        elif where == "shared" and outages:
            start = data.draw(st.sampled_from(outages)).start_s
        else:
            start = data.draw(st.floats(0.0, horizon))
        length = data.draw(st.one_of(
            st.just(math.inf), st.floats(1e-3, horizon)), label="length")
        if data.draw(st.booleans(), label="all_cores"):
            cores = tuple(range(n_cores))
        else:
            cores = tuple(data.draw(st.lists(
                st.integers(0, n_cores - 1), min_size=1, max_size=12)))
        outages.append(CoreOutage(start_s=start, cores=cores,
                                  end_s=start + length))
    return outages


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_matches_heap_oracle(scenario, assignment, data):
    dc, wl = scenario.datacenter, scenario.workload
    horizon = data.draw(st.floats(0.2, 3.0), label="horizon")
    trace = _trace(wl, horizon, data.draw(st.integers(0, 2**16)),
                   data.draw(st.sampled_from([None, 0.05, 0.25])))
    # a fault-free replay's completion instants, so crashes can land
    # exactly on a finish
    finishes: list[float] = []
    heap_simulate_trace(dc, wl, assignment.tc, assignment.pstates, trace,
                        completion_times=finishes)
    kwargs = dict(
        duration=data.draw(st.sampled_from([None, horizon])),
        collect_latency=data.draw(st.booleans(), label="latency"),
        faults=_outages(data, dc.n_cores, trace, horizon, finishes),
        stranded_policy=data.draw(st.sampled_from(["requeue", "drop"])))
    # the engine takes the columnar trace or the list of tasks alike
    replayed = (Trace.from_tasks(trace)
                if data.draw(st.booleans(), label="columns") else trace)
    assert_same_metrics(
        simulate_trace(dc, wl, assignment.tc, assignment.pstates, replayed,
                       **kwargs),
        heap_simulate_trace(dc, wl, assignment.tc, assignment.pstates,
                            trace, **kwargs))
