"""Tests for repro.simulate.engine — DES replay of the second step."""

import math

import numpy as np
import pytest

from repro.core.scheduler import DynamicScheduler
from repro.simulate import CoreOutage
from repro.simulate.engine import simulate_trace
from repro.workload.trace import Task, Trace, generate_trace
from tests.simulate.heap_oracle import assert_same_metrics


@pytest.fixture(scope="module")
def des_run(scenario, assignment):
    rng = np.random.default_rng(99)
    trace = generate_trace(scenario.workload, 20.0, rng)
    metrics = simulate_trace(scenario.datacenter, scenario.workload,
                             assignment.tc, assignment.pstates, trace,
                             duration=20.0)
    return trace, metrics


class TestAccounting:
    def test_every_task_completed_or_dropped(self, des_run):
        trace, metrics = des_run
        assert metrics.completed.sum() + metrics.dropped.sum() == len(trace)

    def test_reward_matches_completions(self, scenario, des_run):
        _, metrics = des_run
        expect = float(scenario.workload.rewards @ metrics.completed)
        assert metrics.total_reward == pytest.approx(expect)

    def test_atc_matches_counts(self, des_run):
        trace, metrics = des_run
        assert metrics.atc.sum() * metrics.duration == pytest.approx(
            metrics.completed.sum())

    def test_utilization_bounded(self, des_run):
        _, metrics = des_run
        u = metrics.utilization
        assert np.all(u >= 0.0)
        assert np.all(u <= 1.0 + 1e-9)

    def test_achieved_close_to_plan(self, scenario, assignment, des_run):
        """The DES should realize a large share of the fluid plan."""
        _, metrics = des_run
        assert metrics.reward_rate >= 0.7 * assignment.reward_rate

    def test_achieved_not_above_plan_much(self, scenario, assignment,
                                          des_run):
        """ATC/TC <= 1 caps the scheduler near the plan (Poisson noise
        allows a small overshoot)."""
        _, metrics = des_run
        assert metrics.reward_rate <= 1.2 * assignment.reward_rate

    def test_drop_fraction_shape(self, scenario, des_run):
        _, metrics = des_run
        df = metrics.drop_fraction
        assert df.shape == (scenario.workload.n_task_types,)
        assert np.all((df >= 0) & (df <= 1))

    def test_unplanned_types_fully_dropped(self, scenario, assignment,
                                           des_run):
        """Types with zero planned rate must be entirely dropped."""
        _, metrics = des_run
        planned = assignment.tc.sum(axis=1)
        arrived = metrics.completed + metrics.dropped
        for i in np.nonzero(planned == 0)[0]:
            if arrived[i] > 0:
                assert metrics.dropped[i] == arrived[i]


class TestDeterminismAndEdges:
    def test_empty_trace(self, scenario, assignment):
        m = simulate_trace(scenario.datacenter, scenario.workload,
                           assignment.tc, assignment.pstates, [],
                           duration=5.0)
        assert m.total_reward == 0.0
        assert m.completed.sum() == 0

    def test_deterministic(self, scenario, assignment):
        rng = np.random.default_rng(5)
        trace = generate_trace(scenario.workload, 5.0, rng)
        m1 = simulate_trace(scenario.datacenter, scenario.workload,
                            assignment.tc, assignment.pstates, trace)
        m2 = simulate_trace(scenario.datacenter, scenario.workload,
                            assignment.tc, assignment.pstates, trace)
        assert m1.total_reward == m2.total_reward
        np.testing.assert_array_equal(m1.completed, m2.completed)

    def test_single_task_completes(self, scenario, assignment):
        wl = scenario.workload
        # pick a type the plan serves
        i = int(np.argmax(assignment.tc.sum(axis=1)))
        task = Task(arrival=0.0, task_type=i, uid=0,
                    deadline=float(wl.deadline_slack[i]))
        m = simulate_trace(scenario.datacenter, wl, assignment.tc,
                           assignment.pstates, [task], duration=1.0)
        assert m.completed[i] == 1
        assert m.total_reward == pytest.approx(float(wl.rewards[i]))

    def test_all_off_drops_everything(self, scenario):
        dc, wl = scenario.datacenter, scenario.workload
        off = np.asarray([dc.node_types[t].off_pstate
                          for t in dc.core_type])
        tc = np.zeros((wl.n_task_types, dc.n_cores))
        trace = generate_trace(wl, 2.0, np.random.default_rng(1))
        m = simulate_trace(dc, wl, tc, off, trace, duration=2.0)
        assert m.completed.sum() == 0
        assert m.dropped.sum() == len(trace)


class TestFaultInjection:
    """Core-outage windows: stranding, accounting and identity."""

    def _run(self, scenario, assignment, faults=None, policy="requeue"):
        rng = np.random.default_rng(99)
        trace = generate_trace(scenario.workload, 20.0, rng)
        metrics = simulate_trace(scenario.datacenter, scenario.workload,
                                 assignment.tc, assignment.pstates, trace,
                                 duration=20.0, faults=faults,
                                 stranded_policy=policy)
        return trace, metrics

    def test_no_faults_bit_identical(self, scenario, assignment, des_run):
        """faults=None and faults=[] both reproduce the plain replay."""
        _, plain = des_run
        _, empty = self._run(scenario, assignment, faults=[])
        assert empty.total_reward == plain.total_reward
        np.testing.assert_array_equal(empty.completed, plain.completed)
        np.testing.assert_array_equal(empty.busy_time, plain.busy_time)
        for a, b in zip(empty.response_times, plain.response_times):
            np.testing.assert_array_equal(a, b)
        assert empty.n_fault_events == 0
        assert empty.stranded_requeued is None

    def test_outage_strands_and_accounts(self, scenario, assignment):
        all_cores = tuple(range(scenario.datacenter.n_cores))
        outage = CoreOutage(start_s=10.0, cores=all_cores, end_s=15.0)
        trace, metrics = self._run(scenario, assignment, faults=[outage])
        assert metrics.n_fault_events == 2  # FAULT + RECOVERY
        assert metrics.stranded_requeued is not None
        assert metrics.stranded_requeued.sum() > 0
        # every arrival is still accounted for exactly once
        assert metrics.completed.sum() + metrics.dropped.sum() == len(trace)

    def test_drop_policy_loses_stranded(self, scenario, assignment):
        all_cores = tuple(range(scenario.datacenter.n_cores))
        outage = CoreOutage(start_s=10.0, cores=all_cores, end_s=15.0)
        _, requeue = self._run(scenario, assignment, faults=[outage])
        _, drop = self._run(scenario, assignment, faults=[outage],
                            policy="drop")
        assert drop.stranded_dropped.sum() == requeue.stranded_requeued.sum()
        assert drop.total_reward <= requeue.total_reward

    def test_busy_time_rolled_back(self, scenario, assignment):
        """Stranded work's busy time is removed, so utilization stays
        a valid fraction."""
        all_cores = tuple(range(scenario.datacenter.n_cores))
        outage = CoreOutage(start_s=5.0, cores=all_cores, end_s=18.0)
        _, metrics = self._run(scenario, assignment, faults=[outage],
                               policy="drop")
        u = metrics.utilization
        assert np.all(u >= -1e-9)
        assert np.all(u <= 1.0 + 1e-9)

    def test_dead_cores_take_no_tasks(self, scenario, assignment):
        """With every core dead from t=0, nothing completes."""
        all_cores = tuple(range(scenario.datacenter.n_cores))
        outage = CoreOutage(start_s=0.0, cores=all_cores)
        _, metrics = self._run(scenario, assignment, faults=[outage],
                               policy="drop")
        assert metrics.completed.sum() == 0
        assert metrics.total_reward == 0.0

    def test_invalid_policy_and_cores_rejected(self, scenario, assignment):
        with pytest.raises(ValueError, match="stranded_policy"):
            self._run(scenario, assignment, policy="bogus")
        bad = CoreOutage(start_s=0.0,
                         cores=(scenario.datacenter.n_cores,))
        with pytest.raises(ValueError, match="cores"):
            self._run(scenario, assignment, faults=[bad])


class TestCoreOutage:
    def test_fields_and_defaults(self):
        outage = CoreOutage(start_s=3.0, cores=(0, 2))
        assert math.isinf(outage.end_s)
        assert outage.cores == (0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreOutage(start_s=-1.0, cores=(0,))
        with pytest.raises(ValueError):
            CoreOutage(start_s=0.0, cores=())
        with pytest.raises(ValueError):
            CoreOutage(start_s=5.0, cores=(0,), end_s=5.0)


class TestInputChecks:
    def _replay(self, scenario, assignment, trace, **kwargs):
        return simulate_trace(scenario.datacenter, scenario.workload,
                              assignment.tc, assignment.pstates, trace,
                              **kwargs)

    def test_negative_arrival_rejected(self, scenario, assignment):
        task = Task(arrival=-1.0, task_type=0, uid=0, deadline=5.0)
        with pytest.raises(ValueError, match="non-negative"):
            self._replay(scenario, assignment, [task], duration=1.0)

    def test_nan_arrival_rejected(self, scenario, assignment):
        task = Task(arrival=float("nan"), task_type=0, uid=0, deadline=5.0)
        with pytest.raises(ValueError):
            self._replay(scenario, assignment, [task], duration=1.0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_trace_with_bad_arrival_rejected(self, scenario, assignment,
                                             bad):
        trace = Trace(arrival=[0.5, bad, 0.75], task_type=[0, 0, 0],
                      uid=[0, 1, 2], deadline=[5.0, 5.0, 5.0])
        with pytest.raises(ValueError, match="non-negative"):
            self._replay(scenario, assignment, trace, duration=1.0)

    def test_unsorted_trace_replays_as_sorted_copy(self, scenario,
                                                   assignment):
        wl = scenario.workload
        # arrivals on a 0.1 s grid, so equal times make stability matter
        trace = [Task(arrival=round(t.arrival, 1), task_type=t.task_type,
                      uid=t.uid,
                      deadline=round(t.arrival, 1)
                      + float(wl.deadline_slack[t.task_type]))
                 for t in generate_trace(wl, 5.0, np.random.default_rng(3))]
        rng = np.random.default_rng(4)
        shuffled = [trace[k] for k in rng.permutation(len(trace))]
        in_order = sorted(shuffled, key=lambda t: t.arrival)
        assert shuffled != in_order
        outage = CoreOutage(start_s=2.0, cores=(0, 1, 2, 3), end_s=3.0)
        for faults in (None, [outage]):
            assert_same_metrics(
                self._replay(scenario, assignment, shuffled, faults=faults),
                self._replay(scenario, assignment, in_order, faults=faults))


class TestSameInstantRules:
    """At one instant: faults (in outage-list order), then recoveries,
    then the trace's arrivals, then the tasks requeued at that instant.

    Each test runs a hand-built plan on three cores of one type (k1 <
    k2 < k3, all at P0) so the scheduler's choices are forced, and
    checks the instant itself next to one a float step earlier.
    """

    @pytest.fixture(scope="class")
    def room(self, scenario):
        dc, wl = scenario.datacenter, scenario.workload
        ctype = dc.core_type[0]
        cores = [int(k) for k in np.nonzero(dc.core_type == ctype)[0][:3]]
        # the two fastest task types on that core type
        i, j = (int(t) for t in np.argsort(-wl.ecs[:, ctype, 0])[:2])
        pstates = np.zeros(dc.n_cores, dtype=int)
        exec_s = DynamicScheduler(dc, wl, np.zeros((wl.n_task_types,
                                                    dc.n_cores)),
                                  pstates).exec_time[:, cores[0]]
        return dict(cores=cores, i=i, j=j, pstates=pstates,
                    e_i=float(exec_s[i]), e_j=float(exec_s[j]))

    def _replay(self, scenario, room, tasks, eligible, faults,
                policy="requeue"):
        dc, wl = scenario.datacenter, scenario.workload
        tc = np.zeros((wl.n_task_types, dc.n_cores))
        for task_type, cores in eligible.items():
            tc[task_type, cores] = 1e6
        return simulate_trace(dc, wl, tc, room["pstates"], tasks,
                              duration=10.0, faults=faults,
                              stranded_policy=policy)

    def test_finish_at_crash_completes(self, scenario, room):
        i, (k1, _, _) = room["i"], room["cores"]
        task = Task(arrival=0.0, task_type=i, uid=0,
                    deadline=10.0 * room["e_i"])
        finish = room["e_i"]      # starts at 0 on an idle core
        at = self._replay(scenario, room, [task], {i: [k1]},
                          [CoreOutage(start_s=finish, cores=(k1,))])
        assert at.completed[i] == 1
        assert at.stranded_requeued.sum() == 0
        before = self._replay(
            scenario, room, [task], {i: [k1]},
            [CoreOutage(start_s=float(np.nextafter(finish, 0.0)),
                        cores=(k1,))])
        assert before.stranded_requeued[i] == 1
        assert before.completed[i] == 0

    def test_arrival_at_crash_sees_core_dead(self, scenario, room):
        i, (k1, _, _) = room["i"], room["cores"]
        crash = [CoreOutage(start_s=1.0, cores=(k1,))]

        def arriving(t):
            task = Task(arrival=t, task_type=i, uid=0,
                        deadline=t + 10.0 * room["e_i"])
            return self._replay(scenario, room, [task], {i: [k1]}, crash,
                                policy="drop")

        at = arriving(1.0)
        assert at.dropped[i] == 1
        assert at.stranded_dropped.sum() == 0
        before = arriving(float(np.nextafter(1.0, 0.0)))
        assert before.stranded_dropped[i] == 1
        assert before.dropped.sum() == 0

    def test_arrival_at_recovery_may_use_core(self, scenario, room):
        i, (k1, _, _) = room["i"], room["cores"]
        outage = [CoreOutage(start_s=0.0, cores=(k1,), end_s=2.0)]

        def arriving(t):
            task = Task(arrival=t, task_type=i, uid=0,
                        deadline=t + 10.0 * room["e_i"])
            return self._replay(scenario, room, [task], {i: [k1]}, outage)

        at = arriving(2.0)
        assert at.completed[i] == 1
        assert at.busy_time[k1] > 0.0
        assert arriving(float(np.nextafter(2.0, 0.0))).dropped[i] == 1

    def _deadlines(self, room, t):
        # only the first of the two tasks k3 takes at t can finish
        slack = 0.5 * min(room["e_i"], room["e_j"])
        return t + room["e_i"] + slack, t + room["e_j"] + slack

    def test_requeued_after_original_arrivals(self, scenario, room):
        """A is stranded at t and requeued; B arrives at t.  k3 is the
        only core left for either, so whichever goes first finishes."""
        i, j, (k1, _, k3) = room["i"], room["j"], room["cores"]
        t = 0.5 * room["e_i"]
        d_i, d_j = self._deadlines(room, t)
        tasks = [Task(arrival=0.0, task_type=i, uid=0, deadline=d_i),
                 Task(arrival=t, task_type=j, uid=1, deadline=d_j)]
        m = self._replay(scenario, room, tasks, {i: [k1, k3], j: [k3]},
                         [CoreOutage(start_s=t, cores=(k1,))])
        assert m.stranded_requeued[i] == 1
        assert m.completed[j] == 1 and m.dropped[j] == 0
        assert m.completed[i] == 0 and m.dropped[i] == 1

    @pytest.mark.parametrize("first", ["i", "j"])
    def test_same_instant_outages_apply_in_list_order(self, scenario,
                                                      room, first):
        """A (on k1) and B (on k2) are stranded by two outages at t and
        requeued in the order the outages strand them; k3 is left for
        both, so only the first requeued task finishes."""
        i, j, (k1, k2, k3) = room["i"], room["j"], room["cores"]
        t = 0.5 * min(room["e_i"], room["e_j"])
        d_i, d_j = self._deadlines(room, t)
        tasks = [Task(arrival=0.0, task_type=i, uid=0, deadline=d_i),
                 Task(arrival=0.0, task_type=j, uid=1, deadline=d_j)]
        outages = [CoreOutage(start_s=t, cores=(k1,)),
                   CoreOutage(start_s=t, cores=(k2,))]
        if first == "j":
            outages.reverse()
        m = self._replay(scenario, room, tasks, {i: [k1, k3], j: [k2, k3]},
                         outages)
        assert m.stranded_requeued[i] == m.stranded_requeued[j] == 1
        winner, loser = (i, j) if first == "i" else (j, i)
        assert m.completed[winner] == 1 and m.dropped[winner] == 0
        assert m.completed[loser] == 0 and m.dropped[loser] == 1
