"""Tests for repro.core.scheduler — the second-step dynamic scheduler."""

import numpy as np
import pytest

from repro.core.scheduler import DynamicScheduler


@pytest.fixture()
def sched(scenario, assignment):
    return DynamicScheduler(scenario.datacenter, scenario.workload,
                            assignment.tc, assignment.pstates)


class TestSelection:
    def test_never_selects_zero_tc_core(self, scenario, assignment, sched):
        """Cores outside the plan for a type are never chosen."""
        wl = scenario.workload
        free = np.zeros(scenario.datacenter.n_cores)
        for i in range(wl.n_task_types):
            core = sched.select_core(i, deadline=1e9, now=0.0,
                                     core_free_time=free)
            if core is not None:
                assert assignment.tc[i, core] > 0

    def test_deadline_respected(self, scenario, sched):
        """A deadline in the past drops the task."""
        free = np.zeros(scenario.datacenter.n_cores)
        assert sched.select_core(0, deadline=-1.0, now=0.0,
                                 core_free_time=free) is None

    def test_busy_cores_excluded_by_deadline(self, scenario, assignment,
                                             sched):
        """If every eligible core's queue runs past the deadline, drop."""
        wl = scenario.workload
        i = int(np.argmax(assignment.tc.sum(axis=1) > 0))
        free = np.full(scenario.datacenter.n_cores, 1e9)
        assert sched.select_core(i, deadline=100.0, now=0.0,
                                 core_free_time=free) is None

    def test_picks_min_ratio(self, scenario, assignment, sched):
        """After loading one core, the scheduler prefers others."""
        wl = scenario.workload
        i = int(np.argmax(assignment.tc.sum(axis=1) > 0))
        free = np.zeros(scenario.datacenter.n_cores)
        first = sched.select_core(i, 1e9, 1.0, free)
        assert first is not None
        for _ in range(3):
            sched.record_assignment(i, first)
        second = sched.select_core(i, 1e9, 1.0, free)
        assert second is not None and second != first

    def test_ratio_cap_excludes_overloaded(self, scenario, assignment,
                                           sched):
        """A core already above ATC/TC = 1 is not eligible."""
        i = int(np.argmax(assignment.tc.sum(axis=1) > 0))
        eligible = np.nonzero(assignment.tc[i] > 0)[0]
        now = 10.0
        # overload all eligible cores way past their desired counts
        for k in eligible:
            need = int(np.ceil(assignment.tc[i, k] * now)) + 5
            for _ in range(need):
                sched.record_assignment(i, int(k))
        free = np.zeros(scenario.datacenter.n_cores)
        assert sched.select_core(i, 1e9, now, free) is None

    def test_subnormal_now_serves_like_now_zero(self, scenario, sched):
        """At ``now = 5e-324`` ``tc * now`` underflows to 0 for every
        candidate of types 1-5 and 7; a core with no assignment still has
        ratio 0, so the same types get a core as at ``now = 0``."""
        free = np.zeros(scenario.datacenter.n_cores)

        def served(now):
            return [i for i in range(scenario.workload.n_task_types)
                    if sched.select_core(i, now + 1e6, now, free) is not None]

        assert served(5e-324) == served(0.0) == [1, 2, 3, 4, 5, 6, 7]

    def test_subnormal_now_rates_assigned_core_inf(self, scenario, sched):
        free = np.zeros(scenario.datacenter.n_cores)
        first = sched.select_core(1, 1e6, 5e-324, free)
        sched.record_assignment(1, first)
        with np.errstate(over="ignore"):
            assert np.isinf(sched.ratios(1, 5e-324)[first])
            second = sched.select_core(1, 1e6, 5e-324, free)
        assert second is not None and second != first


class TestRatios:
    def test_zero_time_all_zero(self, scenario, assignment, sched):
        i = int(np.argmax(assignment.tc.sum(axis=1) > 0))
        r = sched.ratios(i, 0.0)
        eligible = assignment.tc[i] > 0
        np.testing.assert_allclose(r[eligible], 0.0)
        assert np.all(np.isinf(r[~eligible]))

    def test_ratio_arithmetic(self, scenario, assignment, sched):
        i = int(np.argmax(assignment.tc.sum(axis=1) > 0))
        k = int(np.nonzero(assignment.tc[i] > 0)[0][0])
        sched.record_assignment(i, k)
        r = sched.ratios(i, now=2.0)
        assert r[k] == pytest.approx(1.0 / (assignment.tc[i, k] * 2.0))

    def test_atc_matrix(self, scenario, assignment, sched):
        i = int(np.argmax(assignment.tc.sum(axis=1) > 0))
        k = int(np.nonzero(assignment.tc[i] > 0)[0][0])
        for _ in range(4):
            sched.record_assignment(i, k)
        atc = sched.atc(elapsed=2.0)
        assert atc[i, k] == pytest.approx(2.0)

    def test_atc_requires_positive_elapsed(self, sched):
        with pytest.raises(ValueError, match="positive"):
            sched.atc(0.0)


class TestValidation:
    def test_shape_checks(self, scenario, assignment):
        dc, wl = scenario.datacenter, scenario.workload
        with pytest.raises(ValueError, match="tc must be"):
            DynamicScheduler(dc, wl, assignment.tc[:, :5],
                             assignment.pstates)
        with pytest.raises(ValueError, match="pstates"):
            DynamicScheduler(dc, wl, assignment.tc,
                             assignment.pstates[:5])

    def test_exec_time_infinite_for_off_cores(self, scenario, assignment,
                                              sched):
        dc = scenario.datacenter
        off = np.asarray([dc.node_types[t].off_pstate
                          for t in dc.core_type])
        off_mask = assignment.pstates == off
        if off_mask.any():
            assert np.all(np.isinf(sched.exec_time[:, off_mask]))
