"""The columnar :class:`Trace` and its generators.

The generators are compared column by column with the tuple-sort
generators they replaced (``trace_oracle.py``): same seed, same bits.
"""

import pickle

import numpy as np
import pytest

from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.control import ControlConfig
from repro.experiments.generator import generate_scenario
from repro.workload.profiles import (ConstantProfile, DiurnalProfile,
                                     StepProfile,
                                     generate_nonstationary_trace)
from repro.workload.tasktypes import Workload
from repro.workload.trace import (FlashCrowdProfile, RegionalShiftProfile,
                                  Task, Trace, generate_trace,
                                  stream_trace_ticks)
from tests.workload.trace_oracle import (oracle_generate_trace,
                                         oracle_nonstationary_trace,
                                         oracle_stream_ticks)

FIELDS = ("arrival", "task_type", "uid", "deadline")


def tiny_workload(rates, slack=(2.5, 0.75, 4.0)) -> Workload:
    t = len(rates)
    ecs = np.ones((t, 1, 2))
    ecs[:, :, 1] = 0.0
    return Workload(ecs=ecs, rewards=np.ones(t),
                    deadline_slack=np.asarray(slack[:t], dtype=float),
                    arrival_rates=np.asarray(rates, dtype=float))


def assert_same_trace(trace: Trace, tasks: list[Task]) -> None:
    """Every column equals the oracle's field, bit for bit."""
    assert isinstance(trace, Trace)
    for name in FIELDS:
        expected = np.asarray([getattr(t, name) for t in tasks],
                              dtype=getattr(trace, name).dtype)
        assert np.array_equal(getattr(trace, name), expected), name
    assert list(trace) == tasks


def _trace() -> Trace:
    return Trace(arrival=[0.5, 1.0, 2.5], task_type=[1, 0, 1],
                 uid=[0, 1, 2], deadline=[3.0, 1.75, 5.0])


class TestTrace:
    def test_rows_are_tasks(self):
        trace = _trace()
        assert len(trace) == 3
        assert trace[1] == Task(arrival=1.0, task_type=0, uid=1,
                                deadline=1.75)
        assert trace[-1].uid == 2
        assert [t.uid for t in trace] == [0, 1, 2]
        assert isinstance(trace[np.int64(0)].task_type, int)

    def test_slice_is_a_view(self):
        trace = _trace()
        tail = trace[1:]
        assert isinstance(tail, Trace)
        assert list(tail) == list(trace)[1:]
        assert np.shares_memory(tail.arrival, trace.arrival)
        assert len(trace[3:]) == 0

    def test_columns_are_read_only(self):
        trace = _trace()
        with pytest.raises(ValueError):
            trace.arrival[0] = 9.0
        source = np.asarray([1.0, 2.0])
        Trace(source, [0, 0], [0, 1], source + 1.0)
        source[0] = 3.0  # the caller's array stays writable

    def test_shifted_matches_scalar_rebasing(self):
        trace = _trace()
        moved = trace.shifted(0.3)
        assert list(moved) == [
            Task(arrival=t.arrival - 0.3, task_type=t.task_type,
                 uid=t.uid, deadline=t.deadline - 0.3) for t in trace]

    def test_from_tasks_round_trip(self):
        trace = _trace()
        assert Trace.from_tasks(list(trace)) == trace
        empty = Trace.from_tasks([])
        assert len(empty) == 0 and empty.task_type.dtype == np.int64

    def test_equality_is_by_columns(self):
        assert _trace() == _trace()
        assert _trace() != _trace().shifted(1.0)
        assert _trace() != list(_trace())

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="equally long"):
            Trace([0.0, 1.0], [0], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D"):
            Trace([[0.0]], [[0]], [[0]], [[1.0]])


class TestTaskSlots:
    def test_pickle_round_trip(self):
        task = Task(arrival=1.5, task_type=2, uid=7, deadline=4.0)
        assert pickle.loads(pickle.dumps(task)) == task

    def test_order_and_no_instance_dict(self):
        a = Task(arrival=1.0, task_type=5, uid=10, deadline=2.0)
        b = Task(arrival=1.0, task_type=6, uid=0, deadline=1.5)
        assert a < b and sorted([b, a]) == [a, b]
        assert not hasattr(a, "__dict__")


class TestStationaryOracle:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_matches_tuple_sort(self, seed):
        wl = tiny_workload([5.0, 3.0, 0.5])
        assert_same_trace(
            generate_trace(wl, 40.0, np.random.default_rng(seed)),
            oracle_generate_trace(wl, 40.0, np.random.default_rng(seed)))

    def test_zero_rate_type(self):
        wl = tiny_workload([0.0, 4.0, 2.0])
        assert_same_trace(
            generate_trace(wl, 30.0, np.random.default_rng(3)),
            oracle_generate_trace(wl, 30.0, np.random.default_rng(3)))

    def test_empty_horizon(self):
        wl = tiny_workload([1.0, 1.0])
        trace = generate_trace(wl, 1e-9, np.random.default_rng(0))
        assert len(trace) == 0
        assert_same_trace(
            trace, oracle_generate_trace(wl, 1e-9, np.random.default_rng(0)))


PROFILES = {
    "constant": lambda r: ConstantProfile(r),
    "diurnal": lambda r: DiurnalProfile(r, amplitude=0.6, period_s=40.0,
                                        phase_s=3.0),
    "step": lambda r: StepProfile(boundaries=np.asarray([10.0, 25.0]),
                                  rate_levels=np.stack([r, 3 * r, r / 2])),
    "flash": lambda r: FlashCrowdProfile(
        ConstantProfile(r), bursts=((10.0, 10.0, 4.0), (15.0, 10.0, 0.5))),
    "composite": lambda r: FlashCrowdProfile(
        RegionalShiftProfile(DiurnalProfile(r, amplitude=0.4,
                                            period_s=40.0),
                             amplitude=0.3, period_s=20.0),
        bursts=((13.0, 7.0, 4.0),)),
}


class TestThinningOracle:
    @pytest.mark.parametrize("kind", sorted(PROFILES))
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_matches_scalar_thinning(self, kind, seed):
        wl = tiny_workload([3.0, 0.0, 1.5])
        profile = PROFILES[kind](np.asarray(wl.arrival_rates))
        assert_same_trace(
            generate_nonstationary_trace(wl, profile, 40.0,
                                         np.random.default_rng(seed)),
            oracle_nonstationary_trace(wl, profile, 40.0,
                                       np.random.default_rng(seed)))

    def test_empty_horizon(self):
        wl = tiny_workload([1.0])
        profile = PROFILES["diurnal"](np.asarray(wl.arrival_rates))
        trace = generate_nonstationary_trace(wl, profile, 1e-9,
                                             np.random.default_rng(2))
        assert len(trace) == 0
        assert_same_trace(trace, oracle_nonstationary_trace(
            wl, profile, 1e-9, np.random.default_rng(2)))

    def test_stream_ticks_match(self):
        wl = tiny_workload([3.0, 1.5])
        profile = PROFILES["composite"](np.asarray(wl.arrival_rates))
        ticks = stream_trace_ticks(wl, profile, 5.0, 8,
                                   np.random.default_rng(4))
        expected = oracle_stream_ticks(wl, profile, 5.0, 8,
                                       np.random.default_rng(4))
        assert [list(t.tasks) for t in ticks] == expected

    def test_control_sweep_trace_matches(self):
        """The flash-crowd trace the control sweep replays."""
        config = ControlConfig(n_nodes=12, horizon_s=120.0,
                               burst_start_s=40.0, burst_duration_s=40.0)
        wl = generate_scenario(scaled_down(PAPER_SET_1, config.n_nodes),
                               config.seed).workload
        profile = config.profile(wl.arrival_rates)
        assert_same_trace(
            generate_nonstationary_trace(wl, profile, config.horizon_s,
                                         np.random.default_rng(2)),
            oracle_nonstationary_trace(wl, profile, config.horizon_s,
                                       np.random.default_rng(2)))
