"""Tests for repro.experiments.control — the MPC-vs-interval sweep."""

import json

import pytest

from repro.experiments.control import (CONTROLLERS, ControlConfig,
                                       ControlPoint, control_table,
                                       run_control_point, sweep_control)

#: Small enough to keep the whole module interactive; the flash crowd
#: and the factor-1 fault draw still exercise both escalation paths.
CONFIG = ControlConfig(n_nodes=6, seed=1, horizon_s=120.0, epoch_s=30.0,
                       burst_start_s=30.0, burst_duration_s=60.0)


def _canonical(points) -> str:
    """The byte representation the CI jobs-diff compares."""
    return json.dumps([p.to_dict() for p in points], sort_keys=True)


class TestRunControlPoint:
    def test_point_is_byte_deterministic(self):
        a = run_control_point(CONFIG, "mpc", 1.0)
        b = run_control_point(CONFIG, "mpc", 1.0)
        assert a.to_dict() == b.to_dict()

    def test_no_wall_clock_fields(self):
        point = run_control_point(CONFIG, "interval", 0.0)
        doc = point.to_dict()
        assert not any("wall" in k or "replan_s" in k for k in doc)

    def test_factor_zero_uses_empty_schedule(self):
        point = run_control_point(CONFIG, "interval", 0.0)
        assert point.n_fault_events == 0
        assert point.sheds == 0

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            run_control_point(CONFIG, "mpc", -1.0)

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="controller"):
            run_control_point(CONFIG, "pid", 0.0)

    def test_round_trips_through_dict(self):
        point = run_control_point(CONFIG, "interval", 1.0)
        again = ControlPoint.from_dict(point.to_dict())
        assert again.to_dict() == point.to_dict()


class TestSweepControl:
    def test_jobs_byte_identical(self):
        """The CI gate: worker processes recompute the exact bytes."""
        serial = sweep_control(CONFIG, [1.0], jobs=1)
        parallel = sweep_control(CONFIG, [1.0], jobs=2)
        assert _canonical(serial) == _canonical(parallel)

    def test_arm_order_controller_major(self):
        points = sweep_control(CONFIG, [1.0], jobs=1)
        assert [(p.controller, p.factor) for p in points] == \
            [(c, f) for c in CONTROLLERS for f in (0.0, 1.0)]

    def test_retained_relative_to_own_controller(self):
        points = sweep_control(CONFIG, [1.0], jobs=1)
        by_arm = {(p.controller, p.factor): p for p in points}
        for ctrl in CONTROLLERS:
            base = by_arm[(ctrl, 0.0)]
            assert base.reward_retained == pytest.approx(1.0)
            assert by_arm[(ctrl, 1.0)].reward_retained == pytest.approx(
                by_arm[(ctrl, 1.0)].reward_rate / base.reward_rate)

    def test_cache_round_trip(self, tmp_path):
        first = sweep_control(CONFIG, [1.0], jobs=1,
                              cache_dir=str(tmp_path))
        resumed = sweep_control(CONFIG, [1.0], jobs=1,
                                cache_dir=str(tmp_path), resume=True)
        assert _canonical(first) == _canonical(resumed)

    def test_cache_keyed_on_controller(self, tmp_path):
        """An interval point must never satisfy an MPC cache lookup."""
        sweep_control(CONFIG, [], controllers=("interval",), jobs=1,
                      cache_dir=str(tmp_path))
        points = sweep_control(CONFIG, [], controllers=("mpc",), jobs=1,
                               cache_dir=str(tmp_path), resume=True)
        assert all(p.controller == "mpc" for p in points)

    def test_cache_keys_need_no_room(self, tmp_path, monkeypatch):
        """The cache keys come from the config alone, so a fully cached
        sweep never builds a room."""
        from repro.experiments import control as control_mod

        cache = str(tmp_path)
        first = sweep_control(CONFIG, [], controllers=("interval",), jobs=1,
                              cache_dir=cache)

        def no_room(*args, **kwargs):
            raise AssertionError("room generated for a cached sweep")

        monkeypatch.setattr(control_mod, "generate_scenario", no_room)
        resumed = sweep_control(CONFIG, [], controllers=("interval",),
                                jobs=1, cache_dir=cache, resume=True)
        assert _canonical(resumed) == _canonical(first)

    def test_single_controller_subset(self):
        points = sweep_control(CONFIG, [], controllers=("mpc",), jobs=1)
        assert [(p.controller, p.factor) for p in points] == [("mpc", 0.0)]


class _StubController:
    """Records the inputs each arm is given; runs nothing."""

    rooms: list = []
    traces: list = []

    def __init__(self, datacenter, workload, p_const, policy):
        self.rooms.append(datacenter)

    def run(self, trace, horizon_s, schedule, profile=None):
        from repro.faults.policy import ChaosRunResult

        self.traces.append(trace)
        return ChaosRunResult(horizon_s=horizon_s, schedule=schedule,
                              intervals=[])


class TestInputMemo:
    def test_sweep_draws_its_trace_once(self, monkeypatch):
        from repro.experiments import control as control_mod

        draws = []

        def counting(*args, **kwargs):
            draws.append(args[2])
            return real(*args, **kwargs)

        real = control_mod.generate_nonstationary_trace
        monkeypatch.setattr(control_mod, "generate_nonstationary_trace",
                            counting)
        monkeypatch.setattr(control_mod, "FaultAwareController",
                            _StubController)
        monkeypatch.setattr(_StubController, "rooms", [])
        monkeypatch.setattr(_StubController, "traces", [])
        control_mod._control_demand.cache_clear()
        sweep_control(CONFIG, [1.0], jobs=1)
        assert len(draws) == 1
        traces = _StubController.traces
        assert len(traces) == 4 and all(t is traces[0] for t in traces)
        # every arm builds its own room
        assert len({id(room) for room in _StubController.rooms}) == 4

        other = ControlConfig(n_nodes=6, seed=2, horizon_s=60.0,
                              epoch_s=30.0, burst_start_s=0.0,
                              burst_duration_s=30.0)
        sweep_control(other, [], controllers=("interval",), jobs=1)
        assert draws == [CONFIG.horizon_s, other.horizon_s]
        assert _StubController.traces[-1] is not traces[0]
        control_mod._control_demand.cache_clear()


class TestControlTable:
    def test_table_lists_every_arm(self):
        points = [
            ControlPoint(controller="interval", factor=0.0,
                         n_fault_events=0, reward_rate=100.0,
                         violation_minutes=0.0, tasks_lost=0, n_replans=0,
                         precools=0, derates=0, sheds=0,
                         reward_retained=1.0),
            ControlPoint(controller="mpc", factor=1.0, n_fault_events=3,
                         reward_rate=90.0, violation_minutes=0.5,
                         tasks_lost=2, n_replans=4, precools=2, derates=1,
                         sheds=0, reward_retained=None),
        ]
        table = control_table(points)
        lines = table.splitlines()
        assert len(lines) == 3
        assert "interval" in lines[1] and "100.0" in lines[1]
        assert "mpc" in lines[2] and "---" in lines[2]
