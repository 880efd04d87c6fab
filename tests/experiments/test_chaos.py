"""Tests for repro.experiments.chaos — the fault-rate sweep driver."""

import json

import numpy as np
import pytest

from repro.experiments.chaos import (ChaosConfig, ChaosPoint, chaos_table,
                                     run_chaos_point, run_chaos_scenario,
                                     sweep_chaos)
from repro.faults.model import FaultEvent, FaultKind, FaultSchedule

CONFIG = ChaosConfig(n_nodes=6, seed=0, horizon_s=60.0)


class TestRunChaosPoint:
    def test_factor_zero_matches_plain_simulate(self):
        """Acceptance criterion: the factor-0 control reproduces the
        ``repro simulate`` pipeline bit-identically."""
        from repro.core import three_stage_assignment
        from repro.experiments import (PAPER_SET_1, generate_scenario,
                                       scaled_down)
        from repro.simulate import simulate_trace
        from repro.workload import generate_trace

        point = run_chaos_point(CONFIG, 0.0)
        sc = generate_scenario(scaled_down(PAPER_SET_1, CONFIG.n_nodes),
                               CONFIG.seed)
        plan = three_stage_assignment(sc.datacenter, sc.workload,
                                      sc.p_const, psi=50.0)
        trace = generate_trace(sc.workload, CONFIG.horizon_s,
                               np.random.default_rng(CONFIG.seed + 1))
        metrics = simulate_trace(sc.datacenter, sc.workload, plan.tc,
                                 plan.pstates, trace,
                                 duration=CONFIG.horizon_s)
        assert point.n_fault_events == 0
        assert point.reward_rate == metrics.reward_rate
        assert point.detail["intervals"][0]["metrics"] == metrics.to_dict()

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            run_chaos_point(CONFIG, -1.0)

    def test_point_deterministic(self):
        a = run_chaos_point(CONFIG, 1.0).to_dict()
        b = run_chaos_point(CONFIG, 1.0).to_dict()
        assert a == b

    def test_point_round_trips_through_dict(self):
        point = run_chaos_point(CONFIG, 0.5)
        again = ChaosPoint.from_dict(point.to_dict())
        assert again.to_dict() == point.to_dict()


class TestSweep:
    def test_always_includes_control(self, tmp_path):
        points = sweep_chaos(CONFIG, [1.0], cache_dir=str(tmp_path))
        assert [p.factor for p in points] == [0.0, 1.0]
        assert points[0].reward_retained == pytest.approx(1.0)
        assert points[1].reward_retained == pytest.approx(
            points[1].reward_rate / points[0].reward_rate)

    def test_jobs_reproducible(self):
        """Acceptance criterion: identical points across --jobs."""
        serial = sweep_chaos(CONFIG, [0.5, 1.0], jobs=1)
        parallel = sweep_chaos(CONFIG, [0.5, 1.0], jobs=2)
        assert [p.to_dict() for p in serial] == \
            [p.to_dict() for p in parallel]

    def test_resume_replays_cache(self, tmp_path):
        from repro import obs

        cache = str(tmp_path / "cache")
        first = sweep_chaos(CONFIG, [0.5], cache_dir=cache, resume=False)
        with obs.capture() as snapshot:
            second = sweep_chaos(CONFIG, [0.5], cache_dir=cache, resume=True)
        # the cached replay returns the identical payload, and nothing
        # was recomputed: the replay replanned no interval
        assert [p.to_dict() for p in first] == [p.to_dict() for p in second]
        assert not [s for s in snapshot()["spans"] if s["name"] == "replan"]

    def test_metric_snapshots_byte_identical(self):
        """Wall-clock replan times live in spans, never in the metrics
        registry, so two identical sweeps' metrics diff byte for byte."""
        from repro import obs

        blobs = []
        for _ in range(2):
            with obs.capture() as snapshot:
                points = sweep_chaos(CONFIG, [1.0])
            blobs.append(json.dumps(snapshot()["metrics"], sort_keys=True))
        assert sum(p.n_replans for p in points) > 0
        assert blobs[0] == blobs[1]

    def test_cache_keys_need_no_room(self, tmp_path, monkeypatch):
        """The cache keys come from the config alone, so a fully cached
        sweep never builds a room."""
        from repro.experiments import chaos as chaos_mod

        cache = str(tmp_path)
        first = sweep_chaos(CONFIG, [], cache_dir=cache)

        def no_room(*args, **kwargs):
            raise AssertionError("room generated for a cached sweep")

        monkeypatch.setattr(chaos_mod, "generate_scenario", no_room)
        resumed = sweep_chaos(CONFIG, [], cache_dir=cache, resume=True)
        assert [p.to_dict() for p in resumed] == \
            [p.to_dict() for p in first]

    def test_sweep_draws_its_trace_once(self, monkeypatch):
        from repro.experiments import chaos as chaos_mod

        draws = []

        def counting(*args, **kwargs):
            draws.append(args[1])
            return real(*args, **kwargs)

        real = chaos_mod.generate_trace
        monkeypatch.setattr(chaos_mod, "generate_trace", counting)
        chaos_mod._chaos_trace.cache_clear()
        sweep_chaos(CONFIG, [1.0])
        assert draws == [CONFIG.horizon_s]
        other = ChaosConfig(n_nodes=6, seed=0, horizon_s=20.0)
        sweep_chaos(other, [])
        assert draws == [CONFIG.horizon_s, other.horizon_s]
        chaos_mod._chaos_trace.cache_clear()

    def test_cache_key_sensitive_to_config(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep_chaos(CONFIG, [0.5], cache_dir=cache, resume=False)
        other = ChaosConfig(n_nodes=6, seed=0, horizon_s=60.0,
                            stranded="drop")
        refreshed = sweep_chaos(other, [0.5], cache_dir=cache, resume=True)
        # a different stranded policy must not hit the requeue cache
        assert refreshed[-1].detail["intervals"][0]["metrics"] is not None


class TestScenarioRuns:
    def test_explicit_schedule(self):
        schedule = FaultSchedule.from_events([
            FaultEvent(start_s=20.0, kind=FaultKind.CRAC_OUTAGE, target=0,
                       duration_s=20.0)])
        result = run_chaos_scenario(CONFIG, schedule)
        assert result.n_replans == 2
        assert len(result.intervals) == 3


class TestTable:
    def test_formats_all_points(self):
        points = sweep_chaos(CONFIG, [1.0])
        text = chaos_table(points)
        lines = text.splitlines()
        assert len(lines) == 1 + len(points)
        assert "retained" in lines[0]
        assert "100.0%" in lines[1]
