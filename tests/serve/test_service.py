"""Tests for repro.serve.service — determinism, warm levels, shedding."""

import numpy as np
import pytest

from repro.experiments import PAPER_SET_1, generate_scenario, scaled_down
from repro.serve import ControlService, ServeConfig, serve_trace
from repro.workload import (ConstantProfile, DiurnalProfile,
                            FlashCrowdProfile, stream_trace_ticks)

N_NODES = 8
SEED = 3
TICK_S = 20.0


@pytest.fixture(scope="module")
def serve_scenario():
    return generate_scenario(scaled_down(PAPER_SET_1, N_NODES), SEED)


def _run(sc, profile, n_ticks, config=None, trace_seed=SEED + 1):
    ticks = stream_trace_ticks(sc.workload, profile, TICK_S, n_ticks,
                               np.random.default_rng(trace_seed))
    return serve_trace(sc.datacenter, sc.workload, sc.p_const, ticks,
                       config or ServeConfig(tick_s=TICK_S))


def _diurnal(sc, n_ticks):
    return DiurnalProfile(base_rates=sc.workload.arrival_rates,
                          amplitude=0.4, period_s=TICK_S * n_ticks)


class TestConfig:
    def test_invalid_tick_rejected(self):
        with pytest.raises(ValueError, match="tick_s"):
            ServeConfig(tick_s=0.0)

    def test_invalid_warm_rejected(self):
        with pytest.raises(ValueError, match="warm"):
            ServeConfig(warm="sometimes")


class TestDeterminism:
    def test_same_seed_same_tick_log(self, serve_scenario):
        profile = _diurnal(serve_scenario, 5)
        a = _run(serve_scenario, profile, 5)
        b = _run(serve_scenario, profile, 5)
        assert a.to_dict() == b.to_dict()

    def test_log_contains_no_wall_times(self, serve_scenario):
        result = _run(serve_scenario, _diurnal(serve_scenario, 3), 3)
        doc = result.to_dict()
        for tick in doc["ticks"]:
            assert "wall" not in " ".join(tick)
            assert set(tick) == {"index", "start_s", "rates",
                                 "reward_rate", "warm_level", "derated",
                                 "arrived", "admitted", "shed_tasks",
                                 "shed", "precooled"}


class TestWarmLevels:
    def test_first_tick_cold_rest_warm(self, serve_scenario):
        result = _run(serve_scenario, _diurnal(serve_scenario, 5), 5)
        assert result.ticks[0].warm_level == "none"
        assert all(t.warm_level in ("stage1", "request", "structure")
                   for t in result.ticks[1:])

    def test_constant_rates_replay_at_request_level(self, serve_scenario):
        profile = ConstantProfile(
            base_rates=serve_scenario.workload.arrival_rates)
        result = _run(serve_scenario, profile, 4)
        assert all(t.warm_level == "request" for t in result.ticks[1:])

    def test_warm_off_solves_every_tick_cold(self, serve_scenario):
        config = ServeConfig(tick_s=TICK_S, warm="off")
        result = _run(serve_scenario, _diurnal(serve_scenario, 3), 3,
                      config)
        assert all(t.warm_level == "none" for t in result.ticks)

    def test_warm_matches_cold_rewards(self, serve_scenario):
        """The warm chain never changes the committed plans."""
        profile = _diurnal(serve_scenario, 4)
        warm = _run(serve_scenario, profile, 4)
        cold = _run(serve_scenario, profile, 4,
                    ServeConfig(tick_s=TICK_S, warm="off"))
        assert [t.reward_rate for t in warm.ticks] \
            == [t.reward_rate for t in cold.ticks]
        assert [t.admitted for t in warm.ticks] \
            == [t.admitted for t in cold.ticks]


class TestAdmissionControl:
    def test_flash_crowd_sheds(self, serve_scenario):
        base = ConstantProfile(
            base_rates=serve_scenario.workload.arrival_rates)
        profile = FlashCrowdProfile(
            base, bursts=((2 * TICK_S, TICK_S, 8.0),))
        result = _run(serve_scenario, profile, 4)
        burst = result.ticks[2]
        assert burst.shed and burst.shed_tasks > 0
        assert burst.arrived > 3 * result.ticks[0].arrived
        # the burst tick sheds a much larger *fraction* than steady state
        assert burst.shed_tasks / burst.arrived \
            > 1.5 * max(t.shed_tasks / t.arrived
                        for t in result.ticks if t.index != 2)

    def test_accounting_adds_up(self, serve_scenario):
        result = _run(serve_scenario, _diurnal(serve_scenario, 4), 4)
        for t in result.ticks:
            assert t.admitted + t.shed_tasks == t.arrived
        assert result.tasks_arrived \
            == result.tasks_shed + sum(t.admitted for t in result.ticks)


class TestObservability:
    def test_spans_and_counters_emitted(self, serve_scenario):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            _run(serve_scenario, _diurnal(serve_scenario, 3), 3)
            snap = obs.current_registry().snapshot()
            records = list(obs.current_tracer().records)
        finally:
            obs.disable()
            obs.reset()
        assert snap["serve.ticks"]["value"] == 3
        names = {r["name"] for r in records}
        assert "serve" in names and "serve.tick" in names


class TestStream:
    def test_stream_yields_records_lazily(self, serve_scenario):
        service = ControlService(serve_scenario.datacenter,
                                 serve_scenario.workload,
                                 serve_scenario.p_const,
                                 ServeConfig(tick_s=TICK_S))
        ticks = stream_trace_ticks(serve_scenario.workload,
                                   _diurnal(serve_scenario, 3), TICK_S, 3,
                                   np.random.default_rng(SEED + 1))
        pulled = []

        def source():
            for demand in ticks:
                pulled.append(demand.index)
                yield demand

        stream = service.stream(source())
        first = next(stream)
        # one tick pulled per record: the trace never runs ahead
        assert first.index == 0 and pulled == [0]
        records = [first, *stream]
        assert [r.index for r in records] == [0, 1, 2]
        # the streamed log is the batch run's log
        batch = _run(serve_scenario, _diurnal(serve_scenario, 3), 3)
        assert [r.to_dict() for r in records] == \
            [t.to_dict() for t in batch.ticks]

    def test_invalid_cap_rejected(self, serve_scenario):
        with pytest.raises(ValueError, match="power cap"):
            ControlService(serve_scenario.datacenter,
                           serve_scenario.workload, 0.0)
