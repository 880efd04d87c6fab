"""Tests for repro.faults.policy — the fault-reaction control loop."""

import numpy as np
import pytest

from repro import obs
from repro.experiments import PAPER_SET_1, generate_scenario, scaled_down
from repro.faults.model import FaultEvent, FaultKind, FaultSchedule
from repro.faults.policy import FaultAwareController, ReactionPolicy
from repro.workload import generate_trace

N_NODES = 6
SEED = 0
HORIZON = 60.0


@pytest.fixture(scope="module")
def chaos_scenario():
    return generate_scenario(scaled_down(PAPER_SET_1, N_NODES), SEED)


@pytest.fixture(scope="module")
def chaos_trace(chaos_scenario):
    return generate_trace(chaos_scenario.workload, HORIZON,
                          np.random.default_rng(SEED + 1))


def _controller(sc, **policy_kwargs):
    return FaultAwareController(sc.datacenter, sc.workload, sc.p_const,
                                ReactionPolicy(**policy_kwargs))


class TestReactionPolicy:
    def test_invalid_stranded_rejected(self):
        with pytest.raises(ValueError, match="stranded"):
            ReactionPolicy(stranded="panic")

    def test_invalid_exhausted_rejected(self):
        with pytest.raises(ValueError, match="on_derate_exhausted"):
            ReactionPolicy(on_derate_exhausted="shrug")


class TestEmptySchedule:
    def test_single_interval(self, chaos_scenario, chaos_trace):
        result = _controller(chaos_scenario).run(
            chaos_trace, HORIZON, FaultSchedule.empty())
        assert len(result.intervals) == 1
        iv = result.intervals[0]
        assert (iv.start_s, iv.end_s, iv.cause) == (0.0, HORIZON, "start")
        assert iv.derated == 0
        # cold start: nothing to transition from, nothing forecast
        assert iv.predicted_overshoot_c is None
        assert iv.transient_overshoot_c is None
        assert iv.warm_level == "none"
        assert result.n_replans == 0
        assert result.violation_minutes == 0.0

    def test_bit_identical_to_plain_simulate(self, chaos_scenario,
                                             chaos_trace):
        """Acceptance criterion: chaos with no faults == repro simulate."""
        from repro.core import three_stage_assignment
        from repro.simulate import simulate_trace

        sc = chaos_scenario
        result = _controller(sc).run(chaos_trace, HORIZON,
                                     FaultSchedule.empty())
        plan = three_stage_assignment(sc.datacenter, sc.workload,
                                      sc.p_const, psi=50.0)
        metrics = simulate_trace(sc.datacenter, sc.workload, plan.tc,
                                 plan.pstates, chaos_trace,
                                 duration=HORIZON)
        iv = result.intervals[0]
        assert iv.plan_reward_rate == plan.reward_rate
        assert iv.metrics.total_reward == metrics.total_reward
        assert iv.metrics.to_dict() == metrics.to_dict()
        np.testing.assert_array_equal(iv.metrics.completed,
                                      metrics.completed)


class TestCracOutageReaction:
    """Acceptance criterion: a CRAC outage triggers a re-solve whose
    post-transition transient respects every redline."""

    def test_outage_triggers_safe_replan(self, chaos_scenario, chaos_trace):
        schedule = FaultSchedule.from_events([
            FaultEvent(start_s=20.0, kind=FaultKind.CRAC_OUTAGE, target=0,
                       duration_s=20.0)])
        with obs.capture() as snapshot:
            result = _controller(chaos_scenario).run(chaos_trace, HORIZON,
                                                     schedule)
        assert [iv.cause for iv in result.intervals] == \
            ["start", "fault:crac_outage", "recovery:crac_outage"]
        assert result.n_replans == 2
        # MTTR-to-replan is the outage interval's ``replan`` span
        spans = snapshot()["spans"]
        (outage_span,) = [s for s in spans if s["name"] == "interval"
                          and s["attrs"]["cause"] == "fault:crac_outage"]
        replans = [s for s in spans
                   if s["path"] == outage_span["path"] + ".replan"
                   and outage_span["t0"] <= s["t0"]
                   <= outage_span["t0"] + outage_span["dur"]]
        assert len(replans) == 1
        assert replans[0]["dur"] > 0.0
        outage_iv = result.intervals[1]
        # the degraded plan was re-solved, the guard forecast a clean
        # transition, and the transition the room took stayed below
        # every redline
        assert outage_iv.predicted_overshoot_c is not None
        assert outage_iv.predicted_overshoot_c <= 1e-6
        assert outage_iv.transient_overshoot_c is not None
        assert outage_iv.transient_overshoot_c <= 1e-6
        assert outage_iv.violation_minutes == 0.0
        # the outage typically costs planned reward (never gains any)
        assert outage_iv.plan_reward_rate \
            <= result.intervals[0].plan_reward_rate + 1e-9

    def test_recovery_restores_nominal_plan(self, chaos_scenario,
                                            chaos_trace):
        schedule = FaultSchedule.from_events([
            FaultEvent(start_s=20.0, kind=FaultKind.CRAC_OUTAGE, target=0,
                       duration_s=20.0)])
        result = _controller(chaos_scenario).run(chaos_trace, HORIZON,
                                                 schedule)
        last = result.intervals[-1]
        assert last.crac_capacity == [1.0] * \
            chaos_scenario.datacenter.n_crac
        assert last.n_nodes_alive == N_NODES


class TestNodeCrashStranding:
    def _schedule(self):
        return FaultSchedule.from_events([
            FaultEvent(start_s=20.0, kind=FaultKind.NODE_CRASH, target=0,
                       duration_s=20.0)])

    def test_crash_shrinks_inventory_and_strands(self, chaos_scenario,
                                                 chaos_trace):
        result = _controller(chaos_scenario).run(chaos_trace, HORIZON,
                                                 self._schedule())
        first, crashed, recovered = result.intervals
        assert crashed.n_nodes_alive == N_NODES - 1
        assert recovered.n_nodes_alive == N_NODES
        # the interval *before* the crash absorbed the boundary outage:
        # tasks queued on node 0's cores at t=20 were stranded
        assert first.metrics.n_fault_events == 1
        assert first.metrics.stranded_requeued is not None
        assert result.tasks_requeued == \
            int(first.metrics.stranded_requeued.sum())

    def test_drop_policy_accounts_losses(self, chaos_scenario, chaos_trace):
        requeue = _controller(chaos_scenario, stranded="requeue").run(
            chaos_trace, HORIZON, self._schedule())
        drop = _controller(chaos_scenario, stranded="drop").run(
            chaos_trace, HORIZON, self._schedule())
        dropped_stranded = sum(
            int(iv.metrics.stranded_dropped.sum())
            for iv in drop.intervals
            if iv.metrics.stranded_dropped is not None)
        requeued = requeue.tasks_requeued
        assert requeued == dropped_stranded  # same tasks, two dispositions
        assert requeue.tasks_requeued > 0 or dropped_stranded == 0
        # dropping stranded work can never beat requeuing it
        assert drop.total_reward <= requeue.total_reward + 1e-9


class TestResultAggregation:
    def test_to_dict_schema(self, chaos_scenario, chaos_trace):
        schedule = FaultSchedule.from_events([
            FaultEvent(start_s=30.0, kind=FaultKind.POWER_CAP_DROP,
                       duration_s=15.0, magnitude=0.3)])
        result = _controller(chaos_scenario).run(chaos_trace, HORIZON,
                                                 schedule)
        doc = result.to_dict()
        assert doc["schema"] == 1
        assert doc["n_fault_events"] == 1
        assert doc["n_replans"] == 2
        assert len(doc["intervals"]) == 3
        assert doc["total_reward"] == pytest.approx(result.total_reward)
        # the cap-drop interval planned under a reduced budget
        cap_iv = doc["intervals"][1]
        assert cap_iv["cap_kw"] == pytest.approx(
            0.7 * chaos_scenario.p_const)
        if cap_iv["shed"]:
            # a cap this tight may admit no plan at all — the interval
            # then sheds every task rather than aborting the run
            assert cap_iv["plan_reward_rate"] == 0.0

    def test_infeasible_cap_sheds_load(self, chaos_scenario, chaos_trace):
        schedule = FaultSchedule.from_events([
            FaultEvent(start_s=30.0, kind=FaultKind.POWER_CAP_DROP,
                       duration_s=15.0, magnitude=0.9)])
        result = _controller(chaos_scenario).run(chaos_trace, HORIZON,
                                                 schedule)
        shed_iv = result.intervals[1]
        assert shed_iv.shed
        assert shed_iv.plan_reward_rate == 0.0
        assert shed_iv.metrics.total_reward == 0.0
        # ... and strict mode surfaces the infeasibility instead
        with pytest.raises(RuntimeError):
            _controller(chaos_scenario,
                        on_derate_exhausted="raise").run(
                chaos_trace, HORIZON, schedule)

    def test_invalid_horizon_rejected(self, chaos_scenario, chaos_trace):
        with pytest.raises(ValueError, match="horizon"):
            _controller(chaos_scenario).run(chaos_trace, 0.0,
                                            FaultSchedule.empty())


class TestDegenerateChaosResult:
    """Regression: a zero-length chaos horizon must not divide by zero."""

    def test_zero_horizon_reward_rate_is_zero(self):
        from repro.faults.model import FaultSchedule
        from repro.faults.policy import ChaosRunResult

        result = ChaosRunResult(horizon_s=0.0,
                                schedule=FaultSchedule.empty(),
                                intervals=[])
        assert result.reward_rate == 0.0
        assert result.total_reward == 0.0
