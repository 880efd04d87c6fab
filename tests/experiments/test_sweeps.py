"""Tests for repro.experiments.sweeps — capacity/redline sweeps."""

import json

import numpy as np
import pytest

from repro.experiments.sweeps import sweep_node_redline, sweep_power_cap


@pytest.fixture(scope="module")
def cap_sweep(scenario):
    lo, hi = scenario.bounds.p_min, scenario.bounds.p_max
    caps = np.linspace(lo * 1.05, hi, 4)
    return sweep_power_cap(scenario.datacenter, scenario.workload, caps)


class TestPowerCapSweep:
    def test_reward_monotone_in_cap(self, cap_sweep):
        rewards = [p.reward_three_stage for p in cap_sweep]
        assert all(np.diff(rewards) >= -1e-6)

    def test_power_used_within_cap(self, cap_sweep):
        for p in cap_sweep:
            assert p.power_used_kw <= p.p_const + 1e-6

    def test_three_stage_at_least_baseline_shape(self, cap_sweep):
        """On average across the sweep the technique leads (individual
        ties are possible at extreme caps)."""
        edges = [p.improvement_pct for p in cap_sweep
                 if p.improvement_pct is not None]
        assert np.mean(edges) > 0

    def test_marginal_values_non_negative(self, cap_sweep):
        for p in cap_sweep[:-1]:
            assert p.marginal_reward_per_kw >= -1e-6
        assert cap_sweep[-1].marginal_reward_per_kw is None

    def test_infeasible_caps_skipped(self, scenario):
        caps = np.asarray([0.5, scenario.p_const])
        points = sweep_power_cap(scenario.datacenter, scenario.workload,
                                 caps)
        assert len(points) == 1
        assert points[0].p_const == pytest.approx(scenario.p_const)

    def test_empty_caps_rejected(self, scenario):
        with pytest.raises(ValueError, match="at least one"):
            sweep_power_cap(scenario.datacenter, scenario.workload,
                            np.asarray([]))

    def test_baseline_optional(self, scenario):
        points = sweep_power_cap(scenario.datacenter, scenario.workload,
                                 np.asarray([scenario.p_const]),
                                 include_baseline=False)
        assert points[0].reward_baseline is None
        assert points[0].improvement_pct is None

    def test_cache_files_are_strict_json(self, scenario, tmp_path):
        """Undefined values are cached as null, never NaN, and a resumed
        sweep (an infeasible cap included) replays them unchanged."""
        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        caps = np.asarray([0.5, scenario.p_const])
        kwargs = dict(include_baseline=False, cache_dir=tmp_path,
                      tag="strict")
        first = sweep_power_cap(scenario.datacenter, scenario.workload,
                                caps, **kwargs)
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == len(caps)
        for path in files:
            json.loads(path.read_text(), parse_constant=reject)
        resumed = sweep_power_cap(scenario.datacenter, scenario.workload,
                                  caps, resume=True, **kwargs)
        assert resumed == first


class TestRedlineSweep:
    def test_warmer_redline_never_hurts(self, scenario):
        points = sweep_node_redline(
            scenario.datacenter, scenario.workload, scenario.p_const,
            np.asarray([23.0, 25.0, 28.0]))
        rewards = [p.reward_rate for p in points]
        assert all(np.diff(rewards) >= -1e-6)

    def test_restores_original_redline(self, scenario):
        before = scenario.datacenter.node_redline_c
        sweep_node_redline(scenario.datacenter, scenario.workload,
                           scenario.p_const, np.asarray([20.0, 25.0]))
        assert scenario.datacenter.node_redline_c == before

    def test_warmer_redline_warmer_outlets(self, scenario):
        """Extra headroom is spent running the CRACs warmer (cheaper)."""
        points = sweep_node_redline(
            scenario.datacenter, scenario.workload, scenario.p_const,
            np.asarray([23.0, 30.0]))
        if len(points) == 2:
            assert points[1].t_crac_out_mean \
                >= points[0].t_crac_out_mean - 1e-9
