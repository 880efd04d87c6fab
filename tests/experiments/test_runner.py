"""Tests for repro.experiments.runner — comparison runs and CIs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments.config import ScenarioConfig
from repro.experiments.generator import generate_scenario
from repro.experiments.runner import (DegenerateBaselineError, RunResult,
                                      confidence_interval, run_comparison,
                                      run_simulation_set)

SMALL = ScenarioConfig(name="tiny", n_nodes=15, n_crac=3)


def test_entry_points_do_not_import_scipy_stats():
    """scipy.stats is imported only by :func:`confidence_interval`, so
    the solve, serve and control entry points load without it."""
    code = ("import sys\n"
            "import repro.core.api, repro.experiments.runner\n"
            "import repro.experiments.control, repro.serve\n"
            "print('scipy.stats' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestConfidenceInterval:
    def test_known_values(self):
        # n=4, mean 2.5, sd 1.2909..., t(0.975, 3) = 3.1824
        ci = confidence_interval(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert ci.mean == pytest.approx(2.5)
        sem = np.std([1, 2, 3, 4], ddof=1) / 2.0
        assert ci.half_width == pytest.approx(3.1824 * sem, rel=1e-3)

    def test_bounds(self):
        ci = confidence_interval(np.asarray([1.0, 2.0, 3.0]))
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)

    def test_zero_variance(self):
        ci = confidence_interval(np.asarray([5.0, 5.0, 5.0]))
        assert ci.mean == 5.0
        assert ci.half_width == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            confidence_interval(np.asarray([1.0]))

    def test_wider_level_wider_interval(self):
        data = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        assert confidence_interval(data, 0.99).half_width \
            > confidence_interval(data, 0.95).half_width


class TestRunResult:
    def make(self, rewards, base):
        return RunResult(seed=0, reward_by_psi=rewards,
                         baseline_reward=base, p_const=10.0)

    def test_improvement_pct(self):
        r = self.make({25.0: 110.0, 50.0: 105.0}, 100.0)
        assert r.improvement_pct(25.0) == pytest.approx(10.0)
        assert r.improvement_pct(None) == pytest.approx(10.0)
        assert r.best_reward == 110.0

    def test_negative_improvement_possible(self):
        r = self.make({50.0: 90.0}, 100.0)
        assert r.improvement_pct(50.0) == pytest.approx(-10.0)

    def test_zero_baseline_rejected(self):
        r = self.make({50.0: 90.0}, 0.0)
        assert r.is_degenerate
        with pytest.raises(ValueError, match="seed 0") as excinfo:
            r.improvement_pct(None)
        assert isinstance(excinfo.value, DegenerateBaselineError)
        assert excinfo.value.seed == 0
        assert excinfo.value.p_const == pytest.approx(10.0)

    def test_round_trip_dict(self):
        r = self.make({25.0: 110.0, 50.0: 105.0}, 100.0)
        assert RunResult.from_dict(r.to_dict()) == r


class TestRunComparison:
    def test_one_run(self):
        scenario = generate_scenario(SMALL, 7)
        result = run_comparison(scenario)
        assert set(result.reward_by_psi) == {25.0, 50.0}
        assert result.baseline_reward > 0
        assert np.isfinite(result.improvement_pct(None))

    def test_deterministic_given_seed(self):
        r1 = run_comparison(generate_scenario(SMALL, 11))
        r2 = run_comparison(generate_scenario(SMALL, 11))
        assert r1.reward_by_psi == r2.reward_by_psi
        assert r1.baseline_reward == r2.baseline_reward


class TestRunSet:
    def test_aggregation(self):
        res = run_simulation_set(SMALL, n_runs=3, base_seed=50)
        assert len(res.runs) == 3
        assert set(res.improvements) == {"psi=25", "psi=50", "best"}
        for label, samples in res.improvements.items():
            assert samples.shape == (3,)
            ci = res.intervals[label]
            assert ci.mean == pytest.approx(samples.mean())

    def test_best_dominates_each_psi(self):
        res = run_simulation_set(SMALL, n_runs=3, base_seed=60)
        best = res.improvements["best"]
        assert np.all(best >= res.improvements["psi=25"] - 1e-9)
        assert np.all(best >= res.improvements["psi=50"] - 1e-9)

    def test_needs_two_runs(self):
        with pytest.raises(ValueError, match="two runs"):
            run_simulation_set(SMALL, n_runs=1)
