"""Tests for repro.experiments.export — CSV series."""

import csv
import io

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.export import capacity_csv, fig6_csv, write_csv
from repro.experiments.runner import RunResult, SetResult
from repro.experiments.sweeps import CapSweepPoint


def tiny_results():
    cfg = ScenarioConfig(name="s1", n_nodes=10)
    runs = [
        RunResult(seed=0, reward_by_psi={25.0: 105.0, 50.0: 110.0},
                  baseline_reward=100.0, p_const=10.0),
        RunResult(seed=1, reward_by_psi={25.0: 103.0, 50.0: 108.0},
                  baseline_reward=100.0, p_const=10.0),
    ]
    return {"s1": SetResult(config=cfg, runs=runs)}


class TestFig6Csv:
    def test_parses_back(self):
        text = fig6_csv(tiny_results())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3   # psi=25, psi=50, best
        labels = {r["label"] for r in rows}
        assert labels == {"psi=25", "psi=50", "best"}
        for r in rows:
            assert float(r["ci_low"]) <= float(r["mean_improvement_pct"]) \
                <= float(r["ci_high"])
            assert int(r["n_runs"]) == 2

    def test_values_match_intervals(self):
        res = tiny_results()
        text = fig6_csv(res)
        rows = {r["label"]: r
                for r in csv.DictReader(io.StringIO(text))}
        ci = res["s1"].intervals["best"]
        assert float(rows["best"]["mean_improvement_pct"]) \
            == pytest.approx(ci.mean)


class TestCapacityCsv:
    def test_round_trip(self):
        points = [
            CapSweepPoint(p_const=10.0, reward_three_stage=100.0,
                          reward_baseline=90.0, power_used_kw=10.0,
                          marginal_reward_per_kw=5.0),
            CapSweepPoint(p_const=12.0, reward_three_stage=110.0,
                          reward_baseline=105.0, power_used_kw=12.0),
        ]
        rows = list(csv.DictReader(io.StringIO(capacity_csv(points))))
        assert len(rows) == 2
        assert float(rows[0]["p_const_kw"]) == 10.0
        assert float(rows[0]["improvement_pct"]) == pytest.approx(
            100.0 * 10.0 / 90.0)
        assert rows[1]["marginal_reward_per_kw"] == ""


class TestWrite:
    def test_write(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv("a,b\n1,2\n", path)
        assert path.read_text() == "a,b\n1,2\n"
