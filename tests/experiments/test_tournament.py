"""Tournament sweep: ordering, gaps, caching, jobs-independence."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.tournament import (TournamentConfig,
                                          TournamentPoint,
                                          run_tournament_point,
                                          sweep_tournament,
                                          tournament_table)

from tests.conftest import SEED

SMALL = TournamentConfig(n_nodes=6, seed=SEED, sets=(1,),
                         backends=("three_stage", "annealing"),
                         max_evals=60, tau_s=30.0)


@pytest.fixture(scope="module")
def points():
    return sweep_tournament(SMALL)


class TestSweep:
    def test_point_order_follows_config(self, points):
        assert [(p.set, p.backend) for p in points] == [
            (1, "three_stage"), (1, "annealing")]

    def test_three_stage_anchor_has_zero_gap(self, points):
        anchor = points[0]
        assert anchor.backend == "three_stage"
        assert anchor.gap_pct == pytest.approx(0.0)

    def test_metaheuristic_gap_relative_to_anchor(self, points):
        anchor, meta = points
        expected = 100.0 * (1.0 - meta.reward_rate / anchor.reward_rate)
        assert meta.gap_pct == pytest.approx(expected)

    def test_gap_none_without_three_stage(self):
        config = replace(SMALL, backends=("annealing",))
        (point,) = sweep_tournament(config)
        assert point.gap_pct is None
        # strict JSON: an undefined gap serializes as null, never NaN
        assert '"gap_pct": null' in json.dumps(point.to_dict(),
                                               allow_nan=False)

    def test_all_points_feasible_and_clean(self, points):
        for p in points:
            assert p.reward_rate >= 0.0
            assert p.violation_minutes == pytest.approx(0.0)
            assert p.p_const > 0.0

    def test_builtin_consumes_no_evaluations(self, points):
        assert points[0].evaluations == 0
        assert 0 < points[1].evaluations <= SMALL.max_evals

    def test_jobs_do_not_change_results(self, points):
        parallel = sweep_tournament(SMALL, jobs=2)
        assert [p.to_dict() for p in parallel] == \
            [p.to_dict() for p in points]

    def test_point_roundtrips_through_dict(self, points):
        for p in points:
            doc = p.to_dict()
            again = TournamentPoint.from_dict(doc)
            assert again.to_dict() == doc

    def test_single_point_matches_sweep(self, points):
        point = run_tournament_point(SMALL, 1, "annealing")
        sweep_meta = points[1]
        assert point.reward_rate == pytest.approx(sweep_meta.reward_rate)
        assert point.evaluations == sweep_meta.evaluations


class TestCache:
    def test_resume_round_trip(self, tmp_path, points):
        cached = sweep_tournament(SMALL, cache_dir=str(tmp_path),
                                  resume=True)
        assert [p.to_dict() for p in cached] == \
            [p.to_dict() for p in points]
        # every point landed on disk; a resumed sweep loads them all
        files = list(tmp_path.glob("*.json"))
        assert len(files) == len(points)
        resumed = sweep_tournament(SMALL, cache_dir=str(tmp_path),
                                   resume=True)
        assert [p.to_dict() for p in resumed] == \
            [p.to_dict() for p in points]


class TestConfigValidation:
    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TournamentConfig(sets=())

    def test_empty_backends_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TournamentConfig(backends=())

    def test_bad_set_index_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            TournamentConfig(sets=(4,))


class TestTable:
    def test_table_lists_every_point(self, points):
        table = tournament_table(points)
        for p in points:
            assert p.backend in table
        assert "gap" in table

    def test_undefined_gap_renders_as_dashes(self):
        point = TournamentPoint(set=1, backend="annealing",
                                reward_rate=1.0, evaluations=10,
                                violation_minutes=0.0, p_const=5.0)
        assert "---" in tournament_table([point])

