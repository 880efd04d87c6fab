"""Tests for repro.experiments.engine — workers, caching, fault tolerance."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import engine as engine_mod
from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import (EngineConfig, EngineError, SweepPoint,
                                      cache_key, cache_path, parallel_map,
                                      run_set, run_sets, sweep)
from repro.experiments.progress import ProgressReporter
from repro.experiments.runner import RunResult
from repro.optimize.linprog import InfeasibleError

TINY = ScenarioConfig(name="engine-tiny", n_nodes=10, n_crac=3)


def _fake_run(scenario, baseline=100.0):
    return RunResult(seed=scenario.seed,
                     reward_by_psi={25.0: 110.0, 50.0: 120.0},
                     baseline_reward=baseline, p_const=scenario.p_const)


def _double(x):
    return 2 * x


#: ``PYTHONHASHSEED`` values the subprocess determinism checks run under.
HASH_SEEDS = ("0", "7", "31337")


def _stdout_under_hash_seeds(argv, *, seeds=HASH_SEEDS, cwd=None) -> set:
    """The distinct stdouts of ``python argv``, once per hash seed.

    Hash randomization is fixed at interpreter start-up, so only a fresh
    process per seed can show that an output does not depend on it; a
    result of one element means it does not.
    """
    src = str(Path(engine_mod.__file__).parents[2])
    outputs = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True)
        outputs.add(out.stdout)
    return outputs


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(TINY, 7) == cache_key(TINY, 7)

    def test_seed_changes_key(self):
        assert cache_key(TINY, 7) != cache_key(TINY, 8)

    def test_config_changes_key(self):
        from dataclasses import replace

        other = replace(TINY, psis=(25.0, 50.0, 75.0))
        assert cache_key(TINY, 7) != cache_key(other, 7)

    def test_path_is_readable(self, tmp_path):
        path = cache_path(tmp_path, TINY, 42)
        assert path.name.startswith("engine-tiny-seed42-")
        assert path.suffix == ".json"

    def test_frozenset_and_nested_tuple_round_trip(self):
        """The PR-3 postmortem footgun: only ``set`` was regression-
        tested through ``cache_key``.  A config carrying a frozenset
        (inside a nested tuple) must key identically regardless of the
        frozenset's construction order — and must not raise."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FrozenConfig:
            name: str = "frozen-tiny"
            psis: tuple = (25.0, (50.0, 75.0))
            tags: frozenset = frozenset()

        a = FrozenConfig(tags=frozenset({"slow", "hot", "big"}))
        b = FrozenConfig(tags=frozenset({"big", "hot", "slow"}))
        assert cache_key(a, 7) == cache_key(b, 7)
        assert cache_key(a, 7) != cache_key(FrozenConfig(), 7)

    def test_frozenset_digest_stable_across_hash_seeds(self):
        """Subprocess check: frozenset-bearing keys are
        PYTHONHASHSEED-proof end to end (sets were already covered)."""
        code = (
            "from dataclasses import dataclass\n"
            "from repro.experiments.engine import cache_key\n"
            "@dataclass(frozen=True)\n"
            "class C:\n"
            "    name: str = 'fs'\n"
            "    tags: frozenset = frozenset('abcdefgh')\n"
            "    nested: tuple = ((1.0, 2.0), (3.0,))\n"
            "print(cache_key(C(), 3))\n")
        assert len(_stdout_under_hash_seeds(["-c", code])) == 1


class TestEngineConfig:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            EngineConfig(jobs=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            EngineConfig(retries=-1)


class TestSerialParallelCache:
    """The acceptance triangle: serial == parallel == cached replay."""

    def test_equality_and_resume(self, tmp_path, monkeypatch):
        n_runs, base_seed = 3, 100
        serial = run_set(TINY, n_runs=n_runs, base_seed=base_seed,
                         engine=EngineConfig(jobs=1, cache_dir=tmp_path))
        parallel = run_set(TINY, n_runs=n_runs, base_seed=base_seed,
                           engine=EngineConfig(jobs=2))
        assert serial.runs == parallel.runs
        for label in serial.improvements:
            np.testing.assert_array_equal(serial.improvements[label],
                                          parallel.improvements[label])

        # resume must replay the cache without any recomputation
        def forbid(*args, **kwargs):
            raise AssertionError("resume recomputed a cached run")

        monkeypatch.setattr(engine_mod, "_execute_comparison", forbid)
        reporter = ProgressReporter()
        resumed = run_set(TINY, n_runs=n_runs, base_seed=base_seed,
                          engine=EngineConfig(jobs=1, cache_dir=tmp_path,
                                              resume=True),
                          reporter=reporter)
        assert resumed.runs == serial.runs
        assert reporter.cache_hits == n_runs
        assert reporter.computed == 0
        assert all(e.cache_hit for e in reporter.events)

    def test_stale_code_version_recomputes(self, tmp_path, monkeypatch):
        calls = []

        def fake(scenario):
            calls.append(scenario.seed)
            return _fake_run(scenario)

        monkeypatch.setattr(engine_mod, "run_comparison", fake)
        run_set(TINY, n_runs=2, base_seed=300,
                engine=EngineConfig(cache_dir=tmp_path))
        # corrupt one entry's version stamp; resume must recompute it
        path = cache_path(tmp_path, TINY, 300)
        payload = json.loads(path.read_text())
        payload["code_version"] = "0.0.0+cache0"
        path.write_text(json.dumps(payload))
        calls.clear()
        reporter = ProgressReporter()
        run_set(TINY, n_runs=2, base_seed=300,
                engine=EngineConfig(cache_dir=tmp_path, resume=True),
                reporter=reporter)
        assert calls == [300]
        assert reporter.cache_hits == 1 and reporter.computed == 1


class TestFaultTolerance:
    def test_infeasible_run_recorded_not_fatal(self, monkeypatch):
        def flaky(scenario):
            if scenario.seed == 201:
                raise InfeasibleError("forced infeasible")
            return _fake_run(scenario)

        monkeypatch.setattr(engine_mod, "run_comparison", flaky)
        reporter = ProgressReporter()
        res = run_set(TINY, n_runs=3, base_seed=200,
                      engine=EngineConfig(jobs=1), reporter=reporter)
        assert [r.seed for r in res.runs] == [200, 202]
        assert len(res.failures) == 1
        failure = res.failures[0]
        assert failure.seed == 201
        assert failure.error_type == "InfeasibleError"
        assert failure.attempts == 1          # deterministic: no retry
        assert failure.p_const is not None and failure.p_const > 0
        assert res.n_attempted == 3
        assert reporter.failed == 1

    def test_degenerate_baseline_recorded(self, monkeypatch):
        def sometimes_zero(scenario):
            baseline = 0.0 if scenario.seed == 401 else 100.0
            return _fake_run(scenario, baseline=baseline)

        monkeypatch.setattr(engine_mod, "run_comparison", sometimes_zero)
        reporter = ProgressReporter()
        res = run_set(TINY, n_runs=3, base_seed=400, reporter=reporter)
        assert len(res.runs) == 2
        assert [r.seed for r in res.degenerate] == [401]
        assert reporter.degenerate == 1
        for label, samples in res.improvements.items():
            assert samples.shape == (2,)      # degenerate run excluded

    def test_transient_error_retried(self, monkeypatch):
        calls = {"n": 0}

        def flaky_once(scenario):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return _fake_run(scenario)

        monkeypatch.setattr(engine_mod, "run_comparison", flaky_once)
        res = run_set(TINY, n_runs=2, base_seed=500,
                      engine=EngineConfig(retries=2, backoff_s=0.0))
        assert len(res.runs) == 2 and not res.failures
        assert calls["n"] == 3                # first run took two attempts

    def test_transient_error_exhausts_retries(self, monkeypatch):
        def always_fails(scenario):
            if scenario.seed == 601:
                raise OSError("still down")
            return _fake_run(scenario)

        monkeypatch.setattr(engine_mod, "run_comparison", always_fails)
        res = run_set(TINY, n_runs=3, base_seed=600,
                      engine=EngineConfig(retries=1, backoff_s=0.0))
        assert len(res.failures) == 1
        assert res.failures[0].attempts == 2

    def test_too_few_valid_runs_raises(self, monkeypatch):
        def always_infeasible(scenario):
            raise InfeasibleError("nothing fits")

        monkeypatch.setattr(engine_mod, "run_comparison", always_infeasible)
        with pytest.raises(EngineError, match="engine-tiny"):
            run_set(TINY, n_runs=3, base_seed=700)

    def test_failures_cached_and_resumed(self, tmp_path, monkeypatch):
        def flaky(scenario):
            if scenario.seed == 801:
                raise InfeasibleError("forced")
            return _fake_run(scenario)

        monkeypatch.setattr(engine_mod, "run_comparison", flaky)
        run_set(TINY, n_runs=3, base_seed=800,
                engine=EngineConfig(cache_dir=tmp_path))

        def forbid(*args, **kwargs):
            raise AssertionError("recomputed")

        monkeypatch.setattr(engine_mod, "_execute_comparison", forbid)
        res = run_set(TINY, n_runs=3, base_seed=800,
                      engine=EngineConfig(cache_dir=tmp_path, resume=True))
        assert len(res.failures) == 1 and res.failures[0].seed == 801


class TestRunSets:
    def test_multiple_sets(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "run_comparison", _fake_run)
        from dataclasses import replace

        configs = [TINY, replace(TINY, name="engine-tiny2")]
        results = run_sets(configs, n_runs=2, base_seed=900)
        assert set(results) == {"engine-tiny", "engine-tiny2"}

    def test_needs_two_runs(self):
        with pytest.raises(ValueError, match="two runs"):
            run_set(TINY, n_runs=1)


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_parallel_preserves_order(self):
        assert parallel_map(_double, list(range(8)), jobs=2) \
            == [2 * x for x in range(8)]

    def test_empty(self):
        assert parallel_map(_double, [], jobs=4) == []


@dataclass(frozen=True)
class _SweepConfig:
    scale: int = 3


@dataclass
class _SweepPoint(SweepPoint):
    x: int
    scaled: int
    note: str | None = None


def _sweep_run(config: _SweepConfig, x: int) -> _SweepPoint | None:
    """``None`` for negative ``x`` (an infeasible point)."""
    return None if x < 0 else _SweepPoint(x=x, scaled=config.scale * x)


def _no_run(config, x):
    raise AssertionError("a resumed sweep recomputed a cached point")


class TestSweep:
    ARMS = [{"x": 2}, {"x": -1}, {"x": 0}, {"x": 5}]

    def test_points_in_arm_order(self):
        points = sweep("t", _SweepConfig(), self.ARMS, _sweep_run,
                       _SweepPoint)
        assert [p and p.scaled for p in points] == [6, None, 0, 15]

    def test_resume_replays_every_point_including_none(self, tmp_path):
        first = sweep("t", _SweepConfig(), self.ARMS, _sweep_run,
                      _SweepPoint, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("t-*.json"))) == len(self.ARMS)
        again = sweep("t", _SweepConfig(), self.ARMS, _no_run, _SweepPoint,
                      cache_dir=tmp_path, resume=True)
        assert again == first

    def test_point_round_trips_through_dict(self):
        point = _SweepPoint(x=1, scaled=3, note=None)
        assert point.to_dict() == {"x": 1, "scaled": 3, "note": None}
        assert _SweepPoint.from_dict(point.to_dict()) == point

    def test_cache_files_are_strict_json(self, tmp_path):
        bad = _SweepPoint(x=1, scaled=float("nan"))
        with pytest.raises(ValueError):
            engine_mod.store_point(tmp_path, "t", _SweepConfig(), {"x": 1},
                                   bad.to_dict())


class TestCanonicalJson:
    """Regression: cache keys must not depend on hash randomization.

    ``cache_key`` used to serialize via ``json.dumps(..., default=list)``
    — a ``set`` field serialized in iteration order, which varies with
    ``PYTHONHASHSEED``, silently splitting the cache across processes.
    """

    def test_sets_serialize_sorted(self):
        from repro.experiments.engine import canonical_json

        a = canonical_json({"s": {"x", "y", "z", "w"}})
        b = canonical_json({"s": {"w", "z", "y", "x"}})
        assert a == b
        assert a == '{"s": ["w", "x", "y", "z"]}'

    def test_nested_collections(self):
        from repro.experiments.engine import canonical_json

        doc = canonical_json({"a": ({"k": frozenset({2, 1})},)})
        assert doc == '{"a": [{"k": [1, 2]}]}'

    def test_unknown_type_raises(self):
        from repro.experiments.engine import canonical_json

        with pytest.raises(TypeError, match="canonicalize"):
            canonical_json({"obj": object()})

    def test_non_string_dict_key_raises(self):
        from repro.experiments.engine import canonical_json

        with pytest.raises(TypeError, match="keys must be str"):
            canonical_json({1: "x"})

    def test_stable_across_hash_seeds(self):
        """The digest of a set-bearing payload is PYTHONHASHSEED-proof."""
        code = (
            "import hashlib\n"
            "from repro.experiments.engine import canonical_json\n"
            "payload = {'members': set('abcdefghij'), 'n': 3}\n"
            "print(hashlib.sha256("
            "canonical_json(payload).encode()).hexdigest())\n")
        digests = _stdout_under_hash_seeds(["-c", code],
                                           seeds=("0", "1", "424242"))
        assert len(digests) == 1

    def test_cache_key_unchanged_for_plain_config(self):
        # the canonicalization must be a no-op for JSON-native payloads:
        # existing caches built from plain configs stay valid
        import hashlib
        import json
        from dataclasses import asdict

        from repro.experiments.engine import code_version

        payload = {"code_version": code_version(),
                   "config": asdict(TINY), "seed": 7}
        legacy = hashlib.sha256(
            json.dumps(payload, sort_keys=True,
                       default=list).encode()).hexdigest()
        assert cache_key(TINY, 7) == legacy


class TestHashSeedInvariance:
    """Keys, digests and sweep output are the same under every
    ``PYTHONHASHSEED``: the runtime form of the determinism contract.

    Each check runs the code in a fresh interpreter per hash seed, so a
    hash-ordered ``set``/``frozenset`` reaching a digest or a JSON
    document (the cache-split defect ``canonical_json`` exists to
    prevent) shows up as more than one distinct output.
    """

    def test_point_key_frozenset_config(self):
        code = (
            "from dataclasses import dataclass\n"
            "from repro.experiments.engine import point_key\n"
            "@dataclass(frozen=True)\n"
            "class C:\n"
            "    n_nodes: int = 6\n"
            "    tags: frozenset = frozenset('abcdefgh')\n"
            "print(point_key('sweep', C(), {'factor': 1.0}))\n")
        assert len(_stdout_under_hash_seeds(["-c", code])) == 1

    def test_compute_digests_seeded_room(self):
        code = (
            "from repro.core.api import SolveOptions\n"
            "from repro.core.warmstart import compute_digests\n"
            "from repro.experiments.config import PAPER_SET_1, "
            "scaled_down\n"
            "from repro.experiments.generator import generate_scenario\n"
            "room = generate_scenario(scaled_down(PAPER_SET_1, 6), 1)\n"
            "print(compute_digests(room.datacenter, room.workload, "
            "room.p_const, SolveOptions()))\n")
        assert len(_stdout_under_hash_seeds(["-c", code])) == 1

    def test_tournament_json(self, tmp_path):
        # two backends, so the order of the points is part of the output
        argv = ["-m", "repro", "tournament", "--nodes", "6",
                "--seed", "1000", "--backends", "annealing,evolution",
                "--max-evals", "40", "--json"]
        outputs = _stdout_under_hash_seeds(argv, cwd=tmp_path)
        assert len(outputs) == 1
        points = json.loads(outputs.pop())["points"]
        assert [p["backend"] for p in points] == ["annealing", "evolution"]
