"""Parallel, resumable execution engine for the Figure 6 experiment.

The headline experiment is embarrassingly parallel — every run is a pure
function of ``(ScenarioConfig, seed)`` — but the original runner solved
its 25 scenarios per set strictly serially and aborted the whole set on
the first failure.  This engine adds the three things every large sweep
needs, without changing a single number:

* **Workers** — runs fan out over a ``ProcessPoolExecutor``
  (:class:`EngineConfig.jobs`).  Each worker recomputes its scenario
  from ``(config, seed)``, so results are bit-identical to the serial
  path regardless of scheduling order.
* **Caching / resume** — each finished run is written to
  ``cache_dir`` as JSON keyed on ``(ScenarioConfig, seed, ψ-set,
  code_version)``; with ``resume=True`` a second invocation replays
  cached runs instead of recomputing them, so interrupted sweeps pick
  up where they stopped.
* **Fault tolerance** — a retry-with-backoff wrapper distinguishes
  deterministic failures (``InfeasibleError``, verification errors)
  from transient ones, and records failures as
  :class:`~repro.experiments.runner.RunFailure` entries in the
  :class:`~repro.experiments.runner.SetResult` instead of crashing the
  set.  Zero-reward baselines are recorded as *degenerate* runs.

Every run outcome — computed, cached or failed — is reported as a
structured :class:`~repro.experiments.progress.RunEvent`.

The what-if studies (cap, chaos, control and tournament sweeps) share
one smaller driver, :func:`sweep`: a grid of arms over one frozen
config dataclass, cached per point under a key derived from all of the
config's fields (:func:`point_key`) and fanned out by
:func:`parallel_map`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.experiments.config import ScenarioConfig
from repro.experiments.generator import generate_scenario
from repro.experiments.progress import ProgressReporter, RunEvent
from repro.experiments.runner import (RunFailure, RunResult, SetResult,
                                      run_comparison)
from repro.obs import metrics as obs_metrics

__all__ = ["EngineConfig", "EngineError", "run_set", "run_sets",
           "parallel_map", "sweep", "SweepPoint", "DrawKey", "point_key",
           "cache_key",
           "cache_path", "canonical_json", "code_version", "load_point",
           "store_point", "CACHE_SCHEMA_VERSION"]

#: Bump when the cached payload layout (or run semantics) changes; old
#: cache entries are then ignored rather than misread.  2: cache keys
#: carried the numeric kernel name (no longer part of the key).
#: 3: ``solve()`` returns :class:`~repro.core.api.SolveResult` and the
#: solvers grew warm-start reuse paths.
#: 4: scenario configs carry the solver backend + its budget knobs
#: (``backend`` / ``backend_seed`` / ``max_evals``), splitting cached
#: points per backend.
#: 5: scenario configs carried a thermal backend (dense vs. sparse
#: heat-flow algebra agree only within float tolerance, so their cached
#: points must not be mixed).
#: 6: chaos points lost the wall-clock ``mean_replan_s``; a cached point
#: of the old layout no longer fits the point class.
CACHE_SCHEMA_VERSION = 6

#: Exceptions that are deterministic for a given ``(config, seed)`` —
#: retrying cannot help, so they fail fast (but are still recorded).
_NON_RETRYABLE = (ValueError, TypeError, ArithmeticError, AssertionError,
                  RuntimeError)


class EngineError(RuntimeError):
    """Too few valid runs survived to aggregate a simulation set."""


@dataclass(frozen=True)
class EngineConfig:
    """How to execute a sweep.

    Attributes
    ----------
    jobs:
        Worker processes; ``1`` keeps everything in-process (bit-identical
        either way, the pool only changes wall-clock time).
    cache_dir:
        Directory for per-run JSON results; ``None`` disables caching.
    resume:
        Consult the cache before computing.  Writes happen whenever
        ``cache_dir`` is set, so a first (non-resume) invocation
        populates the cache a later ``resume=True`` invocation replays.
    retries:
        Extra attempts for *transient* failures (deterministic solver
        errors fail fast).
    backoff_s:
        Base of the exponential retry backoff.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    resume: bool = False
    retries: int = 1
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


def code_version() -> str:
    """Version string baked into cache keys (package + schema)."""
    import repro

    return f"{repro.__version__}+cache{CACHE_SCHEMA_VERSION}"


def _canonicalize(value):
    """Recursively rewrite ``value`` into a canonical JSON-able form.

    Unordered collections (``set``/``frozenset``) are sorted by their
    members' canonical JSON encoding — the old ``default=list`` fallback
    serialized them in iteration order, which varies with
    ``PYTHONHASHSEED``, silently splitting the cache across processes.
    Unknown types raise instead of being coerced, so a new unhashed
    field in :class:`ScenarioConfig` is a loud error, not a wrong key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"cache-key dict keys must be str, got {type(k).__name__}")
            out[k] = _canonicalize(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        members = [_canonicalize(v) for v in value]
        return sorted(members, key=lambda m: json.dumps(m, sort_keys=True))
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for a cache key")


def canonical_json(payload) -> str:
    """Deterministic JSON encoding for cache keys.

    Stable across processes and ``PYTHONHASHSEED`` values: dict keys are
    sorted, sets are sorted by member encoding, and types without a
    canonical form raise ``TypeError``.
    """
    return json.dumps(_canonicalize(payload), sort_keys=True)


def cache_key(config: ScenarioConfig, seed: int) -> str:
    """Digest of everything that determines one run's result."""
    payload = {
        "code_version": code_version(),
        "config": asdict(config),
        "seed": int(seed),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def cache_path(cache_dir: str | Path, config: ScenarioConfig,
               seed: int) -> Path:
    """Readable-but-unique cache file for one run."""
    digest = cache_key(config, seed)
    return Path(cache_dir) / f"{config.name}-seed{seed}-{digest[:16]}.json"


def _load_cached(cache_dir: Path, config: ScenarioConfig,
                 seed: int) -> dict | None:
    path = cache_path(cache_dir, config, seed)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("schema") != CACHE_SCHEMA_VERSION \
            or payload.get("code_version") != code_version():
        return None
    if payload.get("status") not in ("ok", "failed"):
        return None
    return payload


def _store_cached(cache_dir: Path, config: ScenarioConfig, seed: int,
                  payload: dict) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, config, seed)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True, allow_nan=False))
    os.replace(tmp, path)


class SweepPoint:
    """Base of the sweep point dataclasses: JSON through their fields.

    ``to_dict`` is :func:`dataclasses.asdict` and ``from_dict`` calls the
    constructor on the same keys, so a new field is serialised, cached
    and replayed without touching a converter.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict):
        return cls(**doc)


@dataclass(frozen=True)
class DrawKey:
    """Memo key of a sweep's shared random draws: equal and hashed by
    ``config`` alone.  ``workload`` is the workload the config's room
    generates, which the draws need; it rides along uncompared, so a
    memo hit never depends on which arm's room supplied it."""

    config: object
    workload: object = field(compare=False)


def point_key(tag: str, config, arm: dict) -> str:
    """Digest of one sweep point: the whole config dataclass plus the arm.

    Every field of ``config`` reaches the key through
    :func:`dataclasses.asdict`, so a new config field splits the cache
    without a key list to keep in step.
    """
    payload = {"code_version": code_version(), "tag": tag,
               "config": asdict(config), "arm": arm}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _point_path(cache_dir: str | Path, tag: str, config, arm: dict) -> Path:
    return Path(cache_dir) / f"{tag}-{point_key(tag, config, arm)[:16]}.json"


def load_point(cache_dir: str | Path, tag: str, config,
               arm: dict) -> dict | None:
    """The cached payload of one sweep point, or ``None`` on a miss."""
    path = _point_path(cache_dir, tag, config, arm)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("schema") != CACHE_SCHEMA_VERSION:
        return None
    return payload


def store_point(cache_dir: str | Path, tag: str, config, arm: dict,
                point: dict | None) -> None:
    """Persist one sweep point as strict JSON (``None`` is a valid point)."""
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = _point_path(directory, tag, config, arm)
    payload = {"schema": CACHE_SCHEMA_VERSION, "point": point}
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True, allow_nan=False))
    os.replace(tmp, path)


def _run_arm(run: Callable, config, arm: dict):
    """``run(config, **arm)``; module-level so worker pools can pickle it."""
    return run(config, **arm)


def sweep(tag: str, config, arms: Sequence[dict], run: Callable,
          point_cls: type[SweepPoint], *, jobs: int = 1,
          cache_dir: str | Path | None = None,
          resume: bool = False) -> list:
    """Evaluate ``run(config, **arm)`` for every arm, cached and parallel.

    ``config`` is a frozen dataclass and each arm a dict of keyword
    arguments; together they key the point cache (:func:`point_key`).
    With ``resume`` cached points are replayed, the rest fan out through
    :func:`parallel_map` (``run`` must be picklable for ``jobs > 1``)
    and, with a ``cache_dir``, are stored.  Points come back in arm
    order; ``run`` may return ``None`` (an infeasible point), which is
    cached and returned as ``None`` too.
    """
    points: list = [None] * len(arms)
    pending: list[int] = []
    for index, arm in enumerate(arms):
        payload = load_point(cache_dir, tag, config, arm) \
            if (cache_dir is not None and resume) else None
        if payload is None:
            pending.append(index)
        elif payload["point"] is not None:
            points[index] = point_cls.from_dict(payload["point"])
    computed = parallel_map(partial(_run_arm, run, config),
                            [arms[i] for i in pending], jobs=jobs)
    for index, point in zip(pending, computed):
        points[index] = point
        if cache_dir is not None:
            store_point(cache_dir, tag, config, arms[index],
                        None if point is None else point.to_dict())
    return points


@dataclass(frozen=True)
class _Outcome:
    """Picklable result of one executed run (success or failure)."""

    seed: int
    status: str                 # "ok" | "failed"
    run: dict | None            # RunResult.to_dict()
    failure: dict | None        # RunFailure.to_dict()
    wall_time_s: float
    worker_pid: int
    obs: dict | None = None     # spans + metrics snapshot (traced runs)

    def payload(self, config: ScenarioConfig) -> dict:
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "code_version": code_version(),
            "set": config.name,
            "seed": self.seed,
            "status": self.status,
            "run": self.run,
            "failure": self.failure,
            "wall_time_s": self.wall_time_s,
            "obs": self.obs,
        }


def _execute_comparison(config: ScenarioConfig, seed: int,
                        retries: int = 1, backoff_s: float = 0.05,
                        trace: bool = False) -> _Outcome:
    """One run with retry/backoff; never raises (failures are data).

    Top-level so :class:`ProcessPoolExecutor` can pickle it.  With
    ``trace=True`` the run executes inside :func:`repro.obs.capture`
    (fresh isolated span/metric state, inline or in a worker alike) and
    the outcome carries the picklable snapshot for the parent to merge.
    """
    if not trace:
        return _execute_comparison_body(config, seed, retries, backoff_s)
    with obs.capture() as snapshot:
        outcome = _execute_comparison_body(config, seed, retries, backoff_s)
    return _Outcome(seed=outcome.seed, status=outcome.status,
                    run=outcome.run, failure=outcome.failure,
                    wall_time_s=outcome.wall_time_s,
                    worker_pid=outcome.worker_pid, obs=snapshot())


def _execute_comparison_body(config: ScenarioConfig, seed: int,
                             retries: int, backoff_s: float) -> _Outcome:
    t0 = time.perf_counter()
    attempts = 0
    p_const: float | None = None
    while True:
        attempts += 1
        try:
            scenario = generate_scenario(config, seed)
            p_const = scenario.p_const
            run = run_comparison(scenario)
            return _Outcome(seed=seed, status="ok", run=run.to_dict(),
                            failure=None,
                            wall_time_s=time.perf_counter() - t0,
                            worker_pid=os.getpid())
        except _NON_RETRYABLE as exc:
            error = exc
            break
        # the one deliberate broad catch: transient failures (I/O,
        # memory pressure, ...) are retried and then recorded as data
        except Exception as exc:  # repro-lint: disable=RL020
            error = exc
            if attempts > retries:
                break
            time.sleep(backoff_s * (2 ** (attempts - 1)))
    failure = RunFailure(seed=seed, error_type=type(error).__name__,
                         message=str(error), attempts=attempts,
                         p_const=p_const)
    return _Outcome(seed=seed, status="failed", run=None,
                    failure=failure.to_dict(),
                    wall_time_s=time.perf_counter() - t0,
                    worker_pid=os.getpid())


def _event_for(config: ScenarioConfig, run_index: int, n_runs: int,
               payload: dict, *, source: str, worker: str,
               wall_time_s: float) -> RunEvent:
    if payload["status"] == "ok":
        run = RunResult.from_dict(payload["run"])
        if run.is_degenerate:
            status, detail = "degenerate", "baseline earned zero reward"
        else:
            status = "ok"
            detail = f"best improvement {run.improvement_pct(None):+.2f}%"
    else:
        status = "failed"
        fail = payload["failure"]
        detail = f"{fail['error_type']}: {fail['message']}"
    return RunEvent(set_name=config.name, run_index=run_index,
                    n_runs=n_runs, seed=int(payload["seed"]),
                    status=status, source=source, worker=worker,
                    wall_time_s=wall_time_s, detail=detail)


def run_set(config: ScenarioConfig, n_runs: int = 25,
            base_seed: int = 1000, *, engine: EngineConfig | None = None,
            reporter: ProgressReporter | None = None) -> SetResult:
    """Run one simulation set through the engine and aggregate.

    Seeds are ``base_seed + run_index`` — identical to the historical
    serial runner, so cached, serial and parallel executions all produce
    the same per-run numbers.

    Raises :class:`EngineError` when fewer than two runs remain valid
    after removing failures and degenerate runs.
    """
    engine = engine or EngineConfig()
    if n_runs < 2:
        raise ValueError("a simulation set needs at least two runs for CIs")
    trace = obs.enabled()
    cache_dir = Path(engine.cache_dir) if engine.cache_dir else None
    seeds = [base_seed + r for r in range(n_runs)]
    index_of = {seed: i for i, seed in enumerate(seeds)}
    payloads: dict[int, dict] = {}

    def finish(outcome: _Outcome) -> None:
        payload = outcome.payload(config)
        payloads[outcome.seed] = payload
        if cache_dir is not None:
            _store_cached(cache_dir, config, outcome.seed, payload)
        if reporter is not None:
            worker = "inline" if outcome.worker_pid == os.getpid() \
                else f"pid:{outcome.worker_pid}"
            reporter.emit(_event_for(
                config, index_of[outcome.seed], n_runs, payload,
                source="worker", worker=worker,
                wall_time_s=outcome.wall_time_s))

    pending: list[int] = []
    for seed in seeds:
        payload = _load_cached(cache_dir, config, seed) \
            if (cache_dir is not None and engine.resume) else None
        if payload is not None:
            payloads[seed] = payload
            obs_metrics.counter("engine.cache_hits").inc()
            if reporter is not None:
                reporter.emit(_event_for(
                    config, index_of[seed], n_runs, payload,
                    source="cache", worker="cache", wall_time_s=0.0))
        else:
            pending.append(seed)
    obs_metrics.counter("engine.runs_computed").inc(len(pending))

    if engine.jobs > 1 and len(pending) > 1:
        workers = min(engine.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_comparison, config, seed,
                                   engine.retries, engine.backoff_s, trace)
                       for seed in pending]
            for future in as_completed(futures):
                finish(future.result())
    else:
        for seed in pending:
            finish(_execute_comparison(config, seed, engine.retries,
                                       engine.backoff_s, trace))

    runs: list[RunResult] = []
    degenerate: list[RunResult] = []
    failures: list[RunFailure] = []
    for seed in seeds:
        payload = payloads[seed]
        if trace and payload.get("obs"):
            # seed order fixes the merge order, so the profile tree's
            # structure is identical for every --jobs value (and for
            # cache replays, which stored the original run's snapshot)
            obs.merge_snapshot(payload["obs"])
        if payload["status"] == "ok":
            run = RunResult.from_dict(payload["run"])
            (degenerate if run.is_degenerate else runs).append(run)
        else:
            failures.append(RunFailure.from_dict(payload["failure"]))
    if len(runs) < 2:
        detail = "; ".join(
            f"seed {f.seed}: {f.error_type}: {f.message}" for f in failures)
        raise EngineError(
            f"set {config.name!r}: only {len(runs)} of {n_runs} runs valid "
            f"({len(degenerate)} degenerate, {len(failures)} failed"
            f"{': ' + detail if detail else ''})")
    return SetResult(config=config, runs=runs, degenerate=degenerate,
                     failures=failures)


def run_sets(configs: Sequence[ScenarioConfig], n_runs: int = 25,
             base_seed: int = 1000, *,
             engine: EngineConfig | None = None,
             reporter: ProgressReporter | None = None
             ) -> dict[str, SetResult]:
    """Run several simulation sets (the whole Figure 6 experiment)."""
    return {
        config.name: run_set(config, n_runs=n_runs, base_seed=base_seed,
                             engine=engine, reporter=reporter)
        for config in configs
    }


def _call_captured(fn: Callable, item) -> tuple:
    """Run ``fn(item)`` under :func:`repro.obs.capture`; picklable."""
    with obs.capture() as snapshot:
        result = fn(item)
    return result, snapshot()


def parallel_map(fn: Callable, items: Iterable, *, jobs: int = 1) -> list:
    """Order-preserving map, optionally across worker processes.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one) when ``jobs > 1``.  Used by the sweep
    and benchmark drivers to ride the same pool as the engine.

    When tracing is enabled, each item runs inside its own capture and
    the snapshots merge back in *item* order — like the engine's
    seed-order merge, the resulting profile structure does not depend on
    ``jobs``.
    """
    items = list(items)
    if not obs.enabled():
        if jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items))
    if jobs <= 1 or len(items) <= 1:
        pairs = [_call_captured(fn, item) for item in items]
    else:
        call = partial(_call_captured, fn)
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            pairs = list(pool.map(call, items))
    results = []
    for result, snapshot in pairs:
        obs.merge_snapshot(snapshot)
        results.append(result)
    return results
