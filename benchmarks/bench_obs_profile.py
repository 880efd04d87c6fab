"""Observability layer — tracing overhead and the profile artifact.

Runs the first-step solve + second-step DES replay twice on the same
room: once with :mod:`repro.obs` disabled (the tier-1 configuration)
and once recording.  Reports the relative overhead — the layer's
contract is <2% while disabled and modest while enabled — and writes
the enabled run's aggregated profile tree plus metrics snapshot to
``BENCH_obs.json`` (the same document ``repro profile --json`` emits
for a ``--trace-out`` log).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import three_stage_assignment
from repro.experiments import ScenarioConfig, generate_scenario
from repro.obs import profile_from_snapshot, profile_to_dict
from repro.simulate import simulate_trace
from repro.workload import generate_trace

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _pipeline(sc, horizon):
    plan = three_stage_assignment(sc.datacenter, sc.workload, sc.p_const,
                                  psi=50.0)
    trace = generate_trace(sc.workload, horizon,
                           np.random.default_rng(sc.seed + 1))
    return simulate_trace(sc.datacenter, sc.workload, plan.tc,
                          plan.pstates, trace, duration=horizon)


def bench_obs_profile(benchmark, capsys, scale):
    sc = generate_scenario(
        ScenarioConfig(name="obs", n_nodes=min(20, scale.n_nodes)), 11)
    horizon = scale.des_horizon

    # warm-up (imports, caches) so both timed passes see the same state
    _pipeline(sc, horizon)

    t0 = time.perf_counter()
    untraced = _pipeline(sc, horizon)
    wall_off = time.perf_counter() - t0

    with obs.capture() as snap_fn:
        t0 = time.perf_counter()
        traced = _pipeline(sc, horizon)
        wall_on = time.perf_counter() - t0
    snapshot = snap_fn()

    # tracing must not change a single number
    assert traced.total_reward == untraced.total_reward
    assert np.array_equal(traced.completed, untraced.completed)

    benchmark.pedantic(_pipeline, args=(sc, horizon), rounds=1,
                       iterations=1)

    root = profile_from_snapshot(snapshot)
    overhead_pct = 100.0 * (wall_on - wall_off) / wall_off
    doc = {
        "schema": 1,
        "scale": scale.name,
        "n_nodes": sc.datacenter.n_nodes,
        "horizon_s": horizon,
        "wall_untraced_s": wall_off,
        "wall_traced_s": wall_on,
        "overhead_pct": overhead_pct,
        "n_spans": len(snapshot["spans"]),
        "profile": profile_to_dict(root),
        "metrics": snapshot["metrics"],
    }
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")

    with capsys.disabled():
        print()
        print(f"untraced pipeline : {wall_off * 1e3:8.1f} ms")
        print(f"traced pipeline   : {wall_on * 1e3:8.1f} ms "
              f"({overhead_pct:+.1f}%)")
        print(f"spans recorded    : {len(snapshot['spans'])}")
        print(f"profile written   : {OUT_PATH}")
