"""Sparse thermal backend + zonal Stage 1 at the 100x scale target.

Two measurements, written to ``BENCH_sparse.json`` (repo root):

* ``build`` — :class:`~repro.thermal.heatflow.HeatFlowModel`
  construction, dense vs sparse, on a 10x (1500-node) zonal room.  The
  backends are forced explicitly: 1503 units is below the
  ``SPARSE_AUTO_UNITS`` auto threshold, and the point is to compare the
  O(n^3) dense inverse against the ``splu`` factorization on the same
  block-sparse alpha.  CI gates ``build.speedup >= 5``.
* ``replan`` — the 100x room (15000 nodes / 300 CRACs at paper scale,
  3000 / 60 at the default small scale): sparse zonal model build, a
  cold zonal Stage 1 solve, then a rate-drifted warm replan through
  stages 1-3.  Stage 1 never reads arrival rates, so the warm solve
  replays verbatim and the replan is dominated by stages 2-3.  CI gates
  ``replan.warm_total_s < 1`` (the ROADMAP's sub-second target; it
  holds at full scale, so the reduced CI room clears it with margin).
  ``replan.cold_stage1_peak_mb`` is the tracemalloc peak of a second,
  untimed cold zonal Stage 1 on the same room (tracing slows Python
  allocation, so it never overlaps ``cold_stage1_s``); CI gates it at
  100 MB on the reduced room, where dense cut rows peaked at ~212 MB.

The power cap is computed directly from
:func:`~repro.datacenter.power.total_power` at the fixed outlets —
``power_bounds``'s outlet product-grid search is exponential in the
CRAC count and intractable at 300 CRACs.
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.stage1_zonal import solve_stage1_zonal
from repro.core.stage2 import convert_power_to_pstates
from repro.core.stage3 import solve_stage3
from repro.datacenter import build_datacenter
from repro.datacenter.power import total_power
from repro.thermal.heatflow import HeatFlowModel
from repro.thermal.sparse import attach_zonal_thermal, zonal_block_alpha
from repro.workload import generate_workload

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sparse.json"

BUILD_REPS = 2
T_OUT_C = 18.0


def _best_of(fn, reps: int = BUILD_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_build(n_nodes: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dc = build_datacenter(n_nodes=n_nodes, n_crac=3, rng=rng)
    alpha = zonal_block_alpha(dc)
    flows, nc = dc.unit_flows, dc.n_crac
    alpha_dense = alpha.toarray()

    dense_s = _best_of(
        lambda: HeatFlowModel(alpha_dense, flows, nc, backend="dense"))
    sparse_s = _best_of(
        lambda: HeatFlowModel(alpha, flows, nc, backend="sparse"))

    # equivalence on the exact room being timed
    d = HeatFlowModel(alpha_dense, flows, nc, backend="dense")
    s = HeatFlowModel(alpha, flows, nc, backend="sparse")
    t = np.full(nc, T_OUT_C)
    p = np.linspace(0.2, 1.2, dc.n_nodes)
    assert np.allclose(s.steady_state(t, p).t_in,
                       d.steady_state(t, p).t_in, atol=1e-9)

    return {
        "n_nodes": dc.n_nodes,
        "n_units": dc.n_units,
        "dense_build_s": dense_s,
        "sparse_build_s": sparse_s,
        "speedup": dense_s / sparse_s,
    }


def _bench_replan(n_nodes: int, n_crac: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dc = build_datacenter(n_nodes=n_nodes, n_crac=n_crac, rng=rng)
    t0 = time.perf_counter()
    model = attach_zonal_thermal(dc)
    thermal_build_s = time.perf_counter() - t0
    workload = generate_workload(dc, rng)
    t_fix = np.full(n_crac, T_OUT_C)
    p_off = total_power(dc, t_fix,
                        dc.node_power_kw(dc.all_off_pstates())).total
    p_full = total_power(dc, t_fix,
                         dc.node_power_kw(dc.all_p0_pstates())).total
    p_const = p_off + 0.5 * (p_full - p_off)

    t0 = time.perf_counter()
    cold, state = solve_stage1_zonal(dc, workload, p_const=p_const,
                                     t_crac_out=t_fix, max_sweeps=2)
    cold_s = time.perf_counter() - t0

    # rolling-horizon tick: only the arrival rates drift
    drifted = dataclasses.replace(workload,
                                  arrival_rates=workload.arrival_rates * 1.3)
    t0 = time.perf_counter()
    warm, _ = solve_stage1_zonal(dc, drifted, p_const=p_const,
                                 t_crac_out=t_fix, max_sweeps=2, warm=state)
    warm_stage1_s = time.perf_counter() - t0
    assert warm is cold                       # verbatim replay
    tracemalloc.start()
    try:
        traced, _ = solve_stage1_zonal(dc, workload, p_const=p_const,
                                       t_crac_out=t_fix, max_sweeps=2)
        cold_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert traced.objective == cold.objective
    t0 = time.perf_counter()
    stage2 = convert_power_to_pstates(dc, warm.core_power_kw,
                                      warm.node_power_kw)
    stage2_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_stage3(dc, drifted, stage2.pstates)
    stage3_s = time.perf_counter() - t0

    return {
        "n_nodes": n_nodes,
        "n_crac": n_crac,
        "backend": model.backend,
        "p_const_kw": p_const,
        "thermal_build_s": thermal_build_s,
        "cold_stage1_s": cold_s,
        "cold_stage1_peak_mb": cold_peak_mb,
        "cold_objective": cold.objective,
        "sweeps": cold.sweeps,
        "repair_scale": cold.repair_scale,
        "warm_stage1_s": warm_stage1_s,
        "stage2_s": stage2_s,
        "stage3_s": stage3_s,
        "warm_total_s": warm_stage1_s + stage2_s + stage3_s,
    }


def bench_sparse(benchmark, capsys, scale):
    if scale.is_paper:
        replan = _bench_replan(15000, 300, 7)
    else:
        replan = _bench_replan(3000, 60, 7)
    build = _bench_build(1500, 2013)
    doc = {"schema": 1, "scale": scale.name, "build": build,
           "replan": replan}
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")

    # keep pytest-benchmark's machinery engaged (one cheap round)
    small = build_datacenter(n_nodes=60, n_crac=3,
                             rng=np.random.default_rng(1))
    benchmark.pedantic(zonal_block_alpha, args=(small,),
                       rounds=1, iterations=1)

    with capsys.disabled():
        print()
        print(f"build ({build['n_units']} units, backends forced): "
              f"dense {build['dense_build_s'] * 1e3:8.1f} ms  "
              f"sparse {build['sparse_build_s'] * 1e3:8.1f} ms  "
              f"x{build['speedup']:.1f}")
        print(f"replan ({replan['n_nodes']} nodes, {replan['n_crac']} "
              f"CRACs, backend={replan['backend']}):")
        print(f"  thermal build {replan['thermal_build_s']:7.2f} s   "
              f"cold stage1 {replan['cold_stage1_s']:7.2f} s "
              f"(sweeps={replan['sweeps']}, "
              f"repair={replan['repair_scale']:.4f}, "
              f"peak {replan['cold_stage1_peak_mb']:.1f} MB)")
        print(f"  warm replan   stage1 {replan['warm_stage1_s'] * 1e3:6.1f}"
              f" ms + stage2 {replan['stage2_s'] * 1e3:6.1f} ms + stage3 "
              f"{replan['stage3_s'] * 1e3:6.1f} ms = "
              f"{replan['warm_total_s'] * 1e3:6.1f} ms")
        print(f"written to {OUT_PATH.name}")

    assert replan["backend"] == "sparse", \
        "the 100x room must select the sparse backend automatically"
    assert build["speedup"] >= 5.0, \
        "sparse model build regressed below the 5x gate vs dense at 10x"
    assert replan["warm_total_s"] < 1.0, \
        "warm replan regressed above the sub-second target"
    if not scale.is_paper:
        assert replan["cold_stage1_peak_mb"] <= 100.0, \
            "cold zonal Stage 1 heap peak above 100 MB at 3000 nodes"
