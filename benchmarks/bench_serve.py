"""Warm-started replanning — cold vs incremental solves in the service.

Times the rolling-horizon replan loop of :mod:`repro.serve` on a
Figure-6-scale room (150 nodes, 3 CRACs) under a diurnal + flash-crowd
arrival trace: every tick changes only the arrival-rate vector, which
is the ``"stage1"`` warm-start reuse level — Stage 1/2 replay from the
previous :class:`~repro.core.warmstart.SolveState` and only the
Stage 3 rate LP re-solves.  Writes ``BENCH_serve.json`` to the repo
root; CI gates on ``fig6.warm_speedup >= 2`` and the benchmark itself
asserts the warm plans are bit-identical to cold (reward retained is
exactly 1.0, not approximately).

Like ``bench_kernels.py``, the room uses a synthetic uniform-mixing
matrix (``alpha[i, j] = F[j] / sum(F)``) instead of the Table II
interference LP: replan latency depends only on problem shape.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.api import SolveRequest, solve
from repro.datacenter import build_datacenter, power_bounds
from repro.thermal.heatflow import HeatFlowModel
from repro.workload import DiurnalProfile, FlashCrowdProfile, generate_workload

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

N_TICKS = 6
TICK_S = 60.0
REPS = 3


def _room(n_nodes: int, seed: int):
    rng = np.random.default_rng(seed)
    dc = build_datacenter(n_nodes=n_nodes, n_crac=3, rng=rng)
    flows = dc.unit_flows
    alpha = np.tile(flows / flows.sum(), (flows.size, 1))
    dc.thermal = HeatFlowModel(alpha, flows, dc.n_crac)
    workload = generate_workload(dc, rng)
    bounds = power_bounds(dc)
    cap = bounds.p_min + 0.55 * (bounds.p_max - bounds.p_min)
    return dc, workload, cap


def _tick_rates(workload) -> list[np.ndarray]:
    horizon = N_TICKS * TICK_S
    profile = FlashCrowdProfile(
        DiurnalProfile(base_rates=workload.arrival_rates, amplitude=0.4,
                       period_s=horizon),
        bursts=((horizon / 3.0, TICK_S, 3.0),))
    return [np.asarray(profile.rates(k * TICK_S), dtype=float)
            for k in range(N_TICKS)]


def _bench_room(n_nodes: int, seed: int) -> dict:
    dc, workload, cap = _room(n_nodes, seed)
    rates = _tick_rates(workload)
    requests = [SolveRequest(dc, replace(workload, arrival_rates=r), cap)
                for r in rates]

    # cold: every tick solved from scratch (best-of-REPS per tick)
    cold_s = [float("inf")] * N_TICKS
    cold_plans = [None] * N_TICKS
    for _ in range(REPS):
        for k, req in enumerate(requests):
            t0 = time.perf_counter()
            plan = solve(req)
            cold_s[k] = min(cold_s[k], time.perf_counter() - t0)
            cold_plans[k] = plan

    # warm: the serve chain — each tick re-solves from the previous
    # tick's state (rates-only change -> exact stage-1 replay).  The
    # chain is re-run whole per rep so every timed solve is a genuine
    # previous-tick warm start, never a same-request replay.
    warm_s = [float("inf")] * N_TICKS
    warm_plans = [None] * N_TICKS
    warm_levels = [None] * N_TICKS
    for _ in range(REPS):
        state = None
        for k, req in enumerate(requests):
            warm_req = replace(req, warm_start=state)
            t0 = time.perf_counter()
            plan = solve(warm_req)
            warm_s[k] = min(warm_s[k], time.perf_counter() - t0)
            state = plan.state
            warm_plans[k] = plan
            warm_levels[k] = plan.state.runtime.level

    # the contract: warm plans are bit-identical to cold plans
    for cold_p, warm_p in zip(cold_plans, warm_plans):
        assert np.array_equal(cold_p.t_crac_out, warm_p.t_crac_out)
        assert np.array_equal(cold_p.pstates, warm_p.pstates)
        assert np.array_equal(cold_p.tc, warm_p.tc)
        assert cold_p.reward_rate == warm_p.reward_rate

    cold_reward = sum(p.reward_rate for p in cold_plans) * TICK_S
    warm_reward = sum(p.reward_rate for p in warm_plans) * TICK_S
    # tick 0 has no previous state; the replan comparison is ticks 1+
    cold_replan = sum(cold_s[1:]) / (N_TICKS - 1)
    warm_replan = sum(warm_s[1:]) / (N_TICKS - 1)
    return {
        "n_nodes": dc.n_nodes,
        "n_ticks": N_TICKS,
        "tick_s": TICK_S,
        "cold_replan_s": cold_replan,
        "warm_replan_s": warm_replan,
        "warm_speedup": cold_replan / warm_replan,
        "cold_reward": cold_reward,
        "warm_reward": warm_reward,
        "reward_retained": warm_reward / cold_reward,
        "warm_levels": warm_levels,
        "per_tick": [{"cold_s": c, "warm_s": w}
                     for c, w in zip(cold_s, warm_s)],
    }


def bench_serve(benchmark, capsys, scale):
    fig6 = _bench_room(150, 2012)
    doc = {"schema": 1, "reps": REPS, "fig6": fig6}
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")

    # keep pytest-benchmark's machinery engaged (one cheap round)
    dc, workload, cap = _room(30, 2012)
    benchmark.pedantic(
        lambda: solve(SolveRequest(dc, workload, cap)),
        rounds=1, iterations=1)

    with capsys.disabled():
        print()
        print(f"fig6 room: {fig6['n_nodes']} nodes, {N_TICKS} ticks")
        for k, t in enumerate(fig6["per_tick"]):
            level = fig6["warm_levels"][k]
            print(f"  tick {k}: cold {t['cold_s'] * 1e3:8.1f} ms"
                  f"  warm {t['warm_s'] * 1e3:8.1f} ms  ({level})")
        print(f"  mean replan (ticks 1+): cold "
              f"{fig6['cold_replan_s'] * 1e3:.1f} ms, warm "
              f"{fig6['warm_replan_s'] * 1e3:.1f} ms "
              f"-> x{fig6['warm_speedup']:.1f}")
        print(f"  reward retained: {fig6['reward_retained']:.6f}")
        print(f"written to {OUT_PATH.name}")

    assert fig6["reward_retained"] == 1.0, \
        "warm replans changed plan values — the SolveState contract broke"
    assert fig6["warm_speedup"] >= 2.0, \
        "warm replanning regressed below the 2x gate on the fig6 room"
