"""Kernel speedups — reference (scalar) vs vectorized hot loops.

Times the five dispatched solver primitives on a Figure-6-scale room
(150 nodes, the paper's Section VI setup) and a 10x room (1500 nodes,
the scaling regime SCALING.md targets), asserting kernel equivalence on
the exact inputs being timed, and writes ``BENCH_kernels.json`` to the
repo root.  CI gates on ``rooms.fig6.overall_speedup >= 2``.

Both rooms use a synthetic uniform-mixing matrix
(``alpha[i, j] = F[j] / sum(F)`` — row-stochastic and flow-conserving,
so it passes :class:`~repro.thermal.heatflow.HeatFlowModel` validation)
instead of the Table II interference LP: kernel timings depend only on
problem shape, and the LP that generates realistic coefficients is
intractable at 1500 nodes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.stage1 import build_arr_functions
from repro.datacenter import build_datacenter
from repro.kernels import reference, vectorized
from repro.kernels.tables import core_power_table
from repro.thermal.heatflow import HeatFlowModel
from repro.workload import generate_workload

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

BATCH = 64
REPS = 3


def _room(n_nodes: int, seed: int):
    rng = np.random.default_rng(seed)
    dc = build_datacenter(n_nodes=n_nodes, n_crac=3, rng=rng)
    flows = dc.unit_flows
    alpha = np.tile(flows / flows.sum(), (flows.size, 1))
    dc.thermal = HeatFlowModel(alpha, flows, dc.n_crac)
    workload = generate_workload(dc, rng)
    arrs = build_arr_functions(dc, workload, psi=50.0)
    return dc, arrs


def _best_of(fn, reps: int = REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_room(n_nodes: int, seed: int) -> dict:
    dc, arrs = _room(n_nodes, seed)
    model = dc.require_thermal()
    tab = core_power_table(dc)
    rng = np.random.default_rng(seed + 1)

    t_crac = rng.uniform(12.0, 22.0, size=(BATCH, model.n_crac))
    powers = rng.uniform(0.0, 1.5, size=(BATCH, dc.n_nodes))
    eta = tab.n_pstates[dc.core_type]
    pstates = rng.integers(0, eta, size=dc.n_cores)
    batch_pstates = rng.integers(0, eta, size=(BATCH, dc.n_cores))
    core_power = tab.power[dc.core_type, pstates] \
        * rng.uniform(0.85, 1.0, size=dc.n_cores)
    budgets = dc.node_power_kw(pstates)
    tops = np.asarray([arrs[t].concave.x[-1] for t in dc.node_type_index])
    node_core_power = rng.uniform(0.0, 1.0, size=dc.n_nodes) \
        * tops * tab.node_n_cores

    ops = {}

    def op(name, ref_fn, vec_fn, check):
        ref_out, vec_out = ref_fn(), vec_fn()
        check(ref_out, vec_out)
        ref_s = _best_of(ref_fn)
        vec_s = _best_of(vec_fn)
        ops[name] = {"reference_s": ref_s, "vectorized_s": vec_s,
                     "speedup": ref_s / vec_s}

    def steady_close(a, b):
        for x, y in zip(a, b):
            assert np.allclose(x, y, rtol=1e-9, atol=1e-9)

    def exact(a, b):
        if isinstance(a, tuple):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        else:
            assert np.array_equal(a, b)

    op("steady_state_batch",
       lambda: reference.steady_state_batch(model, t_crac, powers),
       lambda: vectorized.steady_state_batch(model, t_crac, powers),
       steady_close)
    op("node_power_kw",
       lambda: reference.node_power_kw(dc, pstates),
       lambda: vectorized.node_power_kw(dc, pstates),
       exact)
    op("node_power_batch",
       lambda: reference.node_power_batch(dc, batch_pstates),
       lambda: vectorized.node_power_batch(dc, batch_pstates),
       exact)
    op("convert_power_to_pstates",
       lambda: reference.convert_power_to_pstates(dc, core_power, budgets),
       lambda: vectorized.convert_power_to_pstates(dc, core_power, budgets),
       exact)
    op("stage1_assemble_distribute",
       lambda: (reference.assemble_segments(dc, arrs),
                reference.distribute_node_power(dc, arrs, node_core_power)),
       lambda: (vectorized.assemble_segments(dc, arrs),
                vectorized.distribute_node_power(dc, arrs,
                                                 node_core_power)),
       lambda a, b: (exact(a[0], b[0]), exact(a[1], b[1])))

    total_ref = sum(o["reference_s"] for o in ops.values())
    total_vec = sum(o["vectorized_s"] for o in ops.values())
    return {
        "n_nodes": dc.n_nodes,
        "n_cores": dc.n_cores,
        "batch": BATCH,
        "ops": ops,
        "overall_speedup": total_ref / total_vec,
    }


def bench_kernels(benchmark, capsys, scale):
    rooms = {
        "fig6": _bench_room(150, 2012),
        "paper10x": _bench_room(1500, 2013),
    }
    doc = {"schema": 1, "reps": REPS, "rooms": rooms}
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")

    # keep pytest-benchmark's machinery engaged (one cheap round)
    fig6_dc, fig6_arrs = _room(150, 2012)
    rng = np.random.default_rng(7)
    eta = core_power_table(fig6_dc).n_pstates[fig6_dc.core_type]
    ps = rng.integers(0, eta, size=fig6_dc.n_cores)
    benchmark.pedantic(vectorized.node_power_kw, args=(fig6_dc, ps),
                       rounds=1, iterations=1)

    with capsys.disabled():
        print()
        for name, room in rooms.items():
            print(f"{name}: {room['n_nodes']} nodes, "
                  f"{room['n_cores']} cores, batch {room['batch']}")
            for op_name, o in room["ops"].items():
                print(f"  {op_name:28s} ref {o['reference_s'] * 1e3:9.2f} ms"
                      f"  vec {o['vectorized_s'] * 1e3:9.2f} ms"
                      f"  x{o['speedup']:7.1f}")
            print(f"  {'overall':28s} x{room['overall_speedup']:7.1f}")
        print(f"written to {OUT_PATH.name}")

    assert rooms["fig6"]["overall_speedup"] >= 2.0, \
        "vectorized kernels regressed below the 2x gate on the fig6 room"
