"""MPC vs interval replanning — reward retained under a faulted burst.

Runs the control-comparison experiment of :mod:`repro.experiments.control`
on a scaled Figure-6 Set-1 room: a flash-crowd arrival burst rides on top
of a seeded fault timeline, and the same trace is replayed under the
classic reactive interval controller and the receding-horizon MPC planner
(:mod:`repro.control.mpc`).  The MPC edge is *precool-as-an-alternative-
to-derate*: where the interval loop can only cut the power cap (losing
reward) or shed the interval outright once a transition overshoots, MPC
re-solves at full cap against margin-tightened redlines so the room
enters the transition colder and compute is kept.

Writes ``BENCH_mpc.json`` to the repo root.  CI gates on the faulted
arm: MPC must strictly improve reward retained over the interval
controller while accumulating no more redline-violation minutes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.control import (CONTROLLERS, ControlConfig,
                                       run_control_point, sweep_control)

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_mpc.json"

# The committed headline room: 10 nodes, seed 1, a 4-epoch horizon with
# a mid-trace flash crowd and the demo fault timeline at factor 1.  At
# this size the interval loop is forced to shed a whole interval while
# MPC precools through it — the cleanest demonstration of the edge.
CONFIG = ControlConfig(n_nodes=10, seed=1, horizon_s=240.0, epoch_s=60.0)
FACTORS = [0.0, 1.0]


def bench_mpc(benchmark, capsys, scale):
    points = sweep_control(CONFIG, FACTORS, jobs=1)
    by_arm = {(p.controller, p.factor): p for p in points}
    interval = by_arm[("interval", 1.0)]
    mpc = by_arm[("mpc", 1.0)]

    doc = {
        "schema": 1,
        "config": {
            "n_nodes": CONFIG.n_nodes,
            "seed": CONFIG.seed,
            "horizon_s": CONFIG.horizon_s,
            "epoch_s": CONFIG.epoch_s,
            "horizon_steps": CONFIG.horizon_steps,
            "forecast": CONFIG.forecast,
            "factors": FACTORS,
        },
        "points": [p.to_dict() for p in points],
        "headline": {
            "interval_retained": interval.reward_retained,
            "mpc_retained": mpc.reward_retained,
            "interval_violation_minutes": interval.violation_minutes,
            "mpc_violation_minutes": mpc.violation_minutes,
            "interval_sheds": interval.sheds,
            "mpc_sheds": mpc.sheds,
            "mpc_precools": mpc.precools,
        },
    }
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")

    # keep pytest-benchmark's machinery engaged (one cheap round)
    small = ControlConfig(n_nodes=6, seed=1, horizon_s=60.0, epoch_s=30.0)
    benchmark.pedantic(
        lambda: run_control_point(small, "interval", 0.0),
        rounds=1, iterations=1)

    with capsys.disabled():
        print()
        print(f"control room: {CONFIG.n_nodes} nodes, "
              f"{CONFIG.horizon_s:.0f} s horizon, "
              f"{CONFIG.epoch_s:.0f} s epochs, factors {FACTORS}")
        for ctrl in CONTROLLERS:
            for factor in FACTORS:
                p = by_arm[(ctrl, factor)]
                print(f"  {ctrl:>8} f={factor:.1f}: "
                      f"reward {p.reward_rate:7.1f}/s "
                      f"retained {100 * p.reward_retained:6.1f}% "
                      f"viol {p.violation_minutes:5.2f} min "
                      f"precool {p.precools} derate {p.derates} "
                      f"shed {p.sheds}")
        print(f"written to {OUT_PATH.name}")

    assert mpc.reward_retained > interval.reward_retained, \
        "MPC no longer beats the interval controller on reward retained"
    assert mpc.violation_minutes <= interval.violation_minutes, \
        "MPC accumulated more redline-violation minutes than interval"
