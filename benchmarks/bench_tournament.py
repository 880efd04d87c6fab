"""Solver tournament — every backend raced on the fig6 golden scenario.

Runs :func:`repro.experiments.tournament.sweep_tournament` on the
benchmark-scale set-1 room (the same ``(config, seed=1000)`` recipe the
golden fig6 suite pins) with the three shipped backends and writes
``BENCH_tournament.json`` to the repo root.  Everything in the JSON is
deterministic — seeded searches, evaluation budgets, no wall-clock
fields — so CI diffs the artifact across ``--jobs`` values and gates on
the quality ordering:

* three-stage reward >= each metaheuristic (the decomposition is the
  quality reference), and
* each metaheuristic >= 90% of the three-stage reward (the searches
  must stay competitive, not just feasible).

Wall-clock timing is reported to the console only (pytest-benchmark's
one cheap round keeps the harness engaged) and never serialized.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.tournament import (TournamentConfig,
                                          sweep_tournament,
                                          tournament_table)

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_tournament.json"

MAX_EVALS = 800
BACKEND_SEED = 0


def bench_tournament(benchmark, capsys, scale):
    config = TournamentConfig(
        n_nodes=scale.n_nodes, seed=1000, sets=(1,),
        backends=("three_stage", "annealing", "evolution"),
        backend_seed=BACKEND_SEED, max_evals=MAX_EVALS)
    points = sweep_tournament(config)

    doc = {
        "schema": 1,
        "n_nodes": config.n_nodes,
        "seed": config.seed,
        "backend_seed": BACKEND_SEED,
        "max_evals": MAX_EVALS,
        "points": [p.to_dict() for p in points],
    }
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")

    # keep pytest-benchmark's machinery engaged (one cheap re-race of the
    # cheapest backend)
    benchmark.pedantic(
        lambda: sweep_tournament(TournamentConfig(
            n_nodes=config.n_nodes, seed=1000, sets=(1,),
            backends=("three_stage",))),
        rounds=1, iterations=1)

    with capsys.disabled():
        print()
        print(f"tournament: {config.n_nodes} nodes, seed {config.seed}, "
              f"budget {MAX_EVALS} evals")
        print(tournament_table(points))
        print(f"written to {OUT_PATH.name}")

    by_backend = {p.backend: p for p in points}
    anchor = by_backend["three_stage"].reward_rate
    assert anchor > 0, "three-stage earned nothing on the fig6 scenario"
    for name in ("annealing", "evolution"):
        reward = by_backend[name].reward_rate
        assert reward <= anchor + 1e-9, \
            f"{name} beat three_stage — quality anchor no longer holds"
        assert reward >= 0.9 * anchor, \
            f"{name} fell below 90% of the three-stage reward " \
            f"({reward:.1f} vs {anchor:.1f})"
        assert by_backend[name].violation_minutes == 0.0
