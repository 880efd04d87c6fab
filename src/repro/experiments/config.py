"""Experiment configuration (Section VI) and the paper's simulation sets.

The paper runs three sets of 25 simulations, each on a fresh random room
of 150 nodes / 3 CRACs / 8 task types, varying two knobs:

========  =====================  ========
set       P-state-0 static power  V_prop
========  =====================  ========
1         30%                     0.1
2         30%                     0.3
3         20%                     0.3
========  =====================  ========

``ScenarioConfig`` captures every generator parameter so a scenario is
fully determined by ``(config, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ScenarioConfig", "PAPER_SET_1", "PAPER_SET_2", "PAPER_SET_3",
           "paper_sets", "scaled_down"]


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs of the Section VI setup.

    Attributes mirror the paper's symbols: ``v_ecs`` (``V_ECS``),
    ``v_prop`` (``V_prop``), ``v_arrival`` (``V_arrival``),
    ``static_fraction`` (P-state-0 static power share), ``psis`` (the ψ
    levels evaluated), ``search`` (CRAC temperature search mode, see
    :func:`repro.core.stage1.solve_stage1`).

    ``backend`` / ``backend_seed`` / ``max_evals`` select the solver
    backend runs solve with (see :mod:`repro.solvers`) and, for the
    metaheuristic backends, the RNG seed and evaluation budget.  All
    three feed the engine cache key — runs under different backends or
    budgets never share cached points.
    """

    name: str = "set1"
    n_nodes: int = 150
    n_crac: int = 3
    n_task_types: int = 8
    static_fraction: float = 0.3
    v_ecs: float = 0.1
    v_prop: float = 0.1
    v_arrival: float = 0.3
    psis: tuple[float, ...] = (25.0, 50.0)
    search: str = "fast"
    facing_share: float = 0.7
    nodes_per_rack: int = 5
    crac_outlet_low_c: float = 10.0
    crac_outlet_high_c: float = 25.0
    backend: str = "three_stage"
    backend_seed: int = 0
    max_evals: int = 2000

    def __post_init__(self) -> None:
        if self.n_nodes <= 0 or self.n_crac <= 0 or self.n_task_types <= 0:
            raise ValueError("scenario sizes must be positive")
        if not self.psis:
            raise ValueError("need at least one psi level")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")


#: Paper simulation set 1: static 30%, V_prop = 0.1.
PAPER_SET_1 = ScenarioConfig(name="set1", static_fraction=0.3, v_prop=0.1)
#: Paper simulation set 2: static 30%, V_prop = 0.3.
PAPER_SET_2 = ScenarioConfig(name="set2", static_fraction=0.3, v_prop=0.3)
#: Paper simulation set 3: static 20%, V_prop = 0.3.
PAPER_SET_3 = ScenarioConfig(name="set3", static_fraction=0.2, v_prop=0.3)


def paper_sets() -> list[ScenarioConfig]:
    """The three Figure 6 simulation sets, in paper order."""
    return [PAPER_SET_1, PAPER_SET_2, PAPER_SET_3]


def scaled_down(config: ScenarioConfig, n_nodes: int = 30) -> ScenarioConfig:
    """A smaller room with the same physics, for quick benchmarks/tests."""
    return replace(config, n_nodes=n_nodes)
