"""Stage 3 — optimal desired execution rates (Section V.B.4).

With P-states and CRAC outlets fixed by Stages 1-2, the Eq. 7 problem
collapses to a linear program over the ``TC`` matrix (desired rate of
executing each task type on each core):

* Constraint 1 — per core: ``sum_i TC(i, k) / ECS(i, CT_k, PS_k) <= 1``
  (a core cannot be more than 100% busy);
* Constraint 2 — ``TC(i, k) = 0`` when P-state ``PS_k`` cannot meet the
  type's deadline (``1/ECS > m_i``) or cannot run it at all (ECS = 0);
* Constraint 3 — per task type: ``sum_k TC(i, k) <= lambda_i`` (cannot
  execute more than arrives).

Cores with the same (node type, P-state) are interchangeable in every
coefficient, so the LP is solved over equivalence classes —
``O(T * NTYPES * eta)`` variables — and the class rates are split
equally over member cores, which preserves feasibility of Constraint 1
core-by-core (DESIGN.md §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.optimize.linprog import LinearProgram, grouped_rows
from repro.workload.tasktypes import Workload

__all__ = ["Stage3Solution", "solve_stage3"]


@dataclass
class Stage3Solution:
    """Desired execution rates and the reward they predict.

    Attributes
    ----------
    tc:
        ``(T, NCORES)`` desired-rate matrix (tasks/second).
    reward_rate:
        The Eq. 7 objective at ``tc`` — the technique's final predicted
        total reward rate, the quantity compared in Figure 6.
    class_rates:
        Aggregated rate per (task type, class) for diagnostics, where a
        class is a distinct (node type, P-state) pair actually present.
    class_key:
        ``(node_type, pstate)`` per class column of ``class_rates``.
    """

    tc: np.ndarray
    reward_rate: float
    class_rates: np.ndarray
    class_key: list[tuple[int, int]]


@dataclass
class ClassLP:
    """Stage 3's LP over (node type, P-state) classes, before solving.

    Variable ``v`` is the total rate of task type ``type_of[v]`` over the
    cores of class ``class_of[v]``, class-major; a (type, class) pair
    gets a variable only if the class runs the type within its deadline
    (Constraint 2).  ``lp`` holds Constraints 1 and 3 and has no
    variables when no class can earn reward (e.g. everything off).
    """

    lp: LinearProgram
    type_of: np.ndarray
    class_of: np.ndarray
    core_class: np.ndarray          # class position of every core
    class_count: np.ndarray         # cores per class
    class_key: list[tuple[int, int]]
    ecs: np.ndarray                 # (T, classes) ECS of each class

    def solution(self, x: np.ndarray | None,
                 reward_rate: float) -> Stage3Solution:
        """Split the class rates ``x`` equally over member cores."""
        class_rates = np.zeros(self.ecs.shape)
        if x is not None:
            class_rates[self.type_of, self.class_of] = x
        tc = (class_rates / self.class_count)[:, self.core_class]
        return Stage3Solution(tc=tc, reward_rate=reward_rate,
                              class_rates=class_rates,
                              class_key=self.class_key)


def class_lp(datacenter: DataCenter, workload: Workload,
             pstates: np.ndarray, name: str) -> ClassLP:
    """Group cores into classes and build Stage 3's variables and rows.

    Raises
    ------
    ValueError
        If ``pstates`` is not one P-state per core in ``[0, eta)``.
    """
    pstates = np.asarray(pstates, dtype=int)
    if pstates.shape != (datacenter.n_cores,):
        raise ValueError(
            f"expected {datacenter.n_cores} P-states, got {pstates.shape}")
    eta = workload.n_pstates
    if np.any(pstates < 0) or np.any(pstates >= eta):
        raise ValueError("P-state index out of ECS range")
    present, core_class, class_count = np.unique(
        datacenter.core_type * eta + pstates,
        return_inverse=True, return_counts=True)
    ecs = workload.ecs[:, present // eta, present % eta]
    with np.errstate(divide="ignore"):
        usable = (ecs > 0.0) & (1.0 / ecs <= workload.deadline_slack[:, None])
    class_of, type_of = np.nonzero(usable.T)
    lp = LinearProgram(name=name, maximize=True)
    n_vars = type_of.size
    if n_vars:
        lp.add_variables(n_vars, lb=0.0, objective=workload.rewards[type_of])
        # Constraint 1 aggregated per class: sum_i u[i,g]/ECS <= count_g
        classes, rows = grouped_rows(class_of, 1.0 / ecs[type_of, class_of])
        lp.add_le_rows(rows, class_count[classes])
        # Constraint 3 per task type: sum_g u[i,g] <= lambda_i
        types, rows = grouped_rows(type_of, np.ones(n_vars))
        lp.add_le_rows(rows, workload.arrival_rates[types])
    return ClassLP(lp=lp, type_of=type_of, class_of=class_of,
                   core_class=core_class, class_count=class_count,
                   class_key=[(int(c // eta), int(c % eta)) for c in present],
                   ecs=ecs)


def solve_stage3(datacenter: DataCenter, workload: Workload,
                 pstates: np.ndarray) -> Stage3Solution:
    """Solve the Stage 3 LP for a fixed P-state assignment."""
    with obs_span("stage3", n_cores=datacenter.n_cores):
        classes = class_lp(datacenter, workload, pstates, "stage3")
        obs_metrics.histogram("stage3.classes").observe(
            len(classes.class_key))
        if classes.lp.num_variables == 0:
            return classes.solution(None, 0.0)
        sol = classes.lp.solve()
        return classes.solution(sol.x, float(sol.objective))
