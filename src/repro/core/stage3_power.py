"""Power-aware Stage 3 — desired rates under task-dependent power.

With the :class:`~repro.power.taskpower.TaskPowerModel` extension,
a core's power depends on *what* it runs, so the classic Stage 3 (which
trusts Stages 1-2 to have budgeted power for fully-busy cores at nominal
draw) can overshoot the cap when compute-heavy task types draw more
than nominal.  This solver re-introduces the power cap and the redlines
into the Stage 3 LP:

* variables: class rates ``u(i, g)`` exactly as in classic Stage 3, but
  classes are refined to (node, P-state) granularity when needed — here
  we keep per-(node type, P-state) classes and distribute rates equally,
  so each node's time-averaged power is linear in ``u``;
* the time-averaged power of a core is
  ``idle + sum_i u(i,g)/(n_g * ECS) * (factor_i - idle) * pi`` — linear;
* one power row (cap) and one row per unit (redline) complete the LP.

The result is the best deadline-feasible rate assignment that is *also*
power- and thermally-safe under the task-dependent draw.
"""

from __future__ import annotations

import numpy as np

from repro.core.stage3 import Stage3Solution, class_lp
from repro.datacenter.builder import DataCenter
from repro.optimize.linprog import InfeasibleError
from repro.power.taskpower import TaskPowerModel, expected_node_power
from repro.thermal.constraints import ThermalLinearization
from repro.workload.tasktypes import Workload

__all__ = ["solve_stage3_power_aware"]


def solve_stage3_power_aware(datacenter: DataCenter, workload: Workload,
                             pstates: np.ndarray,
                             task_power: TaskPowerModel,
                             linearization: ThermalLinearization,
                             p_const: float) -> Stage3Solution:
    """Stage 3 with task-dependent power, cap and redline rows.

    Parameters
    ----------
    pstates:
        Fixed per-core P-states (from Stage 2).
    task_power:
        The task-type power factors.
    linearization:
        Thermal linear view at the assignment's CRAC outlet temperatures
        (supplies the affine CRAC power and redline rows).
    p_const:
        Total power cap, kW.

    Raises
    ------
    ValueError
        If ``pstates`` is not one P-state per core in ``[0, eta)``, or
        ``task_power`` has the wrong number of task types.
    InfeasibleError
        If even the all-idle room violates the cap (the idle draw of the
        chosen P-states plus base power exceeds ``p_const``).
    """
    if task_power.n_task_types != workload.n_task_types:
        raise ValueError("task power model dimension mismatch")
    classes = class_lp(datacenter, workload, pstates, "stage3-power-aware")
    pstates = np.asarray(pstates, dtype=int)
    lin = linearization

    # nominal per-core P-state power and idle power
    nominal = np.empty(datacenter.n_cores)
    for t, spec in enumerate(datacenter.node_types):
        mask = datacenter.core_type == t
        nominal[mask] = np.asarray(spec.pstate_power_kw)[pstates[mask]]
    idle_core = task_power.idle_fraction * nominal
    idle_node = datacenter.node_base_power + np.bincount(
        datacenter.core_node, weights=idle_core,
        minlength=datacenter.n_nodes)

    # all-idle feasibility
    if np.any(lin.inlet_gain @ idle_node > lin.redline_rhs + 1e-9):
        raise InfeasibleError(
            "idle room already violates a redline at these P-states")
    idle_total = idle_node.sum() + lin.crac_power(idle_node)
    if idle_total > p_const + 1e-9:
        raise InfeasibleError(
            f"idle room draws {idle_total:.2f} kW > cap {p_const:.2f} kW")
    lp = classes.lp
    if lp.num_variables == 0:
        return classes.solution(None, 0.0)

    i_of, g_of = classes.type_of, classes.class_of
    n_classes = len(classes.class_key)
    # membership[j, g] = cores of class g in node j
    membership = np.zeros((datacenter.n_nodes, n_classes))
    np.add.at(membership, (datacenter.core_node, classes.core_class), 1.0)
    # marginal node power per unit of u(i, g):
    # busy share per core = u / (n_g * ECS); extra draw over idle per
    # busy second = (factor_i - idle_fraction) * nominal_class
    nominal_class = np.asarray([datacenter.node_types[jtype].pstate_power_kw[k]
                                for jtype, k in classes.class_key])
    marginal = (task_power.factors[i_of] - task_power.idle_fraction) \
        * nominal_class[g_of] \
        / (classes.ecs[i_of, g_of] * classes.class_count[g_of])

    # node power as a function of u:
    #   P_j(u) = idle_node_j + sum_{i,g} membership[j,g] * marginal[i,g] * u
    # power cap row: sum_j (1 + crac_coeff_j) P_j(u) <= p_const - const
    weight_j = 1.0 + lin.crac_coeff
    class_weight = np.asarray([(weight_j * membership[:, g]).sum()
                               for g in range(n_classes)])
    lp.add_le_rows(class_weight[g_of] * marginal, p_const - idle_total)
    # redline rows: gain[u_row] @ P(u) <= redline_rhs.  One dot per
    # (row, class) over a strided membership column: a matrix product
    # sums in another order and moves coefficients by an ulp
    # (tests/core/test_lp_assembly.py compares them with ==)
    gain_w = np.asarray([[gain_row @ membership[:, g]
                          for g in range(n_classes)]
                         for gain_row in lin.inlet_gain])[:, g_of]
    live = ((gain_w != 0.0) & (marginal != 0.0)).any(axis=1)
    base_load = lin.inlet_gain @ idle_node
    lp.add_le_rows((gain_w * marginal)[live],
                   (lin.redline_rhs - base_load)[live])

    sol = lp.solve()
    result = classes.solution(sol.x, float(sol.objective))
    # safety net: the evaluated expected power must respect the cap
    node_power = expected_node_power(datacenter, workload, pstates,
                                     result.tc, task_power)
    total = node_power.sum() + lin.crac_power(node_power)
    if total > p_const * (1 + 1e-6) + 1e-6:
        raise AssertionError(
            f"power-aware stage 3 violated its own cap: {total:.3f} kW")
    return result
