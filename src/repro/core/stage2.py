"""Stage 2 — converting relaxed core powers into integer P-states
(Section V.B.3).

The paper's procedure, implemented verbatim:

1. give each core the *highest* (least power) P-state whose power is at
   least its Stage 1 allocation ``PCORE_k`` — i.e. round the power *up*
   to the nearest P-state;
2. per compute node, while the Eq. 1 node power exceeds the Stage 1 node
   power, increment (weaken) the P-state of the core currently holding
   the *smallest* (most powerful) P-state.

Step 2 terminates because every increment strictly reduces node power
and the all-off assignment costs 0 core power.  Because Stage 1's
breakpoint-quantized split already lands almost every core exactly on a
P-state power, step 2 usually touches at most one core per node.

The result is guaranteed to satisfy the thermal and power constraints:
node powers never exceed the Stage 1 powers, and the inlet-temperature
map is monotone in node powers (all mixing coefficients are
non-negative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stage1 import Stage1Solution
from repro.datacenter.builder import DataCenter
from repro.kernels import vectorized

__all__ = ["Stage2Solution", "convert_power_to_pstates", "solve_stage2"]


@dataclass(frozen=True)
class Stage2Solution:
    """Integer P-state assignment derived from a Stage 1 solution.

    Attributes
    ----------
    pstates:
        Global per-core P-state indices (``PS_k``).
    node_power_kw:
        Eq. 1 node powers under ``pstates`` — elementwise at or below the
        Stage 1 node powers.
    """

    pstates: np.ndarray
    node_power_kw: np.ndarray


def _round_up_pstate(power_table: np.ndarray, target: float) -> int:
    """Highest P-state index with power >= ``target`` (step 1).

    ``power_table`` is strictly decreasing with a trailing 0 (off).  A
    target above P-state 0 power clamps to P-state 0 (cannot happen for
    Stage 1 outputs, which are bounded by the hull domain, but keeps the
    function total).
    """
    if target <= 0.0:
        return power_table.size - 1
    candidates = np.nonzero(power_table >= target - 1e-12)[0]
    if candidates.size == 0:
        return 0
    return int(candidates[-1])


def convert_power_to_pstates(datacenter: DataCenter,
                             core_power_kw: np.ndarray,
                             node_power_budget_kw: np.ndarray
                             ) -> Stage2Solution:
    """Run the Section V.B.3 procedure for every node.

    Parameters
    ----------
    core_power_kw:
        Relaxed per-core powers (``PCORE_k``), kW.
    node_power_budget_kw:
        Per-node total power the assignment must not exceed (the Stage 1
        node powers, including base power).
    """
    core_power_kw = np.asarray(core_power_kw, dtype=float)
    if core_power_kw.shape != (datacenter.n_cores,):
        raise ValueError(
            f"expected {datacenter.n_cores} core powers, got "
            f"{core_power_kw.shape}")
    budget = np.asarray(node_power_budget_kw, dtype=float)
    if budget.shape != (datacenter.n_nodes,):
        raise ValueError(
            f"expected {datacenter.n_nodes} node budgets, got {budget.shape}")
    pstates = vectorized.convert_power_to_pstates(datacenter, core_power_kw,
                                                  budget)
    node_power = datacenter.node_power_kw(pstates)
    return Stage2Solution(pstates=pstates, node_power_kw=node_power)


def solve_stage2(datacenter: DataCenter,
                 stage1: Stage1Solution) -> Stage2Solution:
    """Stage 2 on a Stage 1 solution (budget = Stage 1 node powers)."""
    result = convert_power_to_pstates(datacenter, stage1.core_power_kw,
                                      stage1.node_power_kw)
    over = result.node_power_kw - stage1.node_power_kw
    if np.any(over > 1e-6):
        raise AssertionError(
            "stage 2 produced a node above its stage-1 power budget "
            f"(max overshoot {over.max():.3e} kW)")
    return result
