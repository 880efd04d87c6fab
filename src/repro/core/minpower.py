"""Power minimization under a reward-rate constraint (Section VIII).

The paper's stated future-work extension: "In data centers that must
provide stringent workload performance guarantees and where power
constraints are not active, minimizing the overall power consumption may
be a more relevant problem ... minimizing the power consumption subject
to a total reward rate constraint."

The same machinery inverts cleanly: at fixed CRAC outlet temperatures,
minimize the affine total power subject to the concave-ARR reward being
at least the target (one extra ``>=`` row over the Stage 1 segment
variables) plus the redlines; the outer discretized temperature search
then minimizes over outlets, and Stages 2-3 convert to integer P-states
and desired rates exactly as in the primal problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.arr import AggregateRewardRate
from repro.core.stage1 import (Stage1Solution, _node_segments,
                               build_arr_functions, distribute_node_power)
from repro.core.stage2 import solve_stage2
from repro.core.stage3 import Stage3Solution, solve_stage3
from repro.datacenter.builder import DataCenter
from repro.datacenter.power import total_power
from repro.optimize.linprog import InfeasibleError, LinearProgram
from repro.optimize.search import SearchResult, uniform_then_coordinate_search
from repro.thermal.constraints import ThermalLinearization
from repro.workload.tasktypes import Workload

__all__ = ["MinPowerResult", "solve_minpower_fixed_temps", "minimize_power"]


@dataclass
class MinPowerResult:
    """Output of the power-minimization pipeline.

    Attributes
    ----------
    t_crac_out / pstates / tc:
        Same decisions as :class:`repro.core.assignment.AssignmentResult`.
    total_power_kw:
        Exact total power (nodes + CRACs, clamped Eq. 3) at the final
        integer assignment.
    reward_rate:
        Stage 3 reward rate at the final assignment (may exceed the
        target; integer rounding can also leave it slightly short — see
        ``relaxed_reward``).
    relaxed_reward:
        Reward of the relaxed (Stage 1) solution, >= the target by
        construction.
    """

    t_crac_out: np.ndarray
    pstates: np.ndarray
    tc: np.ndarray
    total_power_kw: float
    reward_rate: float
    relaxed_reward: float
    stage1: Stage1Solution
    stage3: Stage3Solution
    search: SearchResult


def solve_minpower_fixed_temps(datacenter: DataCenter,
                               arrs: list[AggregateRewardRate],
                               linearization: ThermalLinearization,
                               reward_target: float
                               ) -> Stage1Solution | None:
    """Minimize linearized total power at fixed outlets, reward >= target.

    Returns a :class:`Stage1Solution` whose ``objective`` is the relaxed
    *reward* achieved (for downstream symmetry), or ``None`` when the
    target is unreachable or the outlets are infeasible.
    """
    lin = linearization
    base = datacenter.node_base_power
    gain = lin.inlet_gain
    base_inlet_load = gain @ base
    if np.any(base_inlet_load > lin.redline_rhs + 1e-9):
        return None

    node_of_var, caps, slopes = _node_segments(datacenter, arrs)
    n_vars = caps.size
    # objective: power contribution of each unit of core power
    power_coeff = (1.0 + lin.crac_coeff)[node_of_var]
    lp = LinearProgram(name="minpower", maximize=False)
    lp.add_variables(n_vars, lb=0.0, ub=caps, objective=power_coeff)
    # reward floor, slopes @ x >= target, stored negated
    lp.add_le_rows(-slopes, -float(reward_target))
    # redlines
    lp.add_le_rows(gain[:, node_of_var], lin.redline_rhs - base_inlet_load)
    try:
        sol = lp.solve()
    except InfeasibleError:
        return None
    fills = sol.x
    core_sums = np.bincount(node_of_var, weights=fills,
                            minlength=datacenter.n_nodes)
    node_power = base + core_sums
    t_in = lin.inlet_temperatures(node_power)
    if np.any(t_in[:lin.t_crac_out.size] < lin.t_crac_out - 1e-6):
        return None
    relaxed_reward = float(slopes @ fills)
    core_power = distribute_node_power(datacenter, arrs, core_sums)
    return Stage1Solution(
        t_crac_out=lin.t_crac_out.copy(),
        core_power_kw=core_power,
        node_power_kw=node_power,
        objective=relaxed_reward,
        linearization=lin,
        arr_functions=arrs,
    )


def minimize_power(datacenter: DataCenter, workload: Workload,
                   reward_target: float, psi: float = 50.0, *,
                   final_step: float = 1.0) -> MinPowerResult:
    """Full power-minimization pipeline (search + three stages).

    Raises ``RuntimeError`` when no outlet temperatures reach the reward
    target (the target exceeds the room's thermal capacity).
    """
    if reward_target <= 0:
        raise ValueError(f"reward target must be positive, got {reward_target}")
    model = datacenter.require_thermal()
    redline = datacenter.redline_c
    lows = [c.outlet_range_c[0] for c in datacenter.cracs]
    highs = [c.outlet_range_c[1] for c in datacenter.cracs]
    arrs = build_arr_functions(datacenter, workload, psi)
    cop_model = datacenter.cracs[0].cop_model
    cache: dict[bytes, Stage1Solution] = {}

    def objective(t_vec: np.ndarray) -> float | None:
        lin = ThermalLinearization.build(model, t_vec, redline, cop_model)
        sol = solve_minpower_fixed_temps(datacenter, arrs, lin, reward_target)
        if sol is None:
            return None
        cache[t_vec.tobytes()] = sol
        # exact power at the relaxed point, the quantity being minimized
        return total_power(datacenter, t_vec, sol.node_power_kw).total

    try:
        result = uniform_then_coordinate_search(
            objective, datacenter.n_crac, min(lows), max(highs),
            step=final_step, maximize=False)
    except RuntimeError as exc:
        raise RuntimeError(
            f"reward target {reward_target:.2f} is unreachable under the "
            "thermal constraints") from exc
    stage1 = cache[result.temperatures.tobytes()]
    stage2 = solve_stage2(datacenter, stage1)
    stage3 = solve_stage3(datacenter, workload, stage2.pstates)
    power = total_power(datacenter, stage1.t_crac_out,
                        stage2.node_power_kw).total
    return MinPowerResult(
        t_crac_out=stage1.t_crac_out,
        pstates=stage2.pstates,
        tc=stage3.tc,
        total_power_kw=power,
        reward_rate=stage3.reward_rate,
        relaxed_reward=stage1.objective,
        stage1=stage1,
        stage3=stage3,
        search=result,
    )
