"""Baseline assignment — P-state 0 or off (Section VII.A, Eqs. 19-22).

The paper compares against an adaptation of Parolini et al. [26]: each
compute node *j* devotes a fraction ``FRAC(i, j)`` of its cores to task
type *i*, every active core runs P-state 0, the rest are off.  For fixed
CRAC outlet temperatures this is the LP of Eq. 21; the same discretized
outlet-temperature search used by Stage 1 closes the loop, keeping the
comparison apples-to-apples.

After the LP, the paper rounds: the number of cores used at a node
(Eq. 22) may be fractional, so all of the node's fractions are scaled
down by a common factor until the core count is integral.

Note (DESIGN.md §3.4): the printed Eq. 19 omits the ``|cores_j|`` factor
in the node power; we include it, consistent with Eq. 22 and with the
reward term of Eq. 21.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datacenter.builder import DataCenter
from repro.optimize.linprog import InfeasibleError, LinearProgram, grouped_rows
from repro.optimize.search import (SearchResult, coarse_to_fine_search,
                                   uniform_then_coordinate_search)
from repro.thermal.constraints import ThermalLinearization
from repro.workload.tasktypes import Workload

__all__ = ["BaselineSolution", "solve_baseline_fixed_temps", "solve_baseline"]


@dataclass
class BaselineSolution:
    """Result of the P0-or-off baseline at one outlet-temperature vector.

    Attributes
    ----------
    frac:
        Rounded ``FRAC`` matrix, shape ``(T, NCN)``.
    cores_on:
        Integer number of P-state-0 cores per node (Eq. 22 after
        rounding); the rest of each node's cores are off.
    reward_rate:
        Eq. 21 objective evaluated on the *rounded* fractions — what the
        baseline actually achieves.
    pstates:
        Global per-core P-states (0 or the off index) realizing
        ``cores_on``.
    tc:
        Desired-rate matrix equivalent, ``(T, NCORES)``, for driving the
        same dynamic scheduler / DES as the three-stage technique.
    node_power_kw:
        Eq. 1 node powers under ``pstates``.
    t_crac_out:
        The outlet temperatures this solution was computed at.
    search:
        Outlet-temperature search trace when solved through
        :func:`solve_baseline` via the unified API (else ``None``).
    """

    frac: np.ndarray
    cores_on: np.ndarray
    reward_rate: float
    pstates: np.ndarray
    tc: np.ndarray
    node_power_kw: np.ndarray
    t_crac_out: np.ndarray
    search: SearchResult | None = None

    def verify(self, datacenter: DataCenter, p_const: float,
               tol: float = 1e-6) -> None:
        """Assert the cap and redlines hold (the shared result protocol).

        Mirrors ``AssignmentResult.verify`` so baseline solutions can be
        audited through the same code paths.
        """
        from repro.datacenter.power import total_power

        model = datacenter.require_thermal()
        margin = model.redline_margin(self.t_crac_out, self.node_power_kw,
                                      datacenter.redline_c)
        if margin.min() < -tol:
            raise AssertionError(
                f"redline violated by {-margin.min():.4f} C at unit "
                f"{int(margin.argmin())}")
        breakdown = total_power(datacenter, self.t_crac_out,
                                self.node_power_kw)
        if breakdown.total > p_const + tol * max(1.0, p_const):
            raise AssertionError(
                f"power cap violated: {breakdown.total:.3f} kW > "
                f"{p_const:.3f} kW")

    def to_dict(self) -> dict:
        """JSON-friendly summary (the :class:`SolveOutcome` protocol)."""
        return {
            "method": "baseline",
            "reward_rate": self.reward_rate,
            "t_crac_out": self.t_crac_out.tolist(),
            "cores_on": self.cores_on.tolist(),
        }


def solve_baseline_fixed_temps(datacenter: DataCenter, workload: Workload,
                               linearization: ThermalLinearization,
                               p_const: float) -> BaselineSolution | None:
    """Solve Eq. 21 at fixed CRAC outlets, then round (Eq. 22).

    Returns ``None`` for infeasible outlet temperatures, mirroring
    :func:`repro.core.stage1.solve_stage1_fixed_temps`.
    """
    lin = linearization
    base = datacenter.node_base_power
    gain = lin.inlet_gain
    base_inlet_load = gain @ base
    if np.any(base_inlet_load > lin.redline_rhs + 1e-9):
        return None
    base_total = float(base.sum()) + lin.crac_const + float(lin.crac_coeff @ base)
    if base_total > p_const + 1e-9:
        return None

    t_count = workload.n_task_types
    n_nodes = datacenter.n_nodes
    ecs0 = workload.ecs[:, :, 0]                 # (T, NTYPES) at P-state 0
    # per-node constants
    n_cores = np.asarray([n.n_cores for n in datacenter.nodes], dtype=float)
    p0 = np.asarray([n.spec.p0_power_kw for n in datacenter.nodes])
    type_of = datacenter.node_type_index

    # One variable FRAC(i, j) per node j and task type i, node-major, for
    # the types node j's P-state 0 runs (ECS > 0) within the deadline
    # (FRAC(i, j) = 0 when m_i < 1/ECS(i, j, 0)).
    speed = ecs0[:, type_of].T                  # (NCN, T)
    with np.errstate(divide="ignore"):
        usable = (speed > 0.0) & ~(1.0 / speed > workload.deadline_slack)
    if not usable.any():
        return None
    node_of, type_of_var = np.nonzero(usable)
    lp = LinearProgram(name="baseline", maximize=True)
    lp.add_variables(node_of.size, lb=0.0, ub=1.0,
                     objective=workload.rewards[type_of_var]
                     * speed[node_of, type_of_var] * n_cores[node_of])

    # Constraint 2: per node, fractions sum to at most 1.
    nodes, block = grouped_rows(node_of, np.ones(node_of.size))
    lp.add_le_rows(block, np.ones(nodes.size))
    # Constraint 1: per task type, executed rate <= arrival rate.
    types, block = grouped_rows(type_of_var,
                                n_cores[node_of] * speed[node_of, type_of_var])
    lp.add_le_rows(block, workload.arrival_rates[types])
    # Constraints 3/4: power cap and redlines — node core power is
    # p0_j * n_cores_j * sum_i FRAC(i, j).
    node_core_coeff = p0 * n_cores
    lp.add_le_rows(((1.0 + lin.crac_coeff) * node_core_coeff)[node_of],
                   p_const - base_total)
    redline = gain * node_core_coeff
    live = (redline[:, nodes] != 0.0).any(axis=1)
    lp.add_le_rows(redline[live][:, node_of],
                   (lin.redline_rhs - base_inlet_load)[live])

    try:
        sol = lp.solve()
    except InfeasibleError:
        return None

    frac = np.zeros((t_count, n_nodes))
    frac[type_of_var, node_of] = sol.x

    # Eq. 22 rounding: scale each node's fractions down so that the used
    # core count is integral.
    used = n_cores * frac.sum(axis=0)
    cores_on = np.floor(used + 1e-9).astype(int)
    scale = np.ones(n_nodes)
    nonzero = used > 1e-12
    scale[nonzero] = cores_on[nonzero] / used[nonzero]
    frac *= scale[None, :]

    # rounded reward (what the baseline actually earns)
    reward = 0.0
    for i in range(t_count):
        reward += float(workload.rewards[i]) * float(
            (n_cores * ecs0[i, type_of] * frac[i]).sum())

    # realize P-states: first cores_on cores of each node at P0, rest off
    pstates = datacenter.all_off_pstates()
    tc = np.zeros((t_count, datacenter.n_cores))
    for node in datacenter.nodes:
        k = int(cores_on[node.index])
        if k <= 0:
            continue
        first = node.first_core
        pstates[first:first + k] = 0
        node_rate = (n_cores[node.index]
                     * ecs0[:, type_of[node.index]]
                     * frac[:, node.index])
        tc[:, first:first + k] = (node_rate / k)[:, None]
    node_power = datacenter.node_power_kw(pstates)
    # validity of the linearized CRAC power at the rounded solution
    t_in = lin.inlet_temperatures(node_power)
    n_crac = lin.t_crac_out.size
    if np.any(t_in[:n_crac] < lin.t_crac_out - 1e-6):
        return None
    return BaselineSolution(
        frac=frac,
        cores_on=cores_on,
        reward_rate=reward,
        pstates=pstates,
        tc=tc,
        node_power_kw=node_power,
        t_crac_out=lin.t_crac_out.copy(),
    )


def solve_baseline(datacenter: DataCenter, workload: Workload,
                   p_const: float, *, search: str = "fast",
                   coarse_step: float = 5.0, final_step: float = 1.0
                   ) -> tuple[BaselineSolution, SearchResult]:
    """Baseline with the same CRAC outlet-temperature search as Stage 1."""
    model = datacenter.require_thermal()
    redline = datacenter.redline_c
    lows = [c.outlet_range_c[0] for c in datacenter.cracs]
    highs = [c.outlet_range_c[1] for c in datacenter.cracs]
    cop_model = datacenter.cracs[0].cop_model
    cache: dict[bytes, BaselineSolution] = {}

    def objective(t_vec: np.ndarray) -> float | None:
        lin = ThermalLinearization.build(model, t_vec, redline, cop_model)
        sol = solve_baseline_fixed_temps(datacenter, workload, lin, p_const)
        if sol is None:
            return None
        cache[t_vec.tobytes()] = sol
        return sol.reward_rate

    if search == "fast":
        result = uniform_then_coordinate_search(
            objective, datacenter.n_crac, min(lows), max(highs),
            step=final_step, maximize=True)
    elif search == "full":
        result = coarse_to_fine_search(
            objective, datacenter.n_crac, min(lows), max(highs),
            coarse_step=coarse_step, final_step=final_step,
            uniform_first=True, maximize=True)
    else:
        raise ValueError(f"unknown search mode {search!r} (use 'fast' or 'full')")
    return cache[result.temperatures.tobytes()], result
