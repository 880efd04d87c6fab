"""The paper's primary contribution: data-center-level thermal-aware
P-state assignment (three-stage first step + dynamic second step) and
the P0-or-off baseline it is compared against."""

from repro.core.api import (BestPsiOutcome, SolveOptions, SolveOutcome,
                            SolveRequest, SolveResult, SolveState, solve)
from repro.core.arr import (AggregateRewardRate, aggregate_reward_rate,
                            select_best_task_types)
from repro.core.assignment import (AssignmentResult, best_psi_assignment,
                                   three_stage_assignment)
from repro.core.baseline import (BaselineSolution, solve_baseline,
                                 solve_baseline_fixed_temps)
from repro.core.consolidation import ConsolidationResult, consolidate
from repro.core.exact import ExactResult, count_assignments, solve_exact
from repro.core.queueing import (ClassQueue, erlang_c, mm1k_blocking,
                                 predict_completion)
from repro.core.minpower import (MinPowerResult, minimize_power,
                                 solve_minpower_fixed_temps)
from repro.core.reward import reward_power_ratio, reward_rate_function
from repro.core.scheduler import DynamicScheduler
from repro.core.serverlevel import (ServerLevelSolution,
                                    local_governor_pstate,
                                    solve_server_level)
from repro.core.stage1 import (Stage1Solution, build_arr_functions,
                               distribute_node_power, solve_stage1,
                               solve_stage1_fixed_temps)
from repro.core.stage2 import (Stage2Solution, convert_power_to_pstates,
                               solve_stage2)
from repro.core.stage3 import Stage3Solution, solve_stage3
from repro.core.stage3_power import solve_stage3_power_aware

__all__ = [
    "BestPsiOutcome",
    "SolveOptions",
    "SolveOutcome",
    "SolveRequest",
    "SolveResult",
    "SolveState",
    "solve",
    "AggregateRewardRate",
    "aggregate_reward_rate",
    "select_best_task_types",
    "AssignmentResult",
    "best_psi_assignment",
    "three_stage_assignment",
    "BaselineSolution",
    "solve_baseline",
    "solve_baseline_fixed_temps",
    "ConsolidationResult",
    "consolidate",
    "ExactResult",
    "count_assignments",
    "solve_exact",
    "ClassQueue",
    "erlang_c",
    "mm1k_blocking",
    "predict_completion",
    "MinPowerResult",
    "minimize_power",
    "solve_minpower_fixed_temps",
    "reward_power_ratio",
    "reward_rate_function",
    "DynamicScheduler",
    "ServerLevelSolution",
    "local_governor_pstate",
    "solve_server_level",
    "Stage1Solution",
    "build_arr_functions",
    "distribute_node_power",
    "solve_stage1",
    "solve_stage1_fixed_temps",
    "Stage2Solution",
    "convert_power_to_pstates",
    "solve_stage2",
    "Stage3Solution",
    "solve_stage3",
    "solve_stage3_power_aware",
]
