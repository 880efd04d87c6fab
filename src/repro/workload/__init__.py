"""Workload substrate: ECS matrices, task types, rewards/deadlines/arrivals,
and Poisson task traces (Sections III.B-D, VI.C-D)."""

from repro.workload.ecs import (extend_ecs, generate_ecs, generate_p0_ecs,
                                task_type_means)
from repro.workload.profiles import (ArrivalProfile, ConstantProfile,
                                     DiurnalProfile, StepProfile,
                                     generate_nonstationary_trace)
from repro.workload.tasktypes import (Workload, arrival_rates, deadline_slacks,
                                      generate_workload, rewards_from_ecs)
from repro.workload.trace import (FlashCrowdProfile, RegionalShiftProfile,
                                  Task, TickDemand, Trace, generate_trace,
                                  stream_trace_ticks)

__all__ = [
    "extend_ecs",
    "generate_ecs",
    "generate_p0_ecs",
    "task_type_means",
    "ArrivalProfile",
    "ConstantProfile",
    "DiurnalProfile",
    "StepProfile",
    "generate_nonstationary_trace",
    "Workload",
    "arrival_rates",
    "deadline_slacks",
    "generate_workload",
    "rewards_from_ecs",
    "FlashCrowdProfile",
    "RegionalShiftProfile",
    "Task",
    "TickDemand",
    "Trace",
    "generate_trace",
    "stream_trace_ticks",
]
