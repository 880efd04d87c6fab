"""Golden-value regression suite.

Each test runs one headline pipeline at a fixed seed and pins its
observable outputs — reward rates, per-core P-states, CRAC outlets,
inlet temperatures, CRAC powers — to a committed JSON baseline.  Wall-clock measurements are deliberately
excluded (they are the only nondeterministic outputs).

The suite is the repo's early-warning system for silent numeric drift:
a kernel change, an LP-tie flip or a generator reordering shows up here
as a per-path diff long before it would move a paper figure.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import SolveOptions, SolveRequest, solve
from repro.experiments.chaos import ChaosConfig, sweep_chaos
from repro.experiments.config import PAPER_SET_1, paper_sets, scaled_down
from repro.experiments.figures import fig6_data
from repro.experiments.generator import generate_scenario
from repro.experiments.sweeps import sweep_power_cap
from repro.experiments.tournament import TournamentConfig, sweep_tournament

from tests.conftest import SEED


def test_solver_detail_golden(golden):
    """Full three-stage output on one room, down to per-core P-states."""
    sc = generate_scenario(scaled_down(PAPER_SET_1, 12), SEED)
    result = solve(SolveRequest(sc.datacenter, sc.workload, sc.p_const,
                                options=SolveOptions(psi=50.0)))
    result.verify(sc.datacenter, sc.p_const)
    power = result.power(sc.datacenter)
    steady = sc.datacenter.require_thermal().steady_state(
        result.t_crac_out, result.stage2.node_power_kw)
    golden("solver_detail", {
        "p_const_kw": float(sc.p_const),
        "reward_rate": float(result.reward_rate),
        "stage1_objective": float(result.stage1.objective),
        "t_crac_out_c": result.t_crac_out.tolist(),
        "pstates": [int(p) for p in result.pstates],
        "node_power_kw": result.stage2.node_power_kw.tolist(),
        "crac_power_kw": power.crac_kw.tolist(),
        "inlet_temperatures_c": steady.t_in.tolist(),
    })


def test_fig6_golden(golden):
    """The headline experiment, shrunk: 2 runs x 10 nodes x 3 sets."""
    configs = [scaled_down(c, 10) for c in paper_sets()]
    results = fig6_data(n_runs=2, base_seed=1000, configs=configs)
    document = {}
    for name, set_result in results.items():
        document[name] = {
            "runs": [r.to_dict() for r in set_result.runs],
            "improvement_means": {
                label: float(ci.mean)
                for label, ci in set_result.intervals.items()},
            "n_degenerate": len(set_result.degenerate),
            "n_failed": len(set_result.failures),
        }
    golden("fig6_small", document)


def test_capacity_sweep_golden(golden):
    """Reward-vs-cap curve at three caps on one 10-node room."""
    sc = generate_scenario(scaled_down(PAPER_SET_1, 10), SEED)
    caps = np.linspace(sc.bounds.p_min * 1.05, sc.bounds.p_max, 3)
    points = sweep_power_cap(sc.datacenter, sc.workload, caps)
    golden("capacity_sweep", {
        "points": [{
            "p_const_kw": p.p_const,
            "reward_three_stage": p.reward_three_stage,
            "reward_baseline": p.reward_baseline,
            "power_used_kw": p.power_used_kw,
        } for p in points],
    })


def test_tournament_golden(golden):
    """Each backend's seeded output on one small room.

    Pins every backend's full operating point — reward, outlets,
    P-states, evaluation counts — so a metaheuristic RNG/repair change
    can't silently drift the tournament results.
    """
    config = TournamentConfig(n_nodes=10, seed=SEED, sets=(1,),
                              backends=("three_stage", "annealing",
                                        "evolution"),
                              backend_seed=0, max_evals=200)
    points = sweep_tournament(config)
    from repro.core.api import SolveRequest as _Req
    from repro.experiments.generator import generate_scenario as _gen
    sc = _gen(scaled_down(PAPER_SET_1, 10), SEED)
    details = {}
    for backend in ("annealing", "evolution"):
        result = solve(_Req(sc.datacenter, sc.workload, sc.p_const,
                            options=SolveOptions(backend=backend, seed=0,
                                                 max_evals=200)))
        details[backend] = result.to_dict()
    golden("tournament", {
        "points": [p.to_dict() for p in points],
        "details": details,
    })


def test_stage1_zonal_golden(golden):
    """Zonal Stage 1 vs the monolithic LP on the shrunken fig6 room.

    Pins the decomposition's objective (equal to the monolithic optimum
    at the same fixed outlets), the per-node power plan and the
    reconciliation diagnostics, so a sweep/coordination change that
    degrades the decomposition shows up as a baseline diff.
    """
    from repro.core.stage1 import (build_arr_functions,
                                   solve_stage1_fixed_temps)
    from repro.core.stage1_zonal import solve_stage1_zonal
    from repro.thermal.constraints import ThermalLinearization

    sc = generate_scenario(scaled_down(PAPER_SET_1, 30), 1000)
    t_fixed = np.asarray([18.0, 17.0, 17.0])
    result, _ = solve_stage1_zonal(sc.datacenter, sc.workload,
                                   p_const=sc.p_const, t_crac_out=t_fixed)
    arrs = build_arr_functions(sc.datacenter, sc.workload, 50.0)
    lin = ThermalLinearization.build(
        sc.datacenter.require_thermal(), t_fixed, sc.datacenter.redline_c,
        sc.datacenter.cracs[0].cop_model)
    mono = solve_stage1_fixed_temps(sc.datacenter, arrs, lin, sc.p_const)
    golden("stage1_zonal", {
        "p_const_kw": float(sc.p_const),
        "t_crac_out_c": t_fixed.tolist(),
        "objective": float(result.objective),
        "monolithic_objective": float(mono.objective),
        "node_power_kw": result.node_power_kw.tolist(),
        "sweeps": int(result.sweeps),
        "repair_scale": float(result.repair_scale),
    })


def test_mpc_trajectory_golden(golden):
    """The epoch loop's MPC arm, epoch by epoch, on a flash-crowd trace.

    Pins the committed operating points (CRAC outlets, reward rates),
    the escalation ladder (pre-cool/derate levels), the planner's
    forecast and the measured transition diagnostics, so a
    planner/predictor change that moves any decision shows up as a
    per-epoch diff.
    """
    from repro.control.mpc import MPCConfig
    from repro.faults import (FaultAwareController, FaultSchedule,
                              ReactionPolicy)
    from repro.workload import (ConstantProfile, FlashCrowdProfile,
                                generate_nonstationary_trace)

    sc = generate_scenario(scaled_down(PAPER_SET_1, 10), SEED)
    profile = FlashCrowdProfile(
        ConstantProfile(base_rates=sc.workload.arrival_rates),
        bursts=((30.0, 30.0, 3.0),))
    trace = generate_nonstationary_trace(sc.workload, profile, 90.0,
                                         np.random.default_rng(SEED + 1))
    policy = ReactionPolicy(
        controller="mpc", tau_s=60.0,
        mpc=MPCConfig(horizon_steps=3, step_s=30.0, tau_s=60.0,
                      settle_factor=3.0))
    result = FaultAwareController(
        sc.datacenter, sc.workload, sc.p_const, policy).run(
        trace, 90.0, FaultSchedule.empty(), profile=profile)
    golden("mpc_trajectory", {
        "reward_rate": result.reward_rate,
        "total_reward": result.total_reward,
        "violation_minutes": result.violation_minutes,
        "precools": result.precools,
        "derates": result.derates,
        "shed_epochs": result.shed_intervals,
        "epochs": [{
            "start_s": e.start_s,
            "end_s": e.end_s,
            "plan_reward_rate": e.plan_reward_rate,
            "t_crac_out_c": e.t_crac_out_c,
            "precooled": e.precooled,
            "derated": e.derated,
            "predicted_overshoot_c": e.predicted_overshoot_c,
            "transient_overshoot_c": e.transient_overshoot_c,
            "violation_minutes": e.violation_minutes,
            "warm_level": e.warm_level,
            "shed": e.shed,
        } for e in result.intervals],
    })


def test_control_sweep_golden(golden):
    """MPC vs interval on one faulted flash-crowd room.

    Control points carry no wall-clock fields by design, so the whole
    point payload is pinned verbatim — including the escalation counts
    that tell the two control laws apart.
    """
    from repro.experiments.control import ControlConfig, sweep_control

    config = ControlConfig(n_nodes=6, seed=SEED, horizon_s=120.0,
                           epoch_s=30.0, burst_start_s=30.0,
                           burst_duration_s=60.0)
    points = sweep_control(config, [0.0, 1.0])
    golden("control_sweep", {
        "points": [p.to_dict() for p in points],
    })


def test_chaos_golden(golden):
    """Fault-injection sweep: healthy control plus factor 1.

    A chaos point is pure in (config, factor); every summary field is
    pinned, and the per-interval ``detail`` is left out.
    """
    config = ChaosConfig(n_nodes=6, seed=SEED, horizon_s=20.0)
    points = sweep_chaos(config, [0.0, 1.0])
    golden("chaos_sweep", {
        "points": [{key: value for key, value in p.to_dict().items()
                    if key != "detail"} for p in points],
    })
