"""Command-line interface: ``python -m repro <command>``.

Exposes the experiment layer without writing any code:

* ``tables``   — print Tables I and II.
* ``compare``  — one room, all three techniques, constraint audit.
* ``fig6``     — the headline experiment at a chosen scale (CSV export).
* ``simulate`` — first step + second-step DES replay on one room.
* ``serve``    — live rolling-horizon control service on a streaming
  arrival trace (:mod:`repro.serve`, see ``docs/SERVING.md``).
* ``sweep``    — capacity planning: reward vs power cap (CSV export).
* ``chaos``    — fault-injection sweep: degradation vs fault rate.
* ``control``  — predictive (MPC) vs reactive control under a flash
  crowd and seeded faults (:mod:`repro.control`, see
  ``docs/CONTROL.md``).
* ``profile``  — render the profile tree of a ``--trace-out`` log.
* ``lint``     — AST-based determinism/physics/hygiene analysis
  (:mod:`repro.lint`, see ``docs/LINTING.md``).

``fig6``, ``sweep``, ``simulate`` and ``chaos`` accept
``--trace-out PATH``: the run records spans/metrics
(:mod:`repro.obs`) and writes a JSON-lines event log that
``repro profile`` aggregates into a wall-clock profile tree.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ----------------------------------------------------------------------
# Shared argparse parents.  Several subcommands accept the same flags;
# each family is defined once here (``add_help=False`` parents composed
# via ``add_parser(parents=[...])``) so the help text stays
# byte-identical across subcommands by construction.

def _engine_parent() -> argparse.ArgumentParser:
    """``--jobs`` / ``--cache-dir`` / ``--resume`` (the engine family)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (1 = serial; results are "
                        "identical either way)")
    p.add_argument("--cache-dir", type=str, default=".repro-cache",
                   help="directory for per-run result caching "
                        "(default .repro-cache)")
    p.add_argument("--resume", action="store_true",
                   help="replay cached runs instead of recomputing")
    return p


def _trace_out_parent() -> argparse.ArgumentParser:
    """``--trace-out`` (observability event log)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--trace-out", type=str, default=None,
                   metavar="PATH",
                   help="record spans/metrics and write a JSON-lines "
                        "event log here (inspect with 'repro profile')")
    return p


def _json_parent() -> argparse.ArgumentParser:
    """``--json`` (machine-readable output)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON summary instead "
                        "of the text report")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thermal-aware data center P-state assignment "
                    "(IPDPSW 2012 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    engine = _engine_parent()
    trace_out = _trace_out_parent()
    json_flag = _json_parent()

    p_tables = sub.add_parser("tables", help="print Tables I and II")
    p_tables.add_argument("--static", type=float, default=0.3,
                          help="P-state-0 static power fraction "
                               "(default 0.3)")

    p_cmp = sub.add_parser("compare",
                           help="compare techniques on one random room")
    p_cmp.add_argument("--nodes", type=int, default=30)
    p_cmp.add_argument("--seed", type=int, default=1)
    p_cmp.add_argument("--set", dest="paper_set", type=int, default=3,
                       choices=(1, 2, 3), help="paper simulation set")

    p_fig6 = sub.add_parser("fig6",
                            parents=[engine, trace_out],
                            help="run the Figure 6 experiment")
    p_fig6.add_argument("--runs", type=int, default=5,
                        help="simulation runs per set (paper: 25)")
    p_fig6.add_argument("--nodes", type=int, default=30,
                        help="compute nodes per room (paper: 150)")
    p_fig6.add_argument("--seed", type=int, default=1000)
    p_fig6.add_argument("--csv", type=str, default=None,
                        help="also write the bar series to this CSV file")

    p_sweep = sub.add_parser(
        "sweep", parents=[engine, trace_out],
        help="capacity planning: reward vs power cap")
    p_sweep.add_argument("--nodes", type=int, default=25)
    p_sweep.add_argument("--seed", type=int, default=4)
    p_sweep.add_argument("--points", type=int, default=6)
    p_sweep.add_argument("--csv", type=str, default=None,
                         help="also write the curve to this CSV file")

    p_sim = sub.add_parser("simulate", parents=[trace_out, json_flag],
                           help="first step + DES second step on one room")
    p_sim.add_argument("--nodes", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--horizon", type=float, default=30.0,
                       help="simulated seconds of task arrivals")
    p_sim.add_argument("--controller", choices=("static", "interval", "mpc"),
                       default="static",
                       help="static = one plan for the whole horizon "
                            "(default); interval = epoch replans with the "
                            "transient guard; mpc = receding-horizon "
                            "predictive replans (docs/CONTROL.md)")
    p_sim.add_argument("--epoch-s", type=float, default=60.0,
                       help="replan epoch for interval/mpc controllers "
                            "(default 60)")
    p_sim.add_argument("--forecast", choices=("oracle", "persistence",
                                              "noisy"),
                       default="oracle",
                       help="mpc forecast provider (default oracle)")

    p_serve = sub.add_parser(
        "serve", parents=[trace_out, json_flag],
        help="live rolling-horizon control service on a streaming trace")
    p_serve.add_argument("--nodes", type=int, default=20)
    p_serve.add_argument("--seed", type=int, default=1)
    p_serve.add_argument("--ticks", type=_positive_int, default=20,
                         help="control ticks to run (default 20)")
    p_serve.add_argument("--tick-s", type=float, default=30.0,
                         help="control-tick length, seconds (default 30)")
    p_serve.add_argument("--trace", choices=("diurnal", "burst", "shift",
                                             "composite"),
                         default="composite",
                         help="arrival-trace shape: diurnal cycle, "
                              "flash-crowd burst, regional demand shift, "
                              "or all three composed (default composite)")
    p_serve.add_argument("--warm", choices=("off", "replay"),
                         default="replay",
                         help="warm-start policy for the per-tick replans "
                              "(default replay; see docs/SERVING.md)")
    p_serve.add_argument("--controller", choices=("interval", "mpc"),
                         default="interval",
                         help="per-tick replan policy: reactive interval "
                              "(default) or receding-horizon mpc "
                              "(docs/CONTROL.md)")
    p_serve.add_argument("--mpc-horizon", type=_positive_int, default=3,
                         help="mpc lookahead depth in ticks (default 3)")
    p_serve.add_argument("--forecast", choices=("oracle", "persistence",
                                                "noisy"),
                         default="oracle",
                         help="mpc forecast provider over the trace "
                              "profile (default oracle)")

    p_chaos = sub.add_parser(
        "chaos", parents=[engine, trace_out, json_flag],
        help="fault-injection sweep on one room")
    p_chaos.add_argument("--nodes", type=int, default=20)
    p_chaos.add_argument("--seed", type=int, default=1)
    p_chaos.add_argument("--horizon", type=float, default=30.0,
                         help="simulated seconds of task arrivals")
    p_chaos.add_argument("--factors", type=str, default="0,0.5,1,2",
                         help="comma-separated fault-rate factors "
                              "(0 = healthy control, always included)")
    p_chaos.add_argument("--scenario", type=str, default=None,
                         help="explicit fault-schedule file (JSON, or YAML "
                              "when PyYAML is installed) run instead of the "
                              "factor sweep")
    p_chaos.add_argument("--stranded", choices=("requeue", "drop"),
                         default="requeue",
                         help="what happens to tasks stranded on crashed "
                              "cores (default requeue)")
    p_chaos.add_argument("--controller", choices=("interval", "mpc"),
                         default="interval",
                         help="fault-reaction replan policy (default "
                              "interval; see docs/CONTROL.md)")

    p_ctl = sub.add_parser(
        "control", parents=[engine, trace_out, json_flag],
        help="predictive vs reactive control under flash crowd + faults")
    p_ctl.add_argument("--nodes", type=int, default=12)
    p_ctl.add_argument("--seed", type=int, default=1)
    p_ctl.add_argument("--horizon", type=float, default=360.0,
                       help="simulated seconds (default 360)")
    p_ctl.add_argument("--epoch-s", type=float, default=60.0,
                       help="decision epoch of both arms (default 60)")
    p_ctl.add_argument("--factors", type=str, default="0,1",
                       help="comma-separated fault-rate factors "
                            "(0 = healthy control, always included)")
    p_ctl.add_argument("--controllers", type=str, default="interval,mpc",
                       help="comma-separated controller arms "
                            "(default interval,mpc)")
    p_ctl.add_argument("--forecast", choices=("oracle", "persistence",
                                              "noisy"),
                       default="oracle",
                       help="mpc forecast provider (default oracle)")
    p_ctl.add_argument("--mpc-horizon", type=_positive_int, default=3,
                       help="mpc lookahead depth in epochs (default 3)")

    p_tour = sub.add_parser(
        "tournament", parents=[engine, trace_out, json_flag],
        help="race every solver backend on the scenario matrix")
    p_tour.add_argument("--nodes", type=int, default=20)
    p_tour.add_argument("--seed", type=int, default=1000)
    p_tour.add_argument("--sets", type=str, default="1",
                        help="comma-separated paper sets to race "
                             "(default 1)")
    p_tour.add_argument("--backends", type=str,
                        default="three_stage,annealing,evolution",
                        help="comma-separated solver backends (see "
                             "docs/SOLVERS.md)")
    p_tour.add_argument("--max-evals", type=_positive_int, default=800,
                        help="evaluation budget per metaheuristic solve "
                             "(default 800)")
    p_tour.add_argument("--backend-seed", type=int, default=0,
                        help="RNG seed for stochastic backends (default 0)")

    p_lint = sub.add_parser(
        "lint", help="AST-based determinism/physics/hygiene analysis")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(p_lint)

    p_prof = sub.add_parser(
        "profile", help="render the profile of a --trace-out event log")
    p_prof.add_argument("log", type=str,
                        help="JSON-lines event log written by --trace-out")
    p_prof.add_argument("--min-total", type=float, default=0.0,
                        help="hide spans whose total time is below this "
                             "many seconds")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the profile tree + metrics as JSON")
    return parser


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_table1, format_table2

    print(format_table1(args.static))
    print()
    print(format_table2())
    return 0


def _set_config(paper_set: int, n_nodes: int):
    from repro.experiments.config import paper_sets, scaled_down

    return scaled_down(paper_sets()[paper_set - 1], n_nodes)


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core import (solve_baseline, solve_server_level,
                            three_stage_assignment)
    from repro.experiments.generator import generate_scenario

    sc = generate_scenario(_set_config(args.paper_set, args.nodes),
                           args.seed)
    dc = sc.datacenter
    print(f"room: {args.nodes} nodes, cap {sc.p_const:.1f} kW "
          f"(set {args.paper_set}, seed {args.seed})")
    ours = three_stage_assignment(dc, sc.workload, sc.p_const,
                                  psi=50.0)
    ours.verify(dc, sc.p_const)
    base, _ = solve_baseline(dc, sc.workload, sc.p_const)
    srv, _ = solve_server_level(dc, sc.workload, sc.p_const)
    print(f"  three-stage (psi=50): {ours.reward_rate:9.1f} reward/s")
    print(f"  P0-or-off baseline  : {base.reward_rate:9.1f} reward/s")
    print(f"  server-level 80%    : {srv.reward_rate:9.1f} reward/s")
    imp = 100 * (ours.reward_rate - base.reward_rate) / base.reward_rate
    print(f"  improvement over baseline: {imp:+.2f}%")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.config import paper_sets, scaled_down
    from repro.experiments.export import fig6_csv, write_csv
    from repro.experiments.figures import fig6_data, format_fig6
    from repro.experiments.progress import PrintingReporter

    configs = [scaled_down(c, args.nodes) for c in paper_sets()]
    reporter = PrintingReporter()
    results = fig6_data(n_runs=args.runs, base_seed=args.seed,
                        configs=configs, jobs=args.jobs,
                        cache_dir=args.cache_dir, resume=args.resume,
                        reporter=reporter)
    print()
    print(f"engine: {reporter.summary()} "
          f"(jobs={args.jobs}, cache={args.cache_dir})")
    print(format_fig6(results))
    if args.csv:
        write_csv(fig6_csv(results), args.csv)
        print(f"series written to {args.csv}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.config import PAPER_SET_3, scaled_down
    from repro.experiments.export import capacity_csv, write_csv
    from repro.experiments.generator import generate_scenario
    from repro.experiments.sweeps import sweep_power_cap

    sc = generate_scenario(scaled_down(PAPER_SET_3, args.nodes), args.seed)
    lo, hi = sc.bounds.p_min, sc.bounds.p_max
    caps = np.linspace(lo * 1.02, hi, args.points)
    points = sweep_power_cap(
        sc.datacenter, sc.workload, caps, jobs=args.jobs,
        cache_dir=args.cache_dir, resume=args.resume,
        tag=f"sweep-set3-n{args.nodes}-seed{args.seed}")
    print(f"{'cap kW':>8}{'3-stage/s':>11}{'baseline/s':>12}{'edge %':>8}")
    for p in points:
        base = ("---" if p.reward_baseline is None
                else f"{p.reward_baseline:.1f}")
        edge = ("---" if p.improvement_pct is None
                else f"{p.improvement_pct:+.2f}")
        print(f"{p.p_const:>8.1f}{p.reward_three_stage:>11.1f}"
              f"{base:>12}{edge:>8}")
    if args.csv:
        write_csv(capacity_csv(points), args.csv)
        print(f"series written to {args.csv}")
    return 0


def _cmd_simulate_controller(args: argparse.Namespace, sc) -> int:
    """The ``--controller interval|mpc`` branch of ``repro simulate``."""
    import json

    from repro.faults import (FaultAwareController, FaultSchedule,
                              ReactionPolicy)
    from repro.workload import ConstantProfile, generate_nonstationary_trace

    profile = ConstantProfile(sc.workload.arrival_rates)
    trace = generate_nonstationary_trace(
        sc.workload, profile, args.horizon,
        np.random.default_rng(args.seed + 1))
    policy = ReactionPolicy(controller=args.controller,
                            epoch_s=args.epoch_s, forecast=args.forecast)
    result = FaultAwareController(
        sc.datacenter, sc.workload, sc.p_const, policy).run(
        trace, args.horizon, FaultSchedule.empty(), profile=profile)
    if args.json:
        doc = {
            "controller": args.controller,
            "n_epochs": len(result.intervals),
            "reward_rate": result.reward_rate,
            "total_reward": result.total_reward,
            "precools": result.precools,
            "derates": result.derates,
            "violation_minutes": result.violation_minutes,
        }
        print(json.dumps(doc, sort_keys=True, allow_nan=False))
        return 0
    print(f"controller          : {args.controller} "
          f"({len(result.intervals)} epochs x {args.epoch_s:.0f}s)")
    print(f"achieved reward rate: {result.reward_rate:9.1f}/s")
    print(f"escalations         : {result.precools} precools, "
          f"{result.derates} derates")
    print(f"violation minutes   : {result.violation_minutes:.2f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json

    from repro.core import three_stage_assignment
    from repro.experiments.config import PAPER_SET_1, scaled_down
    from repro.experiments.generator import generate_scenario
    from repro.simulate import simulate_trace
    from repro.workload import generate_trace

    sc = generate_scenario(scaled_down(PAPER_SET_1, args.nodes), args.seed)
    if args.controller != "static":
        return _cmd_simulate_controller(args, sc)
    plan = three_stage_assignment(sc.datacenter, sc.workload, sc.p_const,
                                  psi=50.0)
    trace = generate_trace(sc.workload, args.horizon,
                           np.random.default_rng(args.seed + 1))
    metrics = simulate_trace(sc.datacenter, sc.workload, plan.tc,
                             plan.pstates, trace, duration=args.horizon)
    if args.json:
        doc = metrics.to_dict()
        doc["planned_reward_rate"] = plan.reward_rate
        doc["n_tasks"] = len(trace)
        print(json.dumps(doc, sort_keys=True))
        return 0
    # a tiny room/horizon can legally plan zero reward; don't divide by it
    achieved_pct = (f" ({100 * metrics.reward_rate / plan.reward_rate:.1f}%)"
                    if plan.reward_rate > 0 else "")
    print(f"planned reward rate : {plan.reward_rate:9.1f}/s")
    print(f"achieved (DES)      : {metrics.reward_rate:9.1f}/s"
          f"{achieved_pct}")
    print(f"tasks               : {metrics.completed.sum()} completed, "
          f"{metrics.dropped.sum()} dropped of {len(trace)}")
    print(f"mean core utilization: {metrics.utilization.mean():.1%}")
    return 0


def _serve_profile(kind: str, base_rates: np.ndarray, tick_s: float,
                   n_ticks: int):
    """Build the arrival profile behind ``repro serve --trace``."""
    from repro.workload import (ConstantProfile, DiurnalProfile,
                                FlashCrowdProfile, RegionalShiftProfile)

    horizon = tick_s * n_ticks
    if kind == "diurnal":
        return DiurnalProfile(base_rates=base_rates, amplitude=0.4,
                              period_s=horizon)
    if kind == "burst":
        return FlashCrowdProfile(
            ConstantProfile(base_rates=base_rates),
            bursts=((horizon / 3.0, horizon / 6.0, 4.0),))
    if kind == "shift":
        return RegionalShiftProfile(ConstantProfile(base_rates=base_rates),
                                    amplitude=0.3, period_s=horizon)
    # composite: diurnal cycle + regional shift + one flash crowd
    diurnal = DiurnalProfile(base_rates=base_rates, amplitude=0.4,
                             period_s=horizon)
    shifted = RegionalShiftProfile(diurnal, amplitude=0.3,
                                   period_s=horizon / 2.0)
    return FlashCrowdProfile(shifted,
                             bursts=((horizon / 3.0, horizon / 6.0, 4.0),))


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.config import PAPER_SET_1, scaled_down
    from repro.experiments.generator import generate_scenario
    from repro.serve import ServeConfig, serve_trace
    from repro.workload import stream_trace_ticks

    sc = generate_scenario(scaled_down(PAPER_SET_1, args.nodes), args.seed)
    profile = _serve_profile(args.trace, sc.workload.arrival_rates,
                             args.tick_s, args.ticks)
    config = ServeConfig(tick_s=args.tick_s, warm=args.warm,
                         controller=args.controller,
                         horizon_ticks=args.mpc_horizon)
    forecast = None
    if args.controller == "mpc":
        from repro.control import make_forecast
        forecast = make_forecast(args.forecast, profile,
                                 seed=args.seed)
    ticks = stream_trace_ticks(sc.workload, profile, args.tick_s,
                               args.ticks,
                               np.random.default_rng(args.seed + 1))
    result = serve_trace(sc.datacenter, sc.workload, sc.p_const, ticks,
                         config, forecast)
    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True))
        return 0
    print(f"serve: {args.nodes} nodes, cap {sc.p_const:.1f} kW, "
          f"{args.ticks} ticks x {args.tick_s:.0f}s, trace={args.trace}, "
          f"warm={args.warm}, controller={args.controller}")
    print(f"{'tick':>5}{'reward/s':>10}{'warm':>10}{'arrived':>9}"
          f"{'admitted':>9}{'shed':>7}")
    for t in result.ticks:
        print(f"{t.index:>5}{t.reward_rate:>10.1f}{t.warm_level:>10}"
              f"{t.arrived:>9}{t.admitted:>9}{t.shed_tasks:>7}")
    levels = ", ".join(f"{k}={v}" for k, v in
                       sorted(result.warm_levels.items()))
    print(f"total: {result.total_reward:.0f} reward predicted, "
          f"{result.tasks_shed} of {result.tasks_arrived} tasks shed "
          f"over {result.shed_ticks} shed ticks ({levels})")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.chaos import (ChaosConfig, ChaosPoint,
                                         chaos_table, run_chaos_scenario,
                                         sweep_chaos)
    from repro.faults.schedule import load_schedule

    config = ChaosConfig(n_nodes=args.nodes, seed=args.seed,
                         horizon_s=args.horizon, stranded=args.stranded,
                         controller=args.controller)
    if args.scenario is not None:
        schedule = load_schedule(args.scenario)
        result = run_chaos_scenario(config, schedule)
        if args.json:
            print(json.dumps(result.to_dict(), sort_keys=True,
                             allow_nan=False))
            return 0
        print(f"scenario: {len(schedule)} fault events over "
              f"{args.horizon:.0f}s ({args.nodes} nodes, seed {args.seed})")
        print(chaos_table([ChaosPoint.from_result(float("nan"), result)]))
        return 0
    try:
        factors = [float(f) for f in args.factors.split(",") if f.strip()]
    except ValueError:
        print(f"invalid --factors value: {args.factors!r}", file=sys.stderr)
        return 2
    points = sweep_chaos(config, factors, jobs=args.jobs,
                         cache_dir=args.cache_dir, resume=args.resume)
    if args.json:
        print(json.dumps({"schema": 1,
                          "config": {"n_nodes": args.nodes,
                                     "seed": args.seed,
                                     "horizon_s": args.horizon,
                                     "stranded": args.stranded,
                                     "controller": args.controller},
                          "points": [p.to_dict() for p in points]},
                         sort_keys=True, allow_nan=False))
        return 0
    print(f"chaos sweep: {args.nodes} nodes, seed {args.seed}, "
          f"{args.horizon:.0f}s horizon, stranded={args.stranded}, "
          f"controller={args.controller}")
    print(chaos_table(points))
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.control import (ControlConfig, control_table,
                                           sweep_control)

    try:
        factors = [float(f) for f in args.factors.split(",") if f.strip()]
    except ValueError:
        print(f"invalid --factors value: {args.factors!r}", file=sys.stderr)
        return 2
    controllers = tuple(c.strip() for c in args.controllers.split(",")
                        if c.strip())
    config = ControlConfig(n_nodes=args.nodes, seed=args.seed,
                           horizon_s=args.horizon, epoch_s=args.epoch_s,
                           horizon_steps=args.mpc_horizon,
                           forecast=args.forecast)
    try:
        points = sweep_control(config, factors, controllers,
                               jobs=args.jobs, cache_dir=args.cache_dir,
                               resume=args.resume)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"schema": 1,
                          "config": {"n_nodes": args.nodes,
                                     "seed": args.seed,
                                     "horizon_s": args.horizon,
                                     "epoch_s": args.epoch_s,
                                     "horizon_steps": args.mpc_horizon,
                                     "forecast": args.forecast,
                                     "controllers": list(controllers)},
                          "points": [p.to_dict() for p in points]},
                         sort_keys=True, allow_nan=False))
        return 0
    print(f"control sweep: {args.nodes} nodes, seed {args.seed}, "
          f"{args.horizon:.0f}s horizon, epoch {args.epoch_s:.0f}s, "
          f"forecast={args.forecast}")
    print(control_table(points))
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.tournament import (TournamentConfig,
                                              sweep_tournament,
                                              tournament_table)

    try:
        sets = tuple(int(s) for s in args.sets.split(",") if s.strip())
    except ValueError:
        print(f"invalid --sets value: {args.sets!r}", file=sys.stderr)
        return 2
    backends = tuple(b.strip() for b in args.backends.split(",")
                     if b.strip())
    try:
        config = TournamentConfig(
            n_nodes=args.nodes, seed=args.seed, sets=sets,
            backends=backends, backend_seed=args.backend_seed,
            max_evals=args.max_evals)
        points = sweep_tournament(config, jobs=args.jobs,
                                  cache_dir=args.cache_dir,
                                  resume=args.resume)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"schema": 1,
                          "config": {"n_nodes": args.nodes,
                                     "seed": args.seed,
                                     "sets": list(sets),
                                     "backends": list(backends),
                                     "backend_seed": args.backend_seed,
                                     "max_evals": args.max_evals},
                          "points": [p.to_dict() for p in points]},
                         sort_keys=True, allow_nan=False))
        return 0
    print(f"solver tournament: {args.nodes} nodes, seed {args.seed}, "
          f"sets {','.join(str(s) for s in sets)}, "
          f"budget {args.max_evals} evals")
    print(tournament_table(points))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (profile_from_snapshot, profile_to_dict,
                           read_events_jsonl, render_metrics,
                           render_profile)

    try:
        snapshot = read_events_jsonl(args.log)
    except (OSError, ValueError) as exc:
        print(f"cannot read event log: {exc}", file=sys.stderr)
        return 2
    root = profile_from_snapshot(snapshot)
    if args.json:
        print(json.dumps({"schema": 1,
                          "meta": snapshot["meta"],
                          "profile": profile_to_dict(root),
                          "metrics": snapshot["metrics"]}, sort_keys=True))
        return 0
    print(render_profile(root, min_total_s=args.min_total))
    print()
    print(render_metrics(snapshot["metrics"]))
    return 0


_COMMANDS = {
    "tables": _cmd_tables,
    "compare": _cmd_compare,
    "fig6": _cmd_fig6,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "sweep": _cmd_sweep,
    "chaos": _cmd_chaos,
    "control": _cmd_control,
    "tournament": _cmd_tournament,
    "lint": _cmd_lint,
    "profile": _cmd_profile,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        return _COMMANDS[args.command](args)
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        code = _COMMANDS[args.command](args)
    finally:
        obs.disable()
        n = obs.write_events_jsonl(trace_out,
                                   meta={"command": args.command})
        print(f"trace: {n} spans -> {trace_out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
