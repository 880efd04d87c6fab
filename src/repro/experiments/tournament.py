"""Solver tournament: every registered backend on the scenario matrix.

The tournament answers the paper's implicit question — *how close to
optimal is the three-stage decomposition?* — by racing every solver
backend (:mod:`repro.solvers`) on the same generated rooms and
reporting, per ``(simulation set, backend)``:

* **reward rate** — the Stage 3 / backend objective (Figure 6 metric);
* **optimality gap** — percent below the three-stage reward on the same
  room (negative = the backend beat the decomposition);
* **redline-violation minutes** — thermal transient from the idle room
  into the backend's operating point (all feasible backends settle
  clean; the column catches one that only *ends* feasible);
* **evaluation count** — budget actually consumed (0 for the
  closed-form built-ins).

Every point is a pure function of ``(TournamentConfig, set, backend)``
— seeded backends are bit-deterministic and **no wall-clock fields are
recorded** — so tournament JSON is byte-identical across ``--jobs``
values (CI diffs it) and points ride the engine's
:func:`~repro.experiments.engine.sweep` and its point cache for
``--resume``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.api import SolveOptions, SolveRequest, solve
from repro.core.controller import idle_start_t_out
from repro.experiments.config import paper_sets, scaled_down
from repro.experiments.engine import SweepPoint, sweep
from repro.experiments.generator import Scenario, generate_scenario
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.thermal.transient import simulate_transient

__all__ = ["TournamentConfig", "TournamentPoint", "run_tournament_point",
           "sweep_tournament", "tournament_table"]


@dataclass(frozen=True)
class TournamentConfig:
    """Everything that determines a tournament (except the point index).

    Attributes
    ----------
    n_nodes / seed:
        Room recipe per set: ``generate_scenario(scaled_down(set,
        n_nodes), seed)`` — the same shape ``repro fig6`` shrinks to.
    sets:
        Paper simulation sets raced (1-based, as in Figure 6).
    backends:
        Registered solver backends to race.
    backend_seed / max_evals:
        RNG seed and evaluation budget handed to every stochastic
        backend (budgets are evaluations, never wall-clock).
    tau_s:
        Node thermal time constant for the idle-to-plan transient.
    """

    n_nodes: int = 20
    seed: int = 1000
    sets: tuple[int, ...] = (1,)
    backends: tuple[str, ...] = ("three_stage", "annealing", "evolution")
    backend_seed: int = 0
    max_evals: int = 800
    tau_s: float = 120.0

    def __post_init__(self) -> None:
        if not self.sets or not self.backends:
            raise ValueError("need at least one set and one backend")
        if any(s not in (1, 2, 3) for s in self.sets):
            raise ValueError("sets are 1-based paper set indices (1-3)")


@dataclass
class TournamentPoint(SweepPoint):
    """One ``(set, backend)`` race result.

    ``gap_pct`` is filled in by :func:`sweep_tournament` relative to the
    same set's three-stage point (``None`` — JSON ``null`` — when
    three-stage is absent or earned nothing).  Deliberately contains
    **no wall-clock fields** so serialized points are byte-identical
    across runs and ``--jobs``.  ``set`` is the 1-based paper set index.
    """

    set: int
    backend: str
    reward_rate: float
    evaluations: int
    violation_minutes: float
    p_const: float
    gap_pct: float | None = None


def _tournament_scenario(config: TournamentConfig,
                         set_index: int) -> Scenario:
    base = paper_sets()[set_index - 1]
    return generate_scenario(scaled_down(base, config.n_nodes),
                             config.seed)


def run_tournament_point(config: TournamentConfig, set_index: int,
                         backend: str) -> TournamentPoint:
    """Race one backend on one set's room; pure in its arguments."""
    scenario = _tournament_scenario(config, set_index)
    dc = scenario.datacenter
    with obs_span("tournament", set=set_index, backend=backend,
                  n_nodes=dc.n_nodes):
        request = SolveRequest(
            dc, scenario.workload, scenario.p_const,
            options=SolveOptions(backend=backend,
                                 seed=config.backend_seed,
                                 max_evals=config.max_evals))
        result = solve(request)
        result.verify(dc, scenario.p_const)
        # thermal exposure of the idle-room -> plan transition
        transient = simulate_transient(
            dc.require_thermal(), result.t_crac_out,
            dc.node_power_kw(result.pstates), idle_start_t_out(dc),
            duration_s=10.0 * config.tau_s, tau_s=config.tau_s)
        violation = transient.violation_minutes(dc.redline_c)
    obs_metrics.counter("tournament.points").inc()
    return TournamentPoint(
        set=set_index,
        backend=backend,
        reward_rate=float(result.reward_rate),
        evaluations=int(getattr(result, "evaluations", 0)),
        violation_minutes=float(violation),
        p_const=float(scenario.p_const))


def sweep_tournament(config: TournamentConfig, *, jobs: int = 1,
                     cache_dir: str | None = None,
                     resume: bool = False) -> list[TournamentPoint]:
    """Race every configured backend on every configured set.

    Points run through :func:`~repro.experiments.engine.sweep`
    (bit-identical across ``--jobs``, cached for ``--resume``).
    Returned points are ordered by (set, configured backend order) with
    ``gap_pct`` filled in relative to each set's three-stage point.
    """
    arms = [{"set_index": s, "backend": b}
            for s in config.sets for b in config.backends]
    points = sweep("tournament", config, arms, run_tournament_point,
                   TournamentPoint, jobs=jobs, cache_dir=cache_dir,
                   resume=resume)
    reference = {p.set: p.reward_rate for p in points
                 if p.backend == "three_stage"}
    for point in points:
        anchor = reference.get(point.set, 0.0)
        point.gap_pct = (100.0 * (1.0 - point.reward_rate / anchor)
                         if anchor > 0 else None)
    return points


def tournament_table(points: list[TournamentPoint]) -> str:
    """Fixed-width text table of a tournament (CLI output)."""
    lines = [f"{'set':>4}{'backend':>13}{'reward/s':>10}{'gap':>8}"
             f"{'viol min':>9}{'evals':>7}"]
    for p in points:
        gap = ("    ---" if p.gap_pct is None
               else f"{p.gap_pct:6.1f}%")
        lines.append(
            f"{p.set:>4d}{p.backend:>13}{p.reward_rate:>10.1f}"
            f"{gap}{p.violation_minutes:>9.2f}{p.evaluations:>7d}")
    return "\n".join(lines)
