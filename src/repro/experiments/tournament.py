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
values (CI diffs it) and points ride the PR-1 engine's generic cache
(:func:`~repro.experiments.engine.load_point` /
:func:`~repro.experiments.engine.store_point`) for ``--resume``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.api import SolveOptions, SolveRequest, solve
from repro.core.controller import idle_start_t_out
from repro.experiments.config import paper_sets, scaled_down
from repro.experiments.engine import load_point, parallel_map, store_point
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

    def cache_tag(self) -> str:
        return f"tournament-n{self.n_nodes}-seed{self.seed}"

    def cache_extra(self, set_index: int, backend: str) -> dict:
        return {
            "set": set_index,
            "backend": backend,
            "backend_seed": self.backend_seed,
            "max_evals": self.max_evals,
            "tau_s": self.tau_s,
        }


@dataclass
class TournamentPoint:
    """One ``(set, backend)`` race result.

    ``gap_pct`` is filled in by :func:`sweep_tournament` relative to the
    same set's three-stage point (``None`` — JSON ``null`` — when
    three-stage is absent or earned nothing).  Deliberately contains
    **no wall-clock fields** so serialized points are byte-identical
    across runs and ``--jobs``.
    """

    set_index: int
    backend: str
    reward_rate: float
    evaluations: int
    violation_minutes: float
    p_const: float
    gap_pct: float | None = None

    def to_dict(self) -> dict:
        return {
            "set": self.set_index,
            "backend": self.backend,
            "reward_rate": self.reward_rate,
            "evaluations": self.evaluations,
            "violation_minutes": self.violation_minutes,
            "p_const": self.p_const,
            "gap_pct": self.gap_pct,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TournamentPoint":
        return cls(set_index=int(doc["set"]),
                   backend=str(doc["backend"]),
                   reward_rate=float(doc["reward_rate"]),
                   evaluations=int(doc["evaluations"]),
                   violation_minutes=float(doc["violation_minutes"]),
                   p_const=float(doc["p_const"]),
                   gap_pct=doc.get("gap_pct"))


def _tournament_scenario(config: TournamentConfig,
                         set_index: int) -> Scenario:
    base = paper_sets()[set_index - 1]
    return generate_scenario(scaled_down(base, config.n_nodes),
                             config.seed)


def run_tournament_point(config: TournamentConfig,
                         item: tuple[int, str]) -> TournamentPoint:
    """Race one backend on one set's room; pure in ``(config, item)``."""
    set_index, backend = item
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
        set_index=set_index,
        backend=backend,
        reward_rate=float(result.reward_rate),
        evaluations=int(getattr(result, "evaluations", 0)),
        violation_minutes=float(violation),
        p_const=float(scenario.p_const))


def sweep_tournament(config: TournamentConfig, *, jobs: int = 1,
                     cache_dir: str | None = None,
                     resume: bool = False) -> list[TournamentPoint]:
    """Race every configured backend on every configured set.

    Points fan out over :func:`~repro.experiments.engine.parallel_map`
    (bit-identical across ``--jobs``) and land in the generic point
    cache for ``--resume``.  Returned points are ordered by (set,
    configured backend order) with ``gap_pct`` filled in relative to
    each set's three-stage point.
    """
    items = [(s, b) for s in config.sets for b in config.backends]
    points: dict[tuple[int, str], TournamentPoint] = {}
    pending: list[tuple[int, str]] = []
    for item in items:
        payload = None
        if cache_dir is not None and resume:
            payload = load_point(cache_dir, config.cache_tag(),
                                 config.cache_extra(*item))
        if payload is not None:
            points[item] = TournamentPoint.from_dict(payload["point"])
        else:
            pending.append(item)
    computed = parallel_map(partial(run_tournament_point, config), pending,
                            jobs=jobs)
    for item, point in zip(pending, computed):
        points[item] = point
        if cache_dir is not None:
            store_point(cache_dir, config.cache_tag(),
                        config.cache_extra(*item),
                        {"point": point.to_dict()})
    for s in config.sets:
        anchor = points.get((s, "three_stage"))
        reference = anchor.reward_rate if anchor is not None else 0.0
        for b in config.backends:
            point = points[(s, b)]
            point.gap_pct = (100.0 * (1.0 - point.reward_rate / reference)
                             if reference > 0 else None)
    return [points[item] for item in items]


def tournament_table(points: list[TournamentPoint]) -> str:
    """Fixed-width text table of a tournament (CLI output)."""
    lines = [f"{'set':>4}{'backend':>13}{'reward/s':>10}{'gap':>8}"
             f"{'viol min':>9}{'evals':>7}"]
    for p in points:
        gap = ("    ---" if p.gap_pct is None
               else f"{p.gap_pct:6.1f}%")
        lines.append(
            f"{p.set_index:>4d}{p.backend:>13}{p.reward_rate:>10.1f}"
            f"{gap}{p.violation_minutes:>9.2f}{p.evaluations:>7d}")
    return "\n".join(lines)
