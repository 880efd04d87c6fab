"""Shared metaheuristic machinery: candidates, repair, scoring.

Both metaheuristic backends (:mod:`repro.solvers.annealing`,
:mod:`repro.solvers.evolution`) search the same joint space — a
discretized CRAC outlet vector plus a per-core integer P-state vector —
and share one evaluator:

* **Repair** (:meth:`CandidateEvaluator.repair`): a candidate violating
  the power cap or a redline is weakened deterministically — the
  strongest core on the most-implicated node steps one P-state toward
  off — until both constraints hold.  Each step strictly reduces some
  node's power (P-state tables are strictly decreasing), so the loop
  terminates; feasibility checks use the exact same functions and
  tolerances as :meth:`~repro.core.assignment.AssignmentResult.verify`,
  so a repaired candidate passes verification by construction.
* **Scoring** (:meth:`CandidateEvaluator.evaluate`): the Stage 3 LP
  reward (:func:`repro.core.stage3.solve_stage3`) at the repaired
  P-states.  The LP depends on the P-states only through the
  (node type, P-state) class histogram, so rewards are memoized per
  histogram — a mutation that permutes cores within a class costs a
  dict lookup, not an LP solve.

Budgets are counted in **evaluations** (one repaired-and-scored
candidate), never wall-clock seconds, so a backend's output is a pure
function of ``(request, seed, max_evals)`` — bit-identical across
processes, ``--jobs`` values and machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stage3 import Stage3Solution, solve_stage3
from repro.datacenter.builder import DataCenter
from repro.datacenter.power import PowerBreakdown, total_power
from repro.kernels.tables import core_power_table
from repro.workload.tasktypes import Workload

__all__ = ["Candidate", "CandidateEvaluator", "MetaheuristicOutcome",
           "seed_candidates", "mutate"]

#: Reward assigned to candidates that stay infeasible after repair
#: (possible when the outlet choice alone breaks a constraint).  Any
#: feasible candidate scores >= 0, so these are never selected over one.
INFEASIBLE_REWARD = -1.0

#: Soft cap on memoized Stage 3 rewards; eviction affects speed only.
_REWARD_CACHE_LIMIT = 65536


@dataclass
class Candidate:
    """One point of the joint search space.

    Attributes
    ----------
    outlet_idx:
        Per-CRAC index into the evaluator's outlet grid.
    pstates:
        Per-core integer P-state vector.
    reward:
        Stage 3 reward filled in by
        :meth:`CandidateEvaluator.evaluate`.
    """

    outlet_idx: np.ndarray
    pstates: np.ndarray
    reward: float = float("-inf")

    def copy(self) -> "Candidate":
        return Candidate(outlet_idx=self.outlet_idx.copy(),
                         pstates=self.pstates.copy())

    def key(self) -> bytes:
        """Deterministic tie-break key (content bytes)."""
        return self.outlet_idx.tobytes() + self.pstates.tobytes()


class CandidateEvaluator:
    """Repairs and scores candidates for one ``(room, workload, cap)``.

    Parameters
    ----------
    outlet_levels:
        Grid resolution per CRAC: level 0 is the CRAC's lowest admissible
        outlet temperature, level ``outlet_levels - 1`` its highest.
    tol:
        Constraint tolerance — identical to the ``verify`` default so a
        repaired candidate always verifies.
    """

    def __init__(self, datacenter: DataCenter, workload: Workload,
                 p_const: float, *, outlet_levels: int = 8,
                 tol: float = 1e-6):
        if outlet_levels < 2:
            raise ValueError("need at least 2 outlet levels")
        self.datacenter = datacenter
        self.workload = workload
        self.p_const = float(p_const)
        self.tol = float(tol)
        self.model = datacenter.require_thermal()
        self.redline = datacenter.redline_c
        self.off = datacenter.all_off_pstates()
        self.n_cores = datacenter.n_cores
        self.n_crac = datacenter.n_crac
        lows = np.asarray([c.outlet_range_c[0] for c in datacenter.cracs])
        highs = np.asarray([c.outlet_range_c[1] for c in datacenter.cracs])
        #: shape ``(outlet_levels, n_crac)``.
        self.outlet_grid = np.linspace(lows, highs, outlet_levels)
        self.outlet_levels = int(outlet_levels)
        self.evaluations = 0
        self._eta = workload.n_pstates
        self._n_types = len(datacenter.node_types)
        self._reward_cache: dict[bytes, float] = {}
        table = core_power_table(datacenter)
        self._core_power = table.power
        self._core_node = datacenter.core_node
        self._core_type = datacenter.core_type

    # ------------------------------------------------------------------
    def outlets(self, outlet_idx: np.ndarray) -> np.ndarray:
        """Outlet temperature vector for a grid-index vector."""
        return self.outlet_grid[outlet_idx, np.arange(self.n_crac)]

    def _cap_limit(self) -> float:
        return self.p_const + self.tol * max(1.0, self.p_const)

    def constraints(self, cand: Candidate) -> tuple[float, float]:
        """Worst steady redline margin (C) and room power (kW) at ``cand``."""
        t_vec = self.outlets(cand.outlet_idx)
        node_power = self.datacenter.node_power_kw(cand.pstates)
        margin = self.model.redline_margin(t_vec, node_power, self.redline)
        breakdown = total_power(self.datacenter, t_vec, node_power)
        return float(margin.min()), float(breakdown.total)

    def is_feasible(self, cand: Candidate) -> bool:
        """Both constraints at the candidate (same math as ``verify``)."""
        margin, power = self.constraints(cand)
        return margin >= -self.tol and power <= self._cap_limit()

    # ------------------------------------------------------------------
    def repair(self, cand: Candidate) -> None:
        """Weaken ``cand`` in place until the cap and redlines hold.

        Each pass measures the most-violating constraint, prices every
        still-reducible core's one-step power drop from the P-state LUT
        (weighted by the worst unit's inlet gain for a redline, raw kW
        for the cap), and weakens just enough cores — largest effect
        first, cumulative sum against the exact deficit — in one
        vectorized sweep.  The steady state is affine in node power, so
        the thermal estimate is exact up to step granularity and the
        loop converges in a handful of passes.  Deterministic: ties
        break by core index (stable sort).  If nothing is reducible the
        loop stops — the all-off point is the weakest reachable state.
        """
        np.clip(cand.pstates, 0, self.off, out=cand.pstates)
        t_vec = self.outlets(cand.outlet_idx)
        dc = self.datacenter
        ct = self._core_type
        while True:
            node_power = dc.node_power_kw(cand.pstates)
            margin = self.model.redline_margin(t_vec, node_power,
                                               self.redline)
            breakdown = total_power(dc, t_vec, node_power)
            thermal_bad = margin.min() < -self.tol
            power_bad = breakdown.total > self._cap_limit()
            if not thermal_bad and not power_bad:
                return
            live = cand.pstates < self.off
            next_ps = np.minimum(cand.pstates + 1, self.off)
            step_kw = np.where(
                live,
                self._core_power[ct, cand.pstates]
                - self._core_power[ct, next_ps], 0.0)
            if thermal_bad:
                worst = int(margin.argmin())
                need = float(-margin[worst])
                weight = (self.model.inlet_gain[worst][self._core_node]
                          * step_kw)
            else:
                need = float(breakdown.total - self._cap_limit())
                weight = step_kw
            order = np.argsort(-weight, kind="stable")
            order = order[weight[order] > 0.0]
            if order.size == 0:
                return
            cum = np.cumsum(weight[order])
            k = min(int(np.searchsorted(cum, need)) + 1, order.size)
            cand.pstates[order[:k]] += 1

    # ------------------------------------------------------------------
    def _class_histogram_key(self, pstates: np.ndarray) -> bytes:
        class_id = self.datacenter.core_type * self._eta + pstates
        counts = np.bincount(class_id,
                             minlength=self._n_types * self._eta)
        return counts.astype(np.int64).tobytes()

    def evaluate(self, cand: Candidate) -> float:
        """Repair, score and stamp ``cand.reward``; counts one eval."""
        self.repair(cand)
        self.evaluations += 1
        if not self.is_feasible(cand):
            cand.reward = INFEASIBLE_REWARD
            return cand.reward
        key = self._class_histogram_key(cand.pstates)
        reward = self._reward_cache.get(key)
        if reward is None:
            reward = solve_stage3(self.datacenter, self.workload,
                                  cand.pstates).reward_rate
            if len(self._reward_cache) > _REWARD_CACHE_LIMIT:
                self._reward_cache.clear()
            self._reward_cache[key] = reward
        cand.reward = float(reward)
        return cand.reward

    def finish(self, cand: Candidate) -> Stage3Solution:
        """Full Stage 3 solution (with ``tc``) for the chosen candidate."""
        return solve_stage3(self.datacenter, self.workload, cand.pstates)


def seed_candidates(evaluator: CandidateEvaluator) -> list[Candidate]:
    """Deterministic constructive starting points (not yet evaluated).

    The full uniform grid — every outlet level crossed with every
    uniform P-state fill (clipped per core to its off state).  The
    repair loop turns each into a feasible candidate, so both searches
    start from the best constructive operating point and spend the rest
    of the budget refining the P-state *mix* around it.
    """
    ev = evaluator
    return [
        Candidate(outlet_idx=np.full(ev.n_crac, level, dtype=int),
                  pstates=np.minimum(
                      np.full(ev.n_cores, fill, dtype=int), ev.off))
        for level in range(ev.outlet_levels)
        for fill in range(int(ev.off.max()) + 1)
    ]


def mutate(cand: Candidate, evaluator: CandidateEvaluator,
           rng: np.random.Generator) -> Candidate:
    """One random neighborhood move (returns a new candidate).

    Moves: nudge one core's P-state by one step, re-draw one core's
    P-state uniformly, or nudge one CRAC's outlet level by one grid
    step.  All randomness comes from ``rng``.
    """
    ev = evaluator
    new = cand.copy()
    kind = int(rng.integers(3))
    if kind == 0:
        core = int(rng.integers(ev.n_cores))
        step = -1 if rng.random() < 0.5 else 1
        new.pstates[core] = int(np.clip(new.pstates[core] + step, 0,
                                        ev.off[core]))
    elif kind == 1:
        core = int(rng.integers(ev.n_cores))
        new.pstates[core] = int(rng.integers(ev.off[core] + 1))
    else:
        crac = int(rng.integers(ev.n_crac))
        step = -1 if rng.random() < 0.5 else 1
        new.outlet_idx[crac] = int(np.clip(new.outlet_idx[crac] + step, 0,
                                           ev.outlet_levels - 1))
    return new


@dataclass
class MetaheuristicOutcome:
    """Result of a metaheuristic backend (``SolveOutcome`` protocol).

    Attributes
    ----------
    method:
        Backend name (``"annealing"`` / ``"evolution"``).
    t_crac_out / pstates / tc:
        The committed operating point — same trio as
        :class:`~repro.core.assignment.AssignmentResult`, so the DES
        second step and the controllers consume it unchanged.
    reward_rate:
        Stage 3 reward at ``pstates`` (the Figure 6 metric).
    evaluations:
        Candidates repaired-and-scored within the budget.
    seed:
        RNG seed the search ran under.
    """

    method: str
    t_crac_out: np.ndarray
    pstates: np.ndarray
    tc: np.ndarray
    reward_rate: float
    evaluations: int
    seed: int
    stage3: Stage3Solution = field(repr=False, default=None)  # type: ignore[assignment]

    def power(self, datacenter: DataCenter) -> PowerBreakdown:
        """Exact total power at this assignment."""
        return total_power(datacenter, self.t_crac_out,
                           datacenter.node_power_kw(self.pstates))

    def verify(self, datacenter: DataCenter, p_const: float,
               tol: float = 1e-6) -> None:
        """Assert the power cap and redlines hold (raises on violation)."""
        model = datacenter.require_thermal()
        node_power = datacenter.node_power_kw(self.pstates)
        margin = model.redline_margin(self.t_crac_out, node_power,
                                      datacenter.redline_c)
        if margin.min() < -tol:
            raise AssertionError(
                f"redline violated by {-margin.min():.4f} C at unit "
                f"{int(margin.argmin())}")
        breakdown = total_power(datacenter, self.t_crac_out, node_power)
        if breakdown.total > p_const + tol * max(1.0, p_const):
            raise AssertionError(
                f"power cap violated: {breakdown.total:.3f} kW > "
                f"{p_const:.3f} kW")

    def to_dict(self) -> dict:
        """JSON-friendly summary (the ``SolveOutcome`` protocol)."""
        return {
            "method": self.method,
            "reward_rate": self.reward_rate,
            "t_crac_out": self.t_crac_out.tolist(),
            "pstates": self.pstates.tolist(),
            "evaluations": self.evaluations,
            "seed": self.seed,
        }


def outcome_from_best(method: str, evaluator: CandidateEvaluator,
                      best: Candidate, seed: int) -> MetaheuristicOutcome:
    """Package the incumbent into a :class:`MetaheuristicOutcome`."""
    stage3 = evaluator.finish(best)
    return MetaheuristicOutcome(
        method=method,
        t_crac_out=evaluator.outlets(best.outlet_idx),
        pstates=best.pstates.copy(),
        tc=stage3.tc,
        reward_rate=stage3.reward_rate,
        evaluations=evaluator.evaluations,
        seed=int(seed),
        stage3=stage3,
    )
