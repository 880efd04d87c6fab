"""Coarse-to-fine discretized search over CRAC outlet temperatures.

Section V.B.2 of the paper observes that with the CRAC outlet
temperatures fixed, the Stage 1 problem becomes an LP, and proposes "a
multi-step method where the first step is a coarse-grained search for the
entire range of possible outlet temperatures.  Every subsequent step
searches around the best set ... found in the previous step, however,
with a finer granularity."

:func:`coarse_to_fine_search` implements exactly that, generically over
any objective of a temperature vector, so the same search serves Stage 1,
the baseline assignment and the power-bounds problem (Eq. 17).  Because
the number of grid points grows exponentially with the number of CRAC
units, :func:`coarse_to_fine_search` also supports an optional
"uniform first" pass that scans a common temperature for all CRACs
before searching the full product grid in a narrowed window.

Every search also takes an ``exact`` objective, for callers whose
``objective`` is a cheap *screening* score that agrees with the exact
one closely.  Such a search decides a comparison on screened scores
only when they clear it by more than :data:`SCREEN_DELTA` (relative);
otherwise it compares the exact scores of both sides.  It reports the
winner's exact score, so, as long as every screened score is within
``SCREEN_DELTA / 2`` (relative) of its exact one, it takes the same
steps and returns the same result as the search run on ``exact`` alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs import metrics as obs_metrics

__all__ = ["SearchResult", "coarse_to_fine_search", "temperature_grid",
           "uniform_then_coordinate_search", "seeded_coordinate_search"]

#: Objective signature: maps an outlet-temperature vector to a scalar
#: score, or ``None``/``-inf`` when the temperatures are infeasible.
Objective = Callable[[np.ndarray], float | None]

#: Relative half-width of the band around a comparison inside which
#: screened scores do not decide it: a candidate ``s`` beats ``best`` by
#: ``margin`` on screened scores when ``s - best - margin`` exceeds
#: ``SCREEN_DELTA * max(1, |best|)``, loses when it is below the
#: negative of that, and is compared on exact scores in between.
SCREEN_DELTA = 1e-6


@dataclass
class SearchResult:
    """Outcome of a discretized temperature search.

    Attributes
    ----------
    temperatures:
        Best outlet-temperature vector found (one entry per CRAC unit).
    score:
        Objective value at the best vector.
    evaluations:
        Total number of objective evaluations performed.
    """

    temperatures: np.ndarray
    score: float
    evaluations: int


def temperature_grid(low: float, high: float, step: float) -> np.ndarray:
    """Inclusive 1-D grid ``low, low+step, ..., <= high``."""
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    n = int(np.floor((high - low) / step + 1e-9)) + 1
    return low + step * np.arange(n)


class _Scores:
    """The scores one search sees: counts objective evaluations and
    decides comparisons, on exact scores where screened ones are too
    close to call.  Scores are signed so that larger is better, and
    ``-inf`` stands for infeasible (a screen reports infeasibility only
    when it is exact)."""

    def __init__(self, objective: Objective, exact: Objective | None,
                 maximize: bool):
        self.objective = objective
        self.exact = exact
        self.sign = 1.0 if maximize else -1.0
        self.evaluations = 0

    def _signed(self, value: float | None) -> float:
        if value is None or not np.isfinite(value):
            return -np.inf
        return self.sign * value

    def __call__(self, t_vec: np.ndarray) -> float:
        self.evaluations += 1
        return self._signed(self.objective(t_vec))

    def settle(self, t_vec: np.ndarray, score: float) -> float:
        """The exact score at ``t_vec``, whose screened score is ``score``."""
        if self.exact is None or not np.isfinite(score):
            return score
        return self._signed(self.exact(t_vec))

    def beats(self, s: float, t_vec: np.ndarray, best: float,
              best_t: np.ndarray | None, margin: float = 0.0
              ) -> tuple[bool, float, float]:
        """Whether ``s`` at ``t_vec`` beats ``best`` at ``best_t`` by more
        than ``margin``, with both scores as the decision left them."""
        if self.exact is not None and np.isfinite(s) and np.isfinite(best):
            gap = s - best - margin
            if abs(gap) <= SCREEN_DELTA * max(1.0, abs(best)):
                obs_metrics.counter("search.near_ties").inc()
                s, best = self.settle(t_vec, s), self.settle(best_t, best)
        return s > best + margin, s, best

    def result(self, best_t: np.ndarray, best: float) -> SearchResult:
        return SearchResult(temperatures=best_t,
                            score=self.sign * self.settle(best_t, best),
                            evaluations=self.evaluations)


def coarse_to_fine_search(objective: Objective,
                          n_crac: int,
                          low: float,
                          high: float,
                          *,
                          coarse_step: float = 5.0,
                          refinement_factor: float = 4.0,
                          final_step: float = 1.0,
                          uniform_first: bool = True,
                          maximize: bool = True,
                          exact: Objective | None = None) -> SearchResult:
    """Multi-step discretized search over CRAC outlet temperatures.

    Parameters
    ----------
    objective:
        Callable evaluated on each candidate vector.  Returning ``None``
        or ``-inf`` (``+inf`` when minimizing) marks the point infeasible.
    n_crac:
        Dimension of the temperature vector.
    low, high:
        Range of admissible outlet temperatures (inclusive), Celsius.
    coarse_step:
        Step of the first (coarsest) grid.
    refinement_factor:
        Each refinement round divides the step by this factor.
    final_step:
        Search stops once the step is at or below this granularity —
        "the outlet temperatures of the CRAC units usually have a
        granularity of 1 degree" (Section V.B.2).
    uniform_first:
        When True, the coarse pass only scans vectors with all CRACs at
        the same temperature (reasonable for homogeneous CRAC units),
        then the full product grid is searched in a window around the
        winner.  This reduces the coarse pass from ``g**n`` to ``g``
        evaluations.
    maximize:
        Sense of the objective.
    exact:
        The exact objective when ``objective`` screens (module
        docstring).

    Raises
    ------
    RuntimeError
        If no feasible temperature vector exists on any grid.
    """
    if n_crac <= 0:
        raise ValueError(f"n_crac must be positive, got {n_crac}")
    scores = _Scores(objective, exact, maximize)
    best_t: np.ndarray | None = None
    best_score = -np.inf

    def consider(t_vec: np.ndarray) -> None:
        nonlocal best_t, best_score
        wins, s, best_score = scores.beats(scores(t_vec), t_vec, best_score,
                                           best_t)
        if wins:
            best_score = s
            best_t = t_vec.copy()

    # -- coarse pass ---------------------------------------------------
    coarse = temperature_grid(low, high, coarse_step)
    if uniform_first:
        for t in coarse:
            consider(np.full(n_crac, t))
    else:
        for combo in itertools.product(coarse, repeat=n_crac):
            consider(np.asarray(combo))

    if best_t is None:
        # Uniform scan may genuinely miss all feasible points; fall back
        # to the full product grid before giving up.
        if uniform_first and n_crac > 1:
            for combo in itertools.product(coarse, repeat=n_crac):
                consider(np.asarray(combo))
        if best_t is None:
            raise RuntimeError(
                "no feasible CRAC outlet temperature vector in "
                f"[{low}, {high}] at step {coarse_step}")

    # -- refinement rounds ----------------------------------------------
    step = coarse_step
    while step > final_step:
        prev_step = step
        # keep every round's grid on the final lattice ("granularity of
        # 1 degree"): steps are always multiples of final_step
        step = max(final_step,
                   final_step * int(step / refinement_factor / final_step))
        # per-CRAC window of +/- previous step around the incumbent,
        # snapped to the step lattice anchored at `low` so the final
        # round lands on whole-granularity temperatures
        axes: list[np.ndarray] = []
        for i in range(n_crac):
            lo_i = max(low, best_t[i] - prev_step)
            hi_i = min(high, best_t[i] + prev_step)
            lo_i = low + np.ceil((lo_i - low) / step - 1e-9) * step
            axes.append(temperature_grid(lo_i, hi_i, step))
        for combo in itertools.product(*axes):
            consider(np.asarray(combo))

    return scores.result(best_t, best_score)


def _descend(scores: _Scores, best_t: np.ndarray, best_score: float,
             low: float, high: float, step: float, max_sweeps: int
             ) -> SearchResult:
    """Coordinate descent from a feasible incumbent: move each CRAC by
    ``+-step`` while a move improves the score by more than 1e-12,
    for at most ``max_sweeps`` sweeps."""
    for _ in range(max_sweeps):
        improved = False
        for i in range(best_t.size):
            for delta in (step, -step):
                cand = best_t.copy()
                cand[i] = np.clip(cand[i] + delta, low, high)
                if cand[i] == best_t[i]:
                    continue
                wins, s, best_score = scores.beats(
                    scores(cand), cand, best_score, best_t, 1e-12)
                if wins:
                    best_score, best_t = s, cand
                    improved = True
        if not improved:
            break
    return scores.result(best_t, best_score)


def uniform_then_coordinate_search(objective: Objective,
                                   n_crac: int,
                                   low: float,
                                   high: float,
                                   *,
                                   step: float = 1.0,
                                   max_sweeps: int = 8,
                                   maximize: bool = True,
                                   exact: Objective | None = None
                                   ) -> SearchResult:
    """Scalar scan of a common outlet temperature, then coordinate descent.

    The paper notes the product grid "increases exponentially with the
    number of CRAC units"; for the homogeneous CRACs of its simulations a
    much cheaper search is near-optimal: scan one *common* temperature at
    the final granularity (``g`` evaluations), then repeatedly try moving
    each CRAC individually by ``+-step`` until a full sweep yields no
    improvement.  Complexity is ``O(g + sweeps * n_crac)`` objective
    evaluations, versus ``O(g**n_crac)`` for the full grid.  ``exact``
    is the exact objective when ``objective`` screens (module
    docstring).

    Raises ``RuntimeError`` when no feasible point exists on the scalar
    scan (coordinate moves start from a feasible incumbent).
    """
    if n_crac <= 0:
        raise ValueError(f"n_crac must be positive, got {n_crac}")
    scores = _Scores(objective, exact, maximize)
    best_t: np.ndarray | None = None
    best_score = -np.inf
    for t in temperature_grid(low, high, step):
        vec = np.full(n_crac, t)
        wins, s, best_score = scores.beats(scores(vec), vec, best_score,
                                           best_t)
        if wins:
            best_score, best_t = s, vec
    if best_t is None or not np.isfinite(best_score):
        raise RuntimeError(
            f"no feasible uniform CRAC outlet temperature in [{low}, {high}]")
    return _descend(scores, best_t, best_score, low, high, step, max_sweeps)


def seeded_coordinate_search(objective: Objective,
                             seed: np.ndarray,
                             n_crac: int,
                             low: float,
                             high: float,
                             *,
                             step: float = 1.0,
                             max_sweeps: int = 8,
                             maximize: bool = True,
                             exact: Objective | None = None
                             ) -> SearchResult | None:
    """Coordinate descent from a known-good starting vector.

    The warm-started variant of
    :func:`uniform_then_coordinate_search`: instead of the scalar scan,
    the descent starts from ``seed`` — typically the previous control
    epoch's optimal outlet temperatures.  The ``+-step`` moves and the
    ``1e-12`` acceptance threshold are identical to the cold search, so
    when the seed is the cold search's own optimum it is a fixed point
    of the descent and the result is bit-identical to cold.  ``exact``
    is the exact objective when ``objective`` screens (module
    docstring).

    Returns ``None`` when the seed itself is infeasible (the caller
    should fall back to the cold search rather than fail).
    """
    if n_crac <= 0:
        raise ValueError(f"n_crac must be positive, got {n_crac}")
    scores = _Scores(objective, exact, maximize)
    best_t = np.clip(np.asarray(seed, dtype=float).copy(), low, high)
    if best_t.shape != (n_crac,):
        raise ValueError(
            f"seed shape {best_t.shape} does not match n_crac={n_crac}")
    best_score = scores(best_t)
    if not np.isfinite(best_score):
        return None
    return _descend(scores, best_t, best_score, low, high, step, max_sweeps)
