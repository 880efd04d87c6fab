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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SearchResult", "coarse_to_fine_search", "temperature_grid",
           "uniform_then_coordinate_search", "seeded_coordinate_search"]

#: Objective signature: maps an outlet-temperature vector to a scalar
#: score, or ``None``/``-inf`` when the temperatures are infeasible.
Objective = Callable[[np.ndarray], float | None]


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


def coarse_to_fine_search(objective: Objective,
                          n_crac: int,
                          low: float,
                          high: float,
                          *,
                          coarse_step: float = 5.0,
                          refinement_factor: float = 4.0,
                          final_step: float = 1.0,
                          uniform_first: bool = True,
                          maximize: bool = True) -> SearchResult:
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

    Raises
    ------
    RuntimeError
        If no feasible temperature vector exists on any grid.
    """
    if n_crac <= 0:
        raise ValueError(f"n_crac must be positive, got {n_crac}")
    sign = 1.0 if maximize else -1.0
    best_t: np.ndarray | None = None
    best_score = -np.inf
    evaluations = 0

    def consider(t_vec: np.ndarray) -> None:
        nonlocal best_t, best_score, evaluations
        evaluations += 1
        score = objective(t_vec)
        if score is None or not np.isfinite(score):
            return
        if sign * score > best_score:
            best_score = sign * score
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

    return SearchResult(temperatures=best_t, score=sign * best_score,
                        evaluations=evaluations)


def uniform_then_coordinate_search(objective: Objective,
                                   n_crac: int,
                                   low: float,
                                   high: float,
                                   *,
                                   step: float = 1.0,
                                   max_sweeps: int = 8,
                                   maximize: bool = True) -> SearchResult:
    """Scalar scan of a common outlet temperature, then coordinate descent.

    The paper notes the product grid "increases exponentially with the
    number of CRAC units"; for the homogeneous CRACs of its simulations a
    much cheaper search is near-optimal: scan one *common* temperature at
    the final granularity (``g`` evaluations), then repeatedly try moving
    each CRAC individually by ``+-step`` until a full sweep yields no
    improvement.  Complexity is ``O(g + sweeps * n_crac)`` objective
    evaluations, versus ``O(g**n_crac)`` for the full grid.

    Raises ``RuntimeError`` when no feasible point exists on the scalar
    scan (coordinate moves start from a feasible incumbent).
    """
    if n_crac <= 0:
        raise ValueError(f"n_crac must be positive, got {n_crac}")
    sign = 1.0 if maximize else -1.0
    evaluations = 0

    def score_of(t_vec: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        s = objective(t_vec)
        if s is None or not np.isfinite(s):
            return -np.inf
        return sign * s

    best_t: np.ndarray | None = None
    best_score = -np.inf
    for t in temperature_grid(low, high, step):
        vec = np.full(n_crac, t)
        s = score_of(vec)
        if s > best_score:
            best_score, best_t = s, vec
    if best_t is None or not np.isfinite(best_score):
        raise RuntimeError(
            f"no feasible uniform CRAC outlet temperature in [{low}, {high}]")

    for _ in range(max_sweeps):
        improved = False
        for i in range(n_crac):
            for delta in (step, -step):
                cand = best_t.copy()
                cand[i] = np.clip(cand[i] + delta, low, high)
                if cand[i] == best_t[i]:
                    continue
                s = score_of(cand)
                if s > best_score + 1e-12:
                    best_score, best_t = s, cand
                    improved = True
        if not improved:
            break
    return SearchResult(temperatures=best_t, score=sign * best_score,
                        evaluations=evaluations)


def seeded_coordinate_search(objective: Objective,
                             seed: np.ndarray,
                             n_crac: int,
                             low: float,
                             high: float,
                             *,
                             step: float = 1.0,
                             max_sweeps: int = 8,
                             maximize: bool = True) -> SearchResult | None:
    """Coordinate descent from a known-good starting vector.

    The warm-started variant of
    :func:`uniform_then_coordinate_search`: instead of the scalar scan,
    the descent starts from ``seed`` — typically the previous control
    epoch's optimal outlet temperatures.  The ``+-step`` moves and the
    ``1e-12`` acceptance threshold are identical to the cold search, so
    when the seed is the cold search's own optimum it is a fixed point
    of the descent and the result is bit-identical to cold.

    Returns ``None`` when the seed itself is infeasible (the caller
    should fall back to the cold search rather than fail).
    """
    if n_crac <= 0:
        raise ValueError(f"n_crac must be positive, got {n_crac}")
    sign = 1.0 if maximize else -1.0
    evaluations = 0

    def score_of(t_vec: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        s = objective(t_vec)
        if s is None or not np.isfinite(s):
            return -np.inf
        return sign * s

    best_t = np.clip(np.asarray(seed, dtype=float).copy(), low, high)
    if best_t.shape != (n_crac,):
        raise ValueError(
            f"seed shape {best_t.shape} does not match n_crac={n_crac}")
    best_score = score_of(best_t)
    if not np.isfinite(best_score):
        return None

    for _ in range(max_sweeps):
        improved = False
        for i in range(n_crac):
            for delta in (step, -step):
                cand = best_t.copy()
                cand[i] = np.clip(cand[i] + delta, low, high)
                if cand[i] == best_t[i]:
                    continue
                s = score_of(cand)
                if s > best_score + 1e-12:
                    best_score, best_t = s, cand
                    improved = True
        if not improved:
            break
    return SearchResult(temperatures=best_t, score=sign * best_score,
                        evaluations=evaluations)

