"""Comparison runner — the Figure 6 experiment (Section VII).

For each scenario both techniques solve the first-step assignment under
the same power cap and thermal model:

* the paper's three-stage technique at each ψ level (and "best of"),
* the P0-or-off baseline adapted from Parolini et al. [26].

A *simulation set* aggregates the per-run percentage improvements into a
mean with a 95% confidence interval (Student t), exactly the quantity
each Figure 6 bar reports.

Execution (parallel workers, on-disk caching, retry/failure recording)
lives in :mod:`repro.experiments.engine`; this module defines the
run-level quantities and keeps the historical serial entry point
:func:`run_simulation_set` as a thin wrapper over the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import SolveOptions, SolveRequest, solve
from repro.experiments.config import ScenarioConfig
from repro.experiments.generator import Scenario

__all__ = ["DegenerateBaselineError", "RunResult", "RunFailure",
           "ConfidenceInterval", "SetResult", "run_comparison",
           "run_simulation_set", "confidence_interval"]


class DegenerateBaselineError(ValueError):
    """The baseline earned zero reward, so % improvement is undefined.

    Carries the ``seed`` and ``p_const`` of the offending run so a sweep
    can report *which* room degenerated.  The experiment engine records
    such runs as degenerate instead of letting them abort a set.
    """

    def __init__(self, seed: int, p_const: float):
        super().__init__(
            f"baseline earned zero reward (seed {seed}, "
            f"p_const {p_const:.3f} kW); improvement undefined")
        self.seed = seed
        self.p_const = p_const


@dataclass(frozen=True)
class RunResult:
    """Rewards and improvements for one scenario.

    Attributes
    ----------
    seed:
        Scenario seed.
    reward_by_psi:
        Stage 3 reward rate of the three-stage technique per ψ.
    baseline_reward:
        Reward rate of the rounded Eq. 21 baseline.
    p_const:
        The cap both techniques ran under.
    """

    seed: int
    reward_by_psi: dict[float, float]
    baseline_reward: float
    p_const: float

    @property
    def best_reward(self) -> float:
        """Best-of-ψ reward (the paper's third bar per set)."""
        return max(self.reward_by_psi.values())

    @property
    def is_degenerate(self) -> bool:
        """True when the baseline earned nothing (improvement undefined)."""
        return self.baseline_reward <= 0

    def improvement_pct(self, psi: float | None = None) -> float:
        """Percentage improvement over the baseline.

        ``psi=None`` uses the best-of-ψ reward.  Raises
        :class:`DegenerateBaselineError` (a ``ValueError``) when the
        baseline earned zero reward.
        """
        ours = self.best_reward if psi is None else self.reward_by_psi[psi]
        if self.baseline_reward <= 0:
            raise DegenerateBaselineError(self.seed, self.p_const)
        return 100.0 * (ours - self.baseline_reward) / self.baseline_reward

    def to_dict(self) -> dict:
        """JSON-friendly form (the engine's on-disk cache format)."""
        return {
            "seed": self.seed,
            "p_const": self.p_const,
            "baseline_reward": self.baseline_reward,
            "reward_by_psi": [[psi, r] for psi, r
                              in sorted(self.reward_by_psi.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(
            seed=int(data["seed"]),
            reward_by_psi={float(psi): float(r)
                           for psi, r in data["reward_by_psi"]},
            baseline_reward=float(data["baseline_reward"]),
            p_const=float(data["p_const"]),
        )


@dataclass(frozen=True)
class RunFailure:
    """A run that raised after all retries — kept, not fatal.

    Attributes
    ----------
    seed:
        Scenario seed of the failed run.
    error_type / message:
        Exception class name and its message.
    attempts:
        How many times the run was tried before giving up.
    p_const:
        The run's power cap if the scenario was generated before the
        failure, else ``None``.
    """

    seed: int
    error_type: str
    message: str
    attempts: int = 1
    p_const: float | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "p_const": self.p_const,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunFailure":
        p_const = data.get("p_const")
        return cls(
            seed=int(data["seed"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            attempts=int(data.get("attempts", 1)),
            p_const=None if p_const is None else float(p_const),
        )


@dataclass(frozen=True)
class ConfidenceInterval:
    """Mean with a symmetric t-distribution confidence interval."""

    mean: float
    half_width: float
    level: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.2f} +/- {self.half_width:.2f}"


def confidence_interval(samples: np.ndarray,
                        level: float = 0.95) -> ConfidenceInterval:
    """95% (by default) CI of the mean using the Student t quantile."""
    # imported here: scipy.stats adds ~0.5 s and ~20 MB to an import, and
    # nothing else on the solve / serve / control paths needs it
    from scipy import stats

    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples for a confidence interval")
    mean = float(samples.mean())
    sem = float(samples.std(ddof=1) / np.sqrt(samples.size))
    t_crit = float(stats.t.ppf(0.5 + level / 2.0, df=samples.size - 1))
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem, level=level)


@dataclass
class SetResult:
    """Aggregated Figure 6 numbers for one simulation set.

    ``improvements`` maps a label (``"psi=25"``, ``"psi=50"``, ``"best"``)
    to the per-run percentage improvements of the *valid* runs;
    ``intervals`` to their CIs.  Degenerate runs (zero-reward baseline)
    and failed runs are kept separately so a bad room documents itself
    instead of crashing the whole set.
    """

    config: ScenarioConfig
    runs: list[RunResult]
    degenerate: list[RunResult] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)
    improvements: dict[str, np.ndarray] = field(init=False)
    intervals: dict[str, ConfidenceInterval] = field(init=False)

    def __post_init__(self) -> None:
        labels: dict[str, np.ndarray] = {}
        for psi in self.config.psis:
            labels[f"psi={psi:g}"] = np.asarray(
                [r.improvement_pct(psi) for r in self.runs])
        labels["best"] = np.asarray(
            [r.improvement_pct(None) for r in self.runs])
        self.improvements = labels
        self.intervals = {k: confidence_interval(v)
                          for k, v in labels.items()}

    @property
    def n_attempted(self) -> int:
        """Total runs attempted, including degenerate and failed ones."""
        return len(self.runs) + len(self.degenerate) + len(self.failures)


def run_comparison(scenario: Scenario) -> RunResult:
    """Run both techniques on one scenario (one Figure 6 sample).

    With the default ``backend="three_stage"`` this is the paper's
    best-of-ψ pipeline; any other configured backend (metaheuristics,
    external registrations) replaces the "ours" side, keyed under the
    single configured ψ, while the baseline side stays the paper's
    baseline for a like-for-like improvement number.
    """
    config = scenario.config
    options = SolveOptions(psis=tuple(config.psis), search=config.search,
                           backend=config.backend,
                           seed=config.backend_seed,
                           max_evals=config.max_evals)
    request = SolveRequest(
        scenario.datacenter, scenario.workload, scenario.p_const,
        options=options)
    if config.backend == "three_stage":
        ours = solve(request, method="best_psi")
        reward_by_psi = ours.reward_by_psi
    else:
        ours = solve(request)
        reward_by_psi = {float(psi): ours.reward_rate
                         for psi in config.psis}
    ours.verify(scenario.datacenter, scenario.p_const)
    baseline = solve(request, method="baseline")
    return RunResult(
        seed=scenario.seed,
        reward_by_psi=reward_by_psi,
        baseline_reward=baseline.reward_rate,
        p_const=scenario.p_const,
    )


def run_simulation_set(config: ScenarioConfig, n_runs: int = 25,
                       base_seed: int = 1000,
                       progress: bool = False) -> SetResult:
    """Run a whole simulation set (paper: 25 runs) and aggregate.

    Seeds are ``base_seed + run_index`` so individual runs can be
    reproduced in isolation.  This is the historical serial entry point;
    it delegates to :func:`repro.experiments.engine.run_set` — pass an
    :class:`~repro.experiments.engine.EngineConfig` there for parallel
    workers, caching and resume.
    """
    from repro.experiments.engine import run_set
    from repro.experiments.progress import PrintingReporter

    reporter = PrintingReporter() if progress else None
    return run_set(config, n_runs=n_runs, base_seed=base_seed,
                   reporter=reporter)
