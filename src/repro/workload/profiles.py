"""Non-stationary arrival profiles (diurnal load, drift, surges).

The paper fixes arrival rates for the lifetime of an assignment ("Once
the arrival rate for a task type is assigned, it remains constant") and
notes re-running the first step when conditions change is how the
technique would be deployed.  This module supplies the missing workload
side of that deployment story: time-varying arrival-rate profiles and a
non-homogeneous Poisson trace generator (standard thinning algorithm),
consumed by :mod:`repro.core.controller`'s epoch-based re-assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.obs.trace import span as obs_span
from repro.workload.tasktypes import Workload
from repro.workload.trace import Trace, merge_arrivals, thin_arrivals

__all__ = ["ArrivalProfile", "ConstantProfile", "DiurnalProfile",
           "StepProfile", "generate_nonstationary_trace"]


class ArrivalProfile(Protocol):
    """Time-varying arrival rates, one per task type."""

    def rates(self, t: float) -> np.ndarray:
        """Arrival-rate vector (tasks/s per type) at time ``t``."""
        ...

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        """:meth:`rates` at each of ``times``, one row per instant,
        bit-identical to the scalar calls (for batched thinning)."""
        ...

    def max_rates(self) -> np.ndarray:
        """Upper bound of :meth:`rates` over all ``t`` (for thinning)."""
        ...


@dataclass(frozen=True)
class ConstantProfile:
    """The paper's stationary workload, as a profile."""

    base_rates: np.ndarray

    def rates(self, t: float) -> np.ndarray:
        return self.base_rates

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.base_rates,
                               (times.size, len(self.base_rates)))

    def max_rates(self) -> np.ndarray:
        return self.base_rates


@dataclass(frozen=True)
class DiurnalProfile:
    """Sinusoidal day/night modulation around the base rates.

    ``rates(t) = base * (1 + amplitude * sin(2 pi (t - phase) / period))``

    Attributes
    ----------
    base_rates:
        Mean rates (the paper's ``lambda_i``).
    amplitude:
        Relative swing in [0, 1); 0.5 means day peaks at 150% of mean.
    period_s / phase_s:
        Cycle length and offset, seconds.
    """

    base_rates: np.ndarray
    amplitude: float = 0.5
    period_s: float = 86_400.0
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.period_s <= 0:
            raise ValueError("period must be positive")

    def _factor(self, t):
        return 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * (t - self.phase_s) / self.period_s)

    def rates(self, t: float) -> np.ndarray:
        return self.base_rates * self._factor(t)

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        return self.base_rates * self._factor(times[:, None])

    def max_rates(self) -> np.ndarray:
        return self.base_rates * (1.0 + self.amplitude)


@dataclass(frozen=True)
class StepProfile:
    """Piecewise-constant rates — load surges / regime changes.

    ``boundaries`` are the instants where the rate vector switches to the
    next row of ``rate_levels``; level ``k`` applies on
    ``[boundaries[k-1], boundaries[k])`` with ``boundaries[-1] = inf``.
    """

    boundaries: np.ndarray
    rate_levels: np.ndarray   # (n_levels, T)

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=float)
        levels = np.asarray(self.rate_levels, dtype=float)
        if levels.ndim != 2:
            raise ValueError("rate_levels must be (n_levels, T)")
        if b.size != levels.shape[0] - 1:
            raise ValueError(
                "need exactly one boundary between consecutive levels")
        if b.size and not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be strictly increasing")
        if np.any(levels < 0):
            raise ValueError("rates must be non-negative")

    def rates(self, t: float) -> np.ndarray:
        level = int(np.searchsorted(np.asarray(self.boundaries), t,
                                    side="right"))
        return np.asarray(self.rate_levels)[level]

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        levels = np.searchsorted(np.asarray(self.boundaries), times,
                                 side="right")
        return np.asarray(self.rate_levels)[levels]

    def max_rates(self) -> np.ndarray:
        return np.asarray(self.rate_levels).max(axis=0)


def generate_nonstationary_trace(workload: Workload,
                                 profile: ArrivalProfile,
                                 duration: float,
                                 rng: np.random.Generator) -> Trace:
    """Sample a non-homogeneous Poisson trace by thinning (Lewis-Shedler).

    For each task type, candidate arrivals are drawn at the profile's
    maximum rate and kept with probability ``rates(t) / max_rate`` — the
    standard exact algorithm for inhomogeneous Poisson processes
    (:func:`~repro.workload.trace.thin_arrivals`).  Deadlines use the
    workload's per-type slack as in the stationary generator.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    max_rates = np.asarray(profile.max_rates(), dtype=float)
    if max_rates.shape != (workload.n_task_types,):
        raise ValueError("profile dimension does not match workload")
    with obs_span("trace", duration_s=duration):
        return merge_arrivals(
            thin_arrivals(profile, max_rates, 0.0, duration, rng), workload)
