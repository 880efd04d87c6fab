"""Second-step dynamic scheduler (Section V.C).

The first step fixes the *desired* execution rate ``TC(i, k)`` of every
task type on every core; at run time tasks arrive one by one and must be
mapped immediately.  The paper's scheduler tracks the *actual* rates
``ATC(i, k)`` and, for each incoming task of type *i*:

* considers only cores that are supposed to run that type
  (``TC(i, k) > 0``), are not already ahead of their desired rate
  (``ATC/TC <= 1``), and can finish the task before its deadline given
  their current queue;
* among those, picks the core with the minimum ``ATC(i, k) / TC(i, k)``
  — the core furthest *behind* its desired rate;
* drops the task when no such core exists.

``ATC(i, k)`` is maintained as assigned-count divided by elapsed time;
at time zero all ratios are zero, so early tasks spread across all
eligible cores.
"""

from __future__ import annotations

import numpy as np

from repro.datacenter.builder import DataCenter
from repro.workload.tasktypes import Workload

__all__ = ["DynamicScheduler"]

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


class DynamicScheduler:
    """Stateful second-step scheduler.

    Parameters
    ----------
    datacenter / workload:
        Give core types and ECS values.
    tc:
        Desired execution rates, ``(T, NCORES)`` (from Stage 3 or the
        baseline).
    pstates:
        Per-core P-states the rates were computed for; fixes execution
        times.
    """

    def __init__(self, datacenter: DataCenter, workload: Workload,
                 tc: np.ndarray, pstates: np.ndarray):
        tc = np.asarray(tc, dtype=float)
        pstates = np.asarray(pstates, dtype=int)
        t_count = workload.n_task_types
        n_cores = datacenter.n_cores
        if tc.shape != (t_count, n_cores):
            raise ValueError(
                f"tc must be ({t_count}, {n_cores}), got {tc.shape}")
        if pstates.shape != (n_cores,):
            raise ValueError(f"pstates must be ({n_cores},)")
        self.tc = tc
        # execution time of each (type, core); inf when the core cannot
        # run the type at its P-state
        ecs = workload.ecs[:, datacenter.core_type, pstates]  # (T, NCORES)
        with np.errstate(divide="ignore"):
            self.exec_time = np.where(ecs > 0.0, 1.0 / np.maximum(ecs, 1e-300),
                                      np.inf)
        self.assigned = np.zeros((t_count, n_cores))
        self._eligible = (tc > 0.0) & np.isfinite(self.exec_time)
        # fault-injection support: dead cores are excluded from selection
        # until marked alive again; _any_dead keeps the healthy hot path
        # free of the extra mask.
        self._core_dead = np.zeros(n_cores, dtype=bool)
        self._any_dead = False
        # hot-path acceleration: per-type candidate core lists (usually a
        # small subset of the room) plus contiguous copies of their
        # rates/exec-times, so select_core touches O(candidates) memory
        self._cand: list[np.ndarray] = []
        self._cand_tc: list[np.ndarray] = []
        self._cand_exec: list[np.ndarray] = []
        self._cand_assigned: list[np.ndarray] = []
        for i in range(t_count):
            idx = np.nonzero(self._eligible[i])[0]
            self._cand.append(idx)
            self._cand_tc.append(np.ascontiguousarray(tc[i, idx]))
            self._cand_exec.append(
                np.ascontiguousarray(self.exec_time[i, idx]))
            self._cand_assigned.append(np.zeros(idx.size))

    # ------------------------------------------------------------------
    def ratios(self, task_type: int, now: float) -> np.ndarray:
        """``ATC(i, k) / TC(i, k)`` for one task type at time ``now``.

        Cores with ``TC = 0`` report ``inf`` so they are never selected.
        """
        out = np.full(self.tc.shape[1], np.inf)
        mask = self._eligible[task_type]
        out[mask] = _atc_ratio(self.assigned[task_type, mask],
                               self.tc[task_type, mask], now)
        return out

    def select_core(self, task_type: int, deadline: float, now: float,
                    core_free_time: np.ndarray) -> int | None:
        """Pick a core for an arriving task, or ``None`` to drop it.

        ``core_free_time[k]`` is the time core *k* finishes its current
        queue; the task would start at ``max(now, free)`` and must finish
        by ``deadline``.
        """
        idx = self._cand[task_type]
        if idx.size == 0:
            return None
        ratio = _atc_ratio(self._cand_assigned[task_type],
                           self._cand_tc[task_type], now)
        start = np.maximum(core_free_time[idx], now)
        finish = start + self._cand_exec[task_type]
        ok = (ratio <= 1.0 + 1e-12) & (finish <= deadline + 1e-12)
        if self._any_dead:
            ok &= ~self._core_dead[idx]
        if not ok.any():
            return None
        masked = np.where(ok, ratio, np.inf)
        return int(idx[int(np.argmin(masked))])

    def record_assignment(self, task_type: int, core: int) -> None:
        """Count an assignment toward ``ATC``."""
        self.assigned[task_type, core] += 1.0
        pos = self._candidate_pos(task_type, core)
        self._cand_assigned[task_type][pos] += 1.0

    def forget_assignment(self, task_type: int, core: int) -> None:
        """Reverse one :meth:`record_assignment` (stranded task).

        When a fault strands a queued task, the task was assigned but
        never executed; forgetting it keeps ``ATC`` an honest count of
        work the core actually absorbed (and lets a requeued copy pick
        any core without double-counting).
        """
        if self.assigned[task_type, core] < 1.0:
            raise ValueError(
                f"no recorded assignment of type {task_type} on core {core} "
                "to forget")
        self.assigned[task_type, core] -= 1.0
        pos = self._candidate_pos(task_type, core)
        self._cand_assigned[task_type][pos] -= 1.0

    def _candidate_pos(self, task_type: int, core: int) -> int:
        cand = self._cand[task_type]
        pos = int(np.searchsorted(cand, core))
        if pos >= cand.size or cand[pos] != core:
            raise ValueError(
                f"core {core} is not a planned target for type {task_type}")
        return pos

    # ------------------------------------------------------------------
    def mark_cores_dead(self, cores: np.ndarray) -> None:
        """Exclude cores from selection (node crash) until marked alive."""
        self._core_dead[np.asarray(cores, dtype=int)] = True
        self._any_dead = bool(self._core_dead.any())

    def mark_cores_alive(self, cores: np.ndarray) -> None:
        """Readmit previously dead cores (node recovery)."""
        self._core_dead[np.asarray(cores, dtype=int)] = False
        self._any_dead = bool(self._core_dead.any())

    def atc(self, elapsed: float) -> np.ndarray:
        """Actual execution-rate matrix after ``elapsed`` seconds."""
        if elapsed <= 0.0:
            raise ValueError("elapsed time must be positive")
        return self.assigned / elapsed


def _atc_ratio(assigned: np.ndarray, tc: np.ndarray, now: float
               ) -> np.ndarray:
    """``assigned / (tc * now)``, every ratio 0 at ``now <= 0``.

    The divisor is floored at the smallest subnormal, so where ``tc * now``
    underflows to 0 at a subnormal ``now`` an unassigned core keeps ratio
    0 (plain division would give 0/0 = NaN and drop the task) and an
    assigned one gets ``inf``; wherever ``tc * now > 0`` this is the
    plain quotient.
    """
    if now <= 0.0:
        return np.zeros(assigned.size)
    return assigned / np.maximum(tc * now, _SMALLEST_SUBNORMAL)
