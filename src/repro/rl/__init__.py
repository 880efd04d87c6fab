"""Reset/step episodes over the shared epoch step (DataCenterGym-style).

An action ``(outlet_level, fills)`` sets every CRAC to one outlet grid
level and each node type to one P-state fill.  ``step`` repairs it to a
feasible plan (:class:`~repro.solvers.common.CandidateEvaluator`), solves
Stage 3 and runs :func:`~repro.core.controller.run_epoch` from the carried
transient end state for the realized DES reward.  Observation: epoch share,
per-type arrivals / (expected + 1), last plan's margin / 10, power / cap.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.controller import idle_start_t_out, run_epoch
from repro.solvers.common import Candidate, CandidateEvaluator
from repro.workload.trace import generate_trace


class ThermalSchedulingEnv:
    def __init__(self, datacenter, workload, p_const: float, *,
                 epoch_s: float = 60.0, n_epochs: int = 4,
                 outlet_levels: int = 5, tau_s: float = 15.0):
        if epoch_s <= 0:
            raise ValueError("epoch length must be positive")
        if n_epochs < 1:
            raise ValueError("need at least one epoch per episode")
        self.datacenter, self.workload, self.p_const = (
            datacenter, workload, p_const)
        self.epoch_s, self.n_epochs, self.tau_s = epoch_s, n_epochs, tau_s
        self.epoch = n_epochs  # no episode until reset()
        self.evaluator = CandidateEvaluator(datacenter, workload, p_const,
                                            outlet_levels=outlet_levels)
        self.observation_size = workload.n_task_types + 3

    def plan_action(self, action) -> tuple[Candidate, float]:
        """The repaired candidate and its Stage 3 predicted reward."""
        level, fills = int(action[0]), np.asarray(action[1], dtype=int)
        if not 0 <= level < self.evaluator.outlet_levels:
            raise ValueError(f"outlet level {level} out of range")
        if fills.shape != (len(self.datacenter.node_types),):
            raise ValueError(f"need one P-state fill per node type, got "
                             f"shape {fills.shape}")
        cand = Candidate(np.full(self.datacenter.n_crac, level), np.minimum(
            fills[self.datacenter.core_type], self.evaluator.off))
        return cand, self.evaluator.evaluate(cand)

    def _observe(self, margin: float, power_kw: float) -> np.ndarray:
        counts = np.bincount(self.slices[self.epoch].task_type,
                             minlength=self.workload.n_task_types)
        expected = np.asarray(self.workload.arrival_rates) * self.epoch_s
        return np.concatenate([[self.epoch / self.n_epochs],
                               counts / (expected + 1),
                               [margin / 10, power_kw / self.p_const]])

    def reset(self, seed: int = 0) -> tuple[np.ndarray, dict]:
        trace = generate_trace(self.workload, self.epoch_s * self.n_epochs,
                               np.random.default_rng(seed))
        # one slice per epoch, and an empty one past the last
        edges = np.searchsorted(trace.arrival,
                                self.epoch_s * np.arange(self.n_epochs + 2))
        self.slices = [trace[i:j] for i, j in zip(edges, edges[1:])]
        self.epoch, self.t_out = 0, idle_start_t_out(self.datacenter)
        return self._observe(0.0, 0.0), {"n_tasks": len(trace), "seed": seed}

    def step(self, action) -> tuple[np.ndarray, float, bool, bool, dict]:
        if self.epoch >= self.n_epochs:
            raise RuntimeError("no episode running (or episode over) — "
                               "call reset()")
        cand, predicted = self.plan_action(action)
        plan = SimpleNamespace(
            t_crac_out=self.evaluator.outlets(cand.outlet_idx),
            pstates=cand.pstates, tc=self.evaluator.finish(cand).tc)
        start, tasks = self.epoch * self.epoch_s, self.slices[self.epoch]
        self.last = run_epoch(self.datacenter, self.workload, plan,
                              self.t_out, tasks, start, start + self.epoch_s,
                              tau_s=self.tau_s)
        self.t_out, self.epoch = self.last.t_out, self.epoch + 1
        margin, power_kw = self.evaluator.constraints(cand)
        info = {"predicted_reward_rate": predicted, "epoch": self.epoch - 1,
                "violation_minutes": self.last.violation_minutes,
                "n_tasks": len(tasks), "steady_margin_c": margin,
                "power_kw": power_kw}
        return (self._observe(margin, power_kw), self.last.metrics
                .total_reward, self.epoch >= self.n_epochs, False, info)


class GreedyPlanPolicy:
    """Reference agent: the (outlet level, uniform fill) action with the
    best repaired Stage 3 prediction, first in grid order on ties."""

    def __init__(self, env: ThermalSchedulingEnv):
        etas = [spec.n_pstates for spec in env.datacenter.node_types]
        self.action = max(((level, (fill,) * len(etas))
                           for level in range(env.evaluator.outlet_levels)
                           for fill in range(max(etas))),
                          key=lambda action: env.plan_action(action)[1])

    def __call__(self, obs: np.ndarray) -> tuple:
        return self.action
