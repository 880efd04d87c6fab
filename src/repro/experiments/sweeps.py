"""Parameter sweeps for capacity planning and what-if analysis.

The paper fixes ``Pconst`` at the Eq. 18 midpoint; an operator deciding
*how much* power to provision (the Morgan Stanley problem of the
introduction — power availability limits deployment) wants the whole
reward-vs-cap curve, and a facilities engineer wants to know what a
degree of redline headroom is worth.  Both sweeps reuse the first-step
solvers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.assignment import three_stage_assignment
from repro.core.baseline import solve_baseline
from repro.datacenter.builder import DataCenter
from repro.experiments.engine import SweepPoint, sweep
from repro.workload.tasktypes import Workload

__all__ = ["CapSweepPoint", "sweep_power_cap", "RedlineSweepPoint",
           "sweep_node_redline"]


@dataclass(frozen=True)
class CapSweepPoint(SweepPoint):
    """One point of the reward-vs-power-cap curve.

    ``marginal_reward_per_kw`` is the forward difference to the next
    point — the operator's "what is one more kilowatt worth" number.
    Undefined values are ``None`` (JSON ``null``): the baseline reward
    of a sweep run without it, and the last point's marginal.
    """

    p_const: float
    reward_three_stage: float
    reward_baseline: float | None
    power_used_kw: float
    marginal_reward_per_kw: float | None = None

    @property
    def improvement_pct(self) -> float | None:
        """Percent edge over the baseline; ``None`` when undefined."""
        if self.reward_baseline is None or self.reward_baseline <= 0:
            return None
        return 100.0 * (self.reward_three_stage - self.reward_baseline) \
            / self.reward_baseline


@dataclass(frozen=True)
class _CapSweepConfig:
    """What a cap-sweep point depends on besides its room and cap."""

    psi: float
    include_baseline: bool


def _cap_point(config: _CapSweepConfig, cap: float, *,
               datacenter: DataCenter,
               workload: Workload) -> CapSweepPoint | None:
    """Solve one cap (module-level so worker pools can pickle it)."""
    try:
        ours = three_stage_assignment(datacenter, workload, cap,
                                      psi=config.psi)
    except RuntimeError:
        return None         # cap below idle power: nothing to operate
    base_reward = None
    if config.include_baseline:
        base, _ = solve_baseline(datacenter, workload, cap)
        base_reward = base.reward_rate
    return CapSweepPoint(
        p_const=cap,
        reward_three_stage=ours.reward_rate,
        reward_baseline=base_reward,
        power_used_kw=ours.power(datacenter).total,
    )


def sweep_power_cap(datacenter: DataCenter, workload: Workload,
                    caps_kw: np.ndarray, *, psi: float = 50.0,
                    include_baseline: bool = True, jobs: int = 1,
                    cache_dir: str | Path | None = None,
                    resume: bool = False, tag: str | None = None
                    ) -> list[CapSweepPoint]:
    """Solve both techniques across a grid of power caps.

    Caps below the room's idle power are skipped (no feasible
    operating point).  Points are returned in increasing cap order with
    forward-difference marginal rewards filled in.

    The caps run through :func:`~repro.experiments.engine.sweep`:
    ``jobs > 1`` fans them out over worker processes (each cap is
    independent; results are identical to the serial path).  With
    ``cache_dir`` and a ``tag`` naming the room (e.g.
    ``"sweep-set3-n25-seed4"``), finished points are written to disk
    and — with ``resume=True`` — replayed instead of re-solved.
    """
    caps = np.sort(np.asarray(caps_kw, dtype=float))
    if caps.size == 0:
        raise ValueError("need at least one cap")
    config = _CapSweepConfig(psi=float(psi),
                             include_baseline=bool(include_baseline))
    solved = sweep(tag or "sweep", config,
                   [{"cap": float(cap)} for cap in caps],
                   partial(_cap_point, datacenter=datacenter,
                           workload=workload),
                   CapSweepPoint, jobs=jobs, resume=resume,
                   cache_dir=cache_dir if tag is not None else None)
    rows = [point for point in solved if point is not None]
    # forward-difference marginal value of provisioned power
    out: list[CapSweepPoint] = []
    for point, nxt in zip(rows, rows[1:]):
        dcap = nxt.p_const - point.p_const
        marginal = (nxt.reward_three_stage - point.reward_three_stage) \
            / dcap if dcap > 0 else None
        out.append(replace(point, marginal_reward_per_kw=marginal))
    return out + rows[-1:]


@dataclass(frozen=True)
class RedlineSweepPoint:
    """One point of the reward-vs-node-redline curve."""

    node_redline_c: float
    reward_rate: float
    t_crac_out_mean: float


def sweep_node_redline(datacenter: DataCenter, workload: Workload,
                       p_const: float, redlines_c: np.ndarray,
                       *, psi: float = 50.0) -> list[RedlineSweepPoint]:
    """What is a degree of thermal headroom worth?

    Re-solves the three-stage assignment while varying the compute-node
    redline temperature (CRAC redlines unchanged).  Warmer redlines let
    the CRACs run warmer (cheaper cooling), freeing cap for compute.
    The data center's redline attribute is restored afterwards.
    """
    original = datacenter.node_redline_c
    rows: list[RedlineSweepPoint] = []
    try:
        for redline in np.asarray(redlines_c, dtype=float):
            datacenter.node_redline_c = float(redline)
            try:
                res = three_stage_assignment(datacenter, workload, p_const,
                                             psi=psi)
            except RuntimeError:
                continue    # too strict to operate at all
            rows.append(RedlineSweepPoint(
                node_redline_c=float(redline),
                reward_rate=res.reward_rate,
                t_crac_out_mean=float(res.t_crac_out.mean()),
            ))
    finally:
        datacenter.node_redline_c = original
    return rows
