"""Data-center power accounting and power bounds (Eqs. 1, 17, 18).

``total_power`` evaluates the exact (nonlinear) total power of the room
at an operating point — compute nodes via Eq. 1 plus CRAC units via
Eq. 3 at the resolved steady-state inlet temperatures.

``power_bounds`` implements the Section VI.F procedure: the minimum
(all cores off) and maximum (all cores at P-state 0) total power, each
minimized over CRAC outlet temperatures subject to the redlines
(Eq. 17); ``Pconst`` is then their midpoint (Eq. 18).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datacenter.builder import DataCenter
from repro.optimize.search import coarse_to_fine_search
from repro.power.crac import heat_removed_kw
from repro.thermal.heatflow import _FEASIBILITY_TOL

__all__ = ["PowerBreakdown", "total_power", "power_bounds", "PowerBounds"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Total power of the room at one operating point, kW.

    Attributes
    ----------
    node_kw:
        Per-node power (Eq. 1).
    crac_kw:
        Per-CRAC electric power (Eq. 3) at the steady state.
    """

    node_kw: np.ndarray
    crac_kw: np.ndarray

    @property
    def compute_total(self) -> float:
        return float(self.node_kw.sum())

    @property
    def cooling_total(self) -> float:
        return float(self.crac_kw.sum())

    @property
    def total(self) -> float:
        return self.compute_total + self.cooling_total


def total_power(datacenter: DataCenter, t_crac_out: np.ndarray,
                node_power_kw: np.ndarray) -> PowerBreakdown:
    """Exact total power at fixed node powers and CRAC outlets.

    The CRAC inlet temperatures come from the attached thermal model's
    steady state; each CRAC's power uses its own CoP model.
    """
    model = datacenter.require_thermal()
    t = np.asarray(t_crac_out, dtype=float)
    p = np.asarray(node_power_kw, dtype=float)
    return _price(datacenter, t, p, model.steady_state(t, p).t_in)


def _price(datacenter: DataCenter, t_crac_out: np.ndarray,
           node_power_kw: np.ndarray, t_in: np.ndarray) -> PowerBreakdown:
    """Power breakdown given the steady-state inlets ``t_in`` (CRACs
    first): Eq. 3 for all CRACs at once, each at its own CoP model."""
    cop = np.asarray([c.cop_model(t)
                      for c, t in zip(datacenter.cracs, t_crac_out)])
    crac_kw = heat_removed_kw(datacenter.crac_flows,
                              t_in[:datacenter.n_crac], t_crac_out) / cop
    return PowerBreakdown(node_kw=node_power_kw, crac_kw=crac_kw)


@dataclass(frozen=True)
class PowerBounds:
    """Result of the Eq. 17/18 procedure.

    ``p_min``/``p_max`` are upper bounds on the extreme total powers (the
    search is discretized, hence "upper bound" as the paper notes), and
    ``p_const`` is their midpoint — the power cap used in Section VII.
    """

    p_min: float
    p_max: float
    t_out_min: np.ndarray
    t_out_max: np.ndarray

    @property
    def p_const(self) -> float:
        """Eq. 18: ``(Pmin + Pmax) / 2``."""
        return (self.p_min + self.p_max) / 2.0


def _min_total_over_outlets(datacenter: DataCenter,
                            node_power_kw: np.ndarray,
                            final_step: float) -> tuple[float, np.ndarray]:
    """Minimize total power over CRAC outlet temperatures (Eq. 17).

    The node powers are fixed, so their inlet heating ``G @ P`` and
    their total are computed once, and each CRAC's CoP once per outlet
    temperature; each probe then prices exactly as :func:`total_power`
    does, with the redline test of the steady state in between.
    """
    model = datacenter.require_thermal()
    redline = np.asarray(datacenter.redline_c, dtype=float)
    lows = [c.outlet_range_c[0] for c in datacenter.cracs]
    highs = [c.outlet_range_c[1] for c in datacenter.cracs]
    p = np.asarray(node_power_kw, dtype=float)
    t_base = model.inlet_base
    gp = model.apply_gain(p)
    node_total = float(p.sum())
    n_crac = datacenter.n_crac
    cops: dict[tuple[int, float], float] = {}

    def cop_of(i: int, t: float) -> float:
        cop = cops.get((i, t))
        if cop is None:
            cop = cops[i, t] = datacenter.cracs[i].cop_model(t)
        return cop

    def objective(t_vec: np.ndarray) -> float | None:
        t_in = t_base @ t_vec + gp
        if not (redline - t_in >= -_FEASIBILITY_TOL).all():
            return None
        cop = np.asarray([cop_of(i, t) for i, t in enumerate(t_vec)])
        crac_kw = heat_removed_kw(datacenter.crac_flows, t_in[:n_crac],
                                  t_vec) / cop
        return node_total + float(crac_kw.sum())

    try:
        result = coarse_to_fine_search(
            objective, datacenter.n_crac, min(lows), max(highs),
            coarse_step=5.0, final_step=final_step, maximize=False)
    except RuntimeError:
        # The operating point is thermally infeasible at every outlet
        # temperature (possible for all-cores-P0 in rooms with heavy
        # recirculation).  The bound is only used to place Pconst, so
        # report the power at the coldest outlets — still "an upper
        # bound on the extreme power" in the paper's sense.
        t_cold = np.asarray(lows, dtype=float)
        return total_power(datacenter, t_cold, node_power_kw).total, t_cold
    return result.score, result.temperatures


def power_bounds(datacenter: DataCenter,
                 final_step: float = 1.0) -> PowerBounds:
    """Compute ``Pmin``, ``Pmax`` and the derived ``Pconst`` (Section VI.F).

    The two extreme node-power vectors are all-cores-off (base power
    only; nodes are never powered down, Section III.C) and all-cores-P0.
    """
    p_off = datacenter.node_power_kw(datacenter.all_off_pstates())
    p_full = datacenter.node_power_kw(datacenter.all_p0_pstates())
    p_min, t_min = _min_total_over_outlets(datacenter, p_off, final_step)
    p_max, t_max = _min_total_over_outlets(datacenter, p_full, final_step)
    return PowerBounds(p_min=p_min, p_max=p_max,
                       t_out_min=t_min, t_out_max=t_max)
