"""Redline constraint helpers (Eq. 6) shared by the optimizers.

Both the paper's three-stage technique and the baseline express the
thermal constraint ``T_in <= T_redline`` as linear rows over the node
power variables once the CRAC outlet temperatures are fixed.  This
module packages that affine view, plus the linearized CRAC power needed
for the total-power constraint (Eqs. 2-3 with inlet temperatures affine
in node powers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.trace import span as obs_span
from repro.power.cop import CoPModel, HP_UTILITY_COP
from repro.thermal.heatflow import HeatFlowModel

__all__ = ["ThermalLinearization"]


@dataclass(frozen=True)
class ThermalLinearization:
    """Linear view of the thermal coupling at fixed CRAC outlets.

    For assigned CRAC outlet temperatures ``t`` every quantity the LPs
    need is affine in the node power vector ``P``:

    * inlet temperatures:  ``T_in = inlet_const + inlet_gain @ P``
    * CRAC electric power: ``P_crac_total = crac_const + crac_coeff @ P``
      (valid while each CRAC actually removes heat, i.e. its inlet is
      above its outlet; the builder records the constant so callers can
      verify the assumption at the solution).

    Attributes
    ----------
    t_crac_out:
        The outlet temperatures the linearization was built at.
    inlet_const, inlet_gain:
        Affine inlet map (units ordered CRACs first).
    redline_rhs:
        ``T_redline - inlet_const`` — right-hand side for the rows
        ``inlet_gain @ P <= redline_rhs``.
    crac_const, crac_coeff:
        Affine total CRAC electric power, kW.
    """

    t_crac_out: np.ndarray
    inlet_const: np.ndarray
    inlet_gain: np.ndarray
    redline_rhs: np.ndarray
    crac_const: float
    crac_coeff: np.ndarray

    @classmethod
    def build(cls, model: HeatFlowModel, t_crac_out: np.ndarray,
              redline_c: np.ndarray,
              cop_model: CoPModel = HP_UTILITY_COP) -> "ThermalLinearization":
        """Construct the linearization for one outlet-temperature vector.

        The total CRAC power is ``sum_i rho*Cp*F_i*(T_in_i - t_i)/CoP(t_i)``
        with ``T_in_i`` affine in ``P``; collecting terms gives the
        ``crac_const``/``crac_coeff`` pair.
        """
        t = np.asarray(t_crac_out, dtype=float)
        with obs_span("linearize"):
            const, gain = model.inlet_affine(t)
            redline = np.asarray(redline_c, dtype=float)
            if redline.shape != const.shape:
                raise ValueError(f"redline shape {redline.shape} != "
                                 f"unit count {const.shape}")
            cop = np.asarray(cop_model(t), dtype=float)
            weight = model.crac_capacity / cop      # kW per Kelvin of lift
            crac_const = float(weight @ (const[:model.n_crac] - t))
            crac_coeff = weight @ gain[:model.n_crac, :]
        return cls(
            t_crac_out=t,
            inlet_const=const,
            inlet_gain=gain,
            redline_rhs=redline - const,
            crac_const=crac_const,
            crac_coeff=crac_coeff,
        )

    @property
    def n_nodes(self) -> int:
        return int(self.inlet_gain.shape[1])

    def crac_power(self, node_power_kw: np.ndarray) -> float:
        """Total CRAC electric power at ``P`` under the linear model, kW."""
        p = np.asarray(node_power_kw, dtype=float)
        return self.crac_const + float(self.crac_coeff @ p)

    def inlet_temperatures(self, node_power_kw: np.ndarray) -> np.ndarray:
        """``T_in`` at ``P`` (CRACs first), C."""
        p = np.asarray(node_power_kw, dtype=float)
        return self.inlet_const + self.inlet_gain @ p

    def check(self, node_power_kw: np.ndarray, tol: float = 1e-6) -> bool:
        """Verify redlines *and* the no-clamping assumption at ``P``."""
        p = np.asarray(node_power_kw, dtype=float)
        t_in = self.inlet_temperatures(p)
        if np.any(self.inlet_gain @ p > self.redline_rhs + tol):
            return False
        # heat removed must be non-negative at every CRAC for the
        # linearized power to equal Eq. 3
        return bool(np.all(t_in[:self.t_crac_out.size]
                           >= self.t_crac_out - tol))
