"""Predictive (receding-horizon) control over the transient thermal model.

``forecast`` projects arrival rates over the lookahead horizon;
``mpc`` plans against those forecasts with warm-chained solves and a
pre-cool-before-derate escalation ladder.  The loop that drives the
planner is :class:`repro.faults.policy.FaultAwareController` with
``ReactionPolicy(controller="mpc")``.  See docs/CONTROL.md.
"""

from repro.control.forecast import (FORECAST_KINDS, ForecastProvider,
                                    NoisyOracleForecast, OracleForecast,
                                    PersistenceForecast, make_forecast)
from repro.control.mpc import MPCConfig, MPCDecision, MPCPlanner

__all__ = [
    "FORECAST_KINDS",
    "ForecastProvider",
    "OracleForecast",
    "PersistenceForecast",
    "NoisyOracleForecast",
    "make_forecast",
    "MPCConfig",
    "MPCDecision",
    "MPCPlanner",
]
