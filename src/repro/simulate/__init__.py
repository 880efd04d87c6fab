"""Discrete-event simulation of the second-step dynamic scheduling."""

from repro.simulate.energy import EnergyReport, energy_report
from repro.simulate.engine import CoreOutage, simulate_trace
from repro.simulate.metrics import SimulationMetrics

__all__ = [
    "EnergyReport",
    "energy_report",
    "simulate_trace",
    "CoreOutage",
    "SimulationMetrics",
]
