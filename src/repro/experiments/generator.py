"""Scenario generation — one fully-specified simulation run (Section VI).

A *scenario* bundles everything one Figure 6 data point needs: a random
room (node types, layout, CRACs), its cross-interference thermal model,
a workload (ECS tensor, rewards, deadlines, arrival rates) and the
derived power cap ``Pconst`` (Eqs. 17-18).  ``generate_scenario`` is a
pure function of ``(config, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datacenter.builder import DataCenter, build_datacenter
from repro.datacenter.coretypes import paper_node_types
from repro.datacenter.power import PowerBounds, power_bounds
from repro.experiments.config import ScenarioConfig
from repro.obs.trace import span as obs_span
from repro.thermal.interference import attach_thermal_model
from repro.workload.tasktypes import Workload, generate_workload

__all__ = ["Scenario", "generate_scenario"]


@dataclass
class Scenario:
    """One concrete simulation instance.

    Attributes
    ----------
    config / seed:
        The recipe that produced this scenario (reproducibility).
    datacenter:
        Room with its thermal model attached.
    workload:
        The Section VI workload.
    bounds:
        ``Pmin`` / ``Pmax`` from Eq. 17.
    """

    config: ScenarioConfig
    seed: int
    datacenter: DataCenter
    workload: Workload
    bounds: PowerBounds

    @property
    def p_const(self) -> float:
        """Eq. 18 power cap — midpoint of the Eq. 17 bounds."""
        return self.bounds.p_const


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Build a scenario deterministically from a config and seed."""
    with obs_span("generate", n_nodes=config.n_nodes):
        rng = np.random.default_rng(seed)
        node_types = paper_node_types(config.static_fraction)
        dc = build_datacenter(
            n_nodes=config.n_nodes,
            n_crac=config.n_crac,
            node_types=node_types,
            rng=rng,
            crac_outlet_range_c=(config.crac_outlet_low_c,
                                 config.crac_outlet_high_c),
            nodes_per_rack=config.nodes_per_rack,
        )
        attach_thermal_model(dc, rng=rng, facing_share=config.facing_share)
        workload = generate_workload(
            dc, rng,
            n_task_types=config.n_task_types,
            v_ecs=config.v_ecs,
            v_prop=config.v_prop,
            v_arrival=config.v_arrival,
        )
        bounds = power_bounds(dc)
        return Scenario(config=config, seed=seed, datacenter=dc,
                        workload=workload, bounds=bounds)
