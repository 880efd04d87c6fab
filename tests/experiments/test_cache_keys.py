"""Every field of a keyed config reaches its cache key or digest.

Keys are derived from the config dataclasses (``dataclasses.asdict`` /
``dataclasses.fields``) rather than hand-written lists, and this module
checks the result at runtime: replacing any one field with a different
valid value must change the key.  The alternate values come from
:data:`ALTERNATES`, and a field missing there fails the test, so adding
a config field forces a decision about its key.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.core.api import SolveOptions
from repro.core.warmstart import compute_digests
from repro.experiments.chaos import ChaosConfig
from repro.experiments.config import PAPER_SET_1, ScenarioConfig, scaled_down
from repro.experiments.control import ControlConfig
from repro.experiments.engine import cache_key, point_key
from repro.experiments.generator import generate_scenario
from repro.experiments.tournament import TournamentConfig
from repro.faults.schedule import FaultRates

#: Per keyed config: field name -> a valid value different from the
#: default.  Budget and backend knobs are here too: runs under
#: different backends, seeds or evaluation budgets never share a point.
ALTERNATES: dict[type, dict[str, object]] = {
    ScenarioConfig: {
        "name": "set9", "n_nodes": 151, "n_crac": 4, "n_task_types": 9,
        "static_fraction": 0.4, "v_ecs": 0.2, "v_prop": 0.2,
        "v_arrival": 0.4, "psis": (25.0,), "search": "full",
        "facing_share": 0.6, "nodes_per_rack": 4,
        "crac_outlet_low_c": 11.0, "crac_outlet_high_c": 24.0,
        "backend": "annealing", "backend_seed": 1, "max_evals": 123,
    },
    SolveOptions: {
        "psi": 25.0, "psis": (50.0,), "search": "full",
        "coarse_step": 4.0, "final_step": 0.5, "temp_step": 2.0,
        "max_assignments": 1000,
        "backend": "annealing", "seed": 1, "max_evals": 100,
    },
    ChaosConfig: {
        "n_nodes": 8, "seed": 2, "horizon_s": 31.0, "psi": 25.0,
        "stranded": "drop", "rates": FaultRates(node_crash_per_hour=1.0),
        "controller": "mpc",
    },
    ControlConfig: {
        "n_nodes": 8, "seed": 2, "horizon_s": 300.0, "epoch_s": 30.0,
        "burst_start_s": 60.0, "burst_duration_s": 90.0,
        "burst_magnitude": 3.0, "psi": 25.0, "horizon_steps": 2,
        "precool_step_c": 0.5, "max_precool": 2, "forecast": "persistence",
        "stranded": "drop", "rates": FaultRates(node_crash_per_hour=1.0),
    },
    TournamentConfig: {
        "n_nodes": 8, "seed": 2, "sets": (1, 2), "backends": ("annealing",),
        "backend_seed": 1, "max_evals": 61, "tau_s": 60.0,
    },
}

#: Sweep tag and one arm for the configs keyed by ``point_key``.
SWEEP_ARMS = {
    ChaosConfig: ("chaos", {"factor": 1.0}),
    ControlConfig: ("control", {"controller": "mpc", "factor": 1.0}),
    TournamentConfig: ("tournament",
                       {"set_index": 1, "backend": "annealing"}),
}


@pytest.fixture(scope="module")
def room():
    return generate_scenario(scaled_down(PAPER_SET_1, 6), 1)


def _key(config, room) -> str:
    if isinstance(config, ScenarioConfig):
        return cache_key(config, 1)
    if isinstance(config, SolveOptions):
        return compute_digests(room.datacenter, room.workload, room.p_const,
                               config).structure
    tag, arm = SWEEP_ARMS[type(config)]
    return point_key(tag, config, arm)


@pytest.mark.parametrize("cls", list(ALTERNATES), ids=lambda c: c.__name__)
def test_every_field_splits_key(cls, room):
    table = ALTERNATES[cls]
    missing = [f.name for f in fields(cls) if f.name not in table]
    assert not missing, (
        f"{cls.__name__} fields {missing} have no alternate value: decide "
        "whether they belong in the key and add them to ALTERNATES")
    base = cls()
    base_key = _key(base, room)
    for f in fields(cls):
        alt = table[f.name]
        assert alt != getattr(base, f.name), (cls.__name__, f.name)
        assert _key(replace(base, **{f.name: alt}), room) != base_key, \
            f"{cls.__name__}.{f.name} does not split the key"


def test_point_key_splits_on_tag_and_arm():
    config = ChaosConfig()
    base = point_key("chaos", config, {"factor": 1.0})
    assert point_key("chaos", config, {"factor": 0.5}) != base
    assert point_key("control", config, {"factor": 1.0}) != base
    assert point_key("chaos", config, {"factor": 1.0}) == base
