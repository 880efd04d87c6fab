"""Shared fixtures: small seeded rooms and workloads.

Scenario generation involves two LP solves (interference + power bounds),
so the expensive fixtures are session-scoped; tests must not mutate them
(assignments return fresh arrays, so this is natural).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datacenter import build_datacenter
from repro.experiments import PAPER_SET_1, generate_scenario, scaled_down
from repro.thermal import attach_thermal_model
from repro.workload import generate_workload

#: Seed used by the default fixtures; tests that need variation derive
#: their own generators.
SEED = 20120521  # IPDPSW 2012 conference date


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the tests/golden/data baselines from the current "
             "code instead of comparing against them")


@pytest.fixture(scope="session")
def small_dc():
    """A 20-node, 3-CRAC room with its thermal model attached."""
    rng = np.random.default_rng(SEED)
    dc = build_datacenter(n_nodes=20, n_crac=3, rng=rng)
    attach_thermal_model(dc, rng=rng)
    return dc


@pytest.fixture(scope="session")
def small_workload(small_dc):
    """Workload matched to ``small_dc`` (8 task types, paper knobs)."""
    rng = np.random.default_rng(SEED + 1)
    return generate_workload(small_dc, rng)


@pytest.fixture(scope="session")
def scenario():
    """A complete small scenario (room + workload + power cap)."""
    return generate_scenario(scaled_down(PAPER_SET_1, 20), SEED)


@pytest.fixture(scope="session")
def assignment(scenario):
    """A three-stage assignment on ``scenario`` (psi = 50)."""
    from repro.core import three_stage_assignment

    return three_stage_assignment(scenario.datacenter, scenario.workload,
                                  scenario.p_const, psi=50.0)


@pytest.fixture(scope="session")
def baseline(scenario):
    """Baseline solution on ``scenario``."""
    from repro.core import solve_baseline

    sol, _ = solve_baseline(scenario.datacenter, scenario.workload,
                            scenario.p_const)
    return sol


def dict_rows(rows, n_vars):
    """``(coeffs, rhs)`` pairs, one ``{var: coeff}`` dict per row, as the
    ``(csr, rhs)`` block :meth:`LinearProgram.add_le_rows` takes.

    Explicit zero coefficients stay in the block; an empty dict is an
    all-zero row.
    """
    from scipy import sparse

    row = [r for r, (coeffs, _) in enumerate(rows) for _ in coeffs]
    col = [v for coeffs, _ in rows for v in coeffs]
    val = [float(c) for coeffs, _ in rows for c in coeffs.values()]
    return (sparse.csr_matrix((val, (row, col)), shape=(len(rows), n_vars)),
            np.array([float(rhs) for _, rhs in rows]))
