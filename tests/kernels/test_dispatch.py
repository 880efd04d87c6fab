"""Whole-solve oracle: the solver on the reference kernels agrees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import SolveRequest, solve
from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.generator import generate_scenario
from repro.kernels import reference, vectorized

from tests.conftest import SEED

#: The kernel contract (docs/KERNELS.md): every function the solver
#: calls on :mod:`repro.kernels.vectorized`.
CONTRACT = ("node_power_kw", "node_power_batch", "steady_state_batch",
            "convert_power_to_pstates", "assemble_segments",
            "distribute_node_power", "wrap_cop")


def test_solve_agrees_with_reference_kernels(monkeypatch):
    sc = generate_scenario(scaled_down(PAPER_SET_1, 8), SEED)
    request = SolveRequest(sc.datacenter, sc.workload, sc.p_const)
    vec = solve(request)
    for name in CONTRACT:
        monkeypatch.setattr(vectorized, name, getattr(reference, name))
    ref = solve(request)
    assert np.array_equal(ref.pstates, vec.pstates)
    assert np.array_equal(ref.t_crac_out, vec.t_crac_out)
    assert vec.reward_rate == pytest.approx(ref.reward_rate,
                                            rel=1e-9, abs=1e-9)
