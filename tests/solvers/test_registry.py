"""Solver backend registry semantics and ``solve()`` dispatch."""

from __future__ import annotations

import pytest

from repro.core.api import SolveOptions, SolveRequest, solve
from repro.experiments.config import PAPER_SET_1, scaled_down
from repro.experiments.generator import generate_scenario
from repro.solvers import get_solver, list_solvers, register_solver

from tests.conftest import SEED


@pytest.fixture(scope="module")
def tiny():
    return generate_scenario(scaled_down(PAPER_SET_1, 6), SEED)


class TestRegistry:
    def test_builtins_registered(self):
        names = list_solvers()
        for expected in ("three_stage", "best_psi", "baseline", "exact",
                         "annealing", "evolution"):
            assert expected in names

    def test_sorted_and_stable(self):
        assert list(list_solvers()) == sorted(list_solvers())
        assert list_solvers() == list_solvers()

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(ValueError, match="three_stage"):
            get_solver("nope")

    def test_duplicate_registration_raises(self):
        def fake(request):
            raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_solver("three_stage", fake)

    def test_replace_and_external_registration(self, tiny):
        calls = []

        def fake(request):
            calls.append(request)
            return solve(request, method="baseline")

        register_solver("test_fake", fake)
        try:
            result = solve(SolveRequest(tiny.datacenter, tiny.workload,
                                        tiny.p_const),
                           method="test_fake")
            assert calls and result.reward_rate >= 0.0
            # replace=True swaps the implementation
            register_solver("test_fake",
                            lambda req: solve(req, method="baseline"),
                            replace=True)
        finally:
            from repro import solvers
            solvers._REGISTRY.pop("test_fake", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_solver("", lambda req: None)


class TestOptionsDispatch:
    def test_backend_option_dispatches(self, tiny):
        request = SolveRequest(
            tiny.datacenter, tiny.workload, tiny.p_const,
            options=SolveOptions(backend="baseline"))
        result = solve(request)
        assert result.to_dict()["method"] == "baseline"

    def test_method_overrides_backend(self, tiny):
        request = SolveRequest(
            tiny.datacenter, tiny.workload, tiny.p_const,
            options=SolveOptions(backend="baseline"))
        result = solve(request, method="three_stage")
        assert result.to_dict()["method"] == "three_stage"

    def test_unknown_backend_rejected_at_options(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            SolveOptions(backend="nope")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="max_evals"):
            SolveOptions(max_evals=0)

    def test_default_backend_is_three_stage(self, tiny):
        request = SolveRequest(tiny.datacenter, tiny.workload, tiny.p_const)
        assert request.options.backend == "three_stage"
        assert solve(request).to_dict()["method"] == "three_stage"
