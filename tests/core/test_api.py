"""Tests for repro.core.api — the unified solver entry point."""

import pytest

from repro.core.api import (BestPsiOutcome, SolveOptions, SolveOutcome,
                            SolveRequest, SolveResult, SolveState, solve)
from repro.solvers import list_solvers


@pytest.fixture(scope="module")
def request_for(scenario):
    return SolveRequest(scenario.datacenter, scenario.workload,
                        scenario.p_const)


class TestOptions:
    def test_defaults(self):
        opt = SolveOptions()
        assert opt.psi == 50.0 and opt.psis == (25.0, 50.0)
        assert opt.search == "fast"

    def test_bad_search_rejected(self):
        with pytest.raises(ValueError, match="search mode"):
            SolveOptions(search="bogus")

    def test_empty_psis_rejected(self):
        with pytest.raises(ValueError, match="psi"):
            SolveOptions(psis=())

    def test_with_options(self, request_for):
        changed = request_for.with_options(psi=25.0, search="full")
        assert changed.options.psi == 25.0
        assert changed.options.search == "full"
        assert request_for.options.psi == 50.0   # original untouched
        assert changed.datacenter is request_for.datacenter


class TestSolveDispatch:
    def test_methods_listed(self):
        assert set(list_solvers()) >= {"three_stage", "best_psi",
                                            "baseline", "exact",
                                            "annealing", "evolution"}

    def test_unknown_method_rejected(self, request_for):
        with pytest.raises(ValueError, match="unknown solver backend"):
            solve(request_for, method="not-a-solver")

    @pytest.mark.parametrize("method", ["three_stage", "best_psi",
                                        "baseline"])
    def test_outcome_protocol(self, request_for, scenario, method):
        outcome = solve(request_for, method=method)
        assert isinstance(outcome, SolveOutcome)
        assert outcome.reward_rate > 0
        outcome.verify(scenario.datacenter, scenario.p_const)
        data = outcome.to_dict()
        assert data["reward_rate"] == pytest.approx(outcome.reward_rate)

    def test_three_stage_matches_legacy(self, request_for, scenario,
                                        assignment):
        outcome = solve(request_for, method="three_stage")
        assert outcome.reward_rate == pytest.approx(assignment.reward_rate)

    def test_baseline_matches_legacy(self, request_for, baseline):
        outcome = solve(request_for, method="baseline")
        assert outcome.reward_rate == pytest.approx(baseline.reward_rate)
        assert outcome.search is not None    # trace attached by the API

    def test_best_psi_outcome(self, request_for, scenario):
        result = solve(request_for, method="best_psi")
        assert isinstance(result.outcome, BestPsiOutcome)
        assert set(result.by_psi) == {25.0, 50.0}
        assert result.reward_rate \
            == max(result.reward_by_psi.values())
        assert result.to_dict()["method"] == "best_psi"


class TestSolveResult:
    def test_pairs_outcome_with_state(self, request_for):
        result = solve(request_for)
        assert isinstance(result, SolveResult)
        assert isinstance(result.state, SolveState)
        assert result.state.method == "three_stage"

    def test_forwards_outcome_attributes(self, request_for):
        result = solve(request_for)
        assert result.psi == result.outcome.psi
        assert result.tc is result.outcome.tc
        assert result.pstates is result.outcome.pstates

    def test_unknown_attribute_raises(self, request_for):
        result = solve(request_for)
        with pytest.raises(AttributeError):
            result.no_such_attribute

    def test_satisfies_outcome_protocol(self, request_for, scenario):
        result = solve(request_for)
        assert isinstance(result, SolveOutcome)
        result.verify(scenario.datacenter, scenario.p_const)

    def test_result_pickles(self, request_for):
        import pickle

        result = solve(request_for)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.reward_rate == result.reward_rate
        # runtime caches are deliberately dropped from the pickle
        assert clone.state.runtime is None


class TestRetiredPositionalConventions:
    """The PR-1 legacy positional shims are gone: TypeError, not warning."""

    def test_three_stage_positional_psi_rejected(self, scenario):
        from repro.core import three_stage_assignment

        with pytest.raises(TypeError):
            three_stage_assignment(scenario.datacenter, scenario.workload,
                                   scenario.p_const, 50.0)

    def test_best_psi_positional_psis_rejected(self, scenario):
        from repro.core import best_psi_assignment

        with pytest.raises(TypeError):
            best_psi_assignment(scenario.datacenter, scenario.workload,
                                scenario.p_const, (50.0,))

    def test_solve_stage1_legacy_order_rejected(self, scenario):
        from repro.core import solve_stage1

        with pytest.raises(TypeError):
            solve_stage1(scenario.datacenter, scenario.workload,
                         50.0, scenario.p_const)

    def test_solve_stage1_missing_p_const_rejected(self, scenario):
        from repro.core import solve_stage1

        with pytest.raises(TypeError, match="p_const"):
            solve_stage1(scenario.datacenter, scenario.workload)

    def test_too_many_positionals_rejected(self, scenario):
        from repro.core import three_stage_assignment

        with pytest.raises(TypeError):
            three_stage_assignment(scenario.datacenter, scenario.workload,
                                   scenario.p_const, 50.0, "fast")
