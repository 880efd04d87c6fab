"""Tests for repro.optimize.linprog — the LP wrapper."""

import numpy as np
import pytest
from scipy import sparse

from repro import obs
from repro.optimize.linprog import InfeasibleError, LinearProgram


def _mixed_lp() -> LinearProgram:
    """One program built through every row method: dict rows (including
    an explicit zero coefficient), a dense block and sparse blocks."""
    lp = LinearProgram(name="mixed", maximize=True)
    x = lp.add_variables(4, lb=0.0, ub=[1.0, 2.0, 3.0, 4.0],
                         objective=[1.0, 0.5, -0.25, 2.0])
    lp.add_le_constraint({x[0]: 1.0, x[2]: 0.0, x[3]: 2.5}, 6.0)
    lp.add_ge_constraint({x[1]: 1.0, x[0]: -0.5}, -1.0)
    lp.add_eq_constraint({x[2]: 1.0, x[3]: -1.0}, 0.5)
    lp.add_dense_le_rows(np.array([[0.0, 1.0, 1.0, 0.0],
                                   [3.0, 0.0, 0.0, 1.0]]), [4.0, 7.0])
    lp.add_sparse_le_rows(sparse.csr_matrix(np.array([[0.0, 0.0, 2.0, 0.0],
                                                      [1.0, 1.0, 0.0, 1.0]])),
                          np.array([5.0, 9.0]))
    lp.add_sparse_eq_rows(sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 1.0]])),
                          [3.0])
    lp.set_bounds(x[1], 0.5, 1.5)
    return lp


class TestVariables:
    def test_add_returns_range(self):
        lp = LinearProgram()
        r = lp.add_variables(3)
        assert list(r) == [0, 1, 2]
        assert lp.num_variables == 3

    def test_second_block_continues_indices(self):
        lp = LinearProgram()
        lp.add_variables(2)
        r = lp.add_variables(2)
        assert list(r) == [2, 3]

    def test_vector_bounds(self):
        lp = LinearProgram(maximize=True)
        lp.add_variables(2, lb=0.0, ub=[1.0, 2.0], objective=1.0)
        sol = lp.solve()
        assert sol.objective == pytest.approx(3.0)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            LinearProgram().add_variables(0)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            LinearProgram().add_variables(1, lb=2.0, ub=1.0)

    def test_set_bounds(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variables(1, ub=10.0, objective=1.0)
        lp.set_bounds(x[0], 0.0, 4.0)
        assert lp.solve().objective == pytest.approx(4.0)

    def test_set_bounds_bad_index(self):
        lp = LinearProgram()
        lp.add_variables(1)
        with pytest.raises(IndexError):
            lp.set_bounds(5, 0.0, 1.0)


class TestConstraints:
    def test_docstring_example(self):
        lp = LinearProgram(name="toy", maximize=True)
        x = lp.add_variables(2, lb=0.0, ub=4.0, objective=[1.0, 2.0])
        lp.add_le_constraint({x[0]: 1.0, x[1]: 1.0}, 5.0)
        assert lp.solve().objective == pytest.approx(9.0)

    def test_ge_constraint(self):
        lp = LinearProgram(maximize=False)
        x = lp.add_variables(1, objective=1.0)
        lp.add_ge_constraint({x[0]: 1.0}, 3.0)
        sol = lp.solve()
        assert sol.x[0] == pytest.approx(3.0)

    def test_eq_constraint(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variables(2, ub=10.0, objective=[1.0, 1.0])
        lp.add_eq_constraint({x[0]: 1.0, x[1]: 2.0}, 6.0)
        sol = lp.solve()
        assert sol.x[0] + 2 * sol.x[1] == pytest.approx(6.0)

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variables(1)
        with pytest.raises(IndexError, match="out of range"):
            lp.add_le_constraint({3: 1.0}, 1.0)

    def test_dense_rows(self):
        lp = LinearProgram(maximize=True)
        lp.add_variables(3, ub=5.0, objective=1.0)
        lp.add_dense_le_rows(np.eye(3) * 2.0, np.asarray([2.0, 4.0, 6.0]))
        sol = lp.solve()
        np.testing.assert_allclose(sol.x, [1.0, 2.0, 3.0])

    def test_dense_rows_shape_check(self):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(ValueError, match="width"):
            lp.add_dense_le_rows(np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValueError, match="mismatch"):
            lp.add_dense_le_rows(np.ones((2, 2)), np.ones(1))


class TestMatrices:
    def test_assembled_system(self):
        a_ub, b_ub, a_eq, b_eq = _mixed_lp().matrices()
        np.testing.assert_array_equal(a_ub.toarray(), [
            [1.0, 0.0, 0.0, 2.5],
            [0.5, -1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [3.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 2.0, 0.0],
            [1.0, 1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(b_ub, [6.0, 1.0, 4.0, 7.0, 5.0, 9.0])
        np.testing.assert_array_equal(a_eq.toarray(), [
            [0.0, 0.0, 1.0, -1.0],
            [1.0, 0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(b_eq, [0.5, 3.0])

    def test_sense_without_rows_is_none(self):
        lp = LinearProgram()
        lp.add_variables(2)
        lp.add_le_constraint({0: 1.0}, 1.0)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        assert a_ub.shape == (1, 2) and b_ub.tolist() == [1.0]
        assert a_eq is None and b_eq is None

    def test_nnz_counts_stored_triplets(self):
        # the explicit zero in the first dict row is never stored
        assert _mixed_lp().nnz == 2 + 2 + 2 + 4 + 4 + 2

    def test_rhs_is_copied_at_insertion(self):
        lp = LinearProgram()
        lp.add_variables(1)
        rhs = np.array([1.0])
        lp.add_dense_le_rows(np.ones((1, 1)), rhs)
        rhs[0] = 5.0
        assert lp.matrices()[1].tolist() == [1.0]

    def test_solve_observes_nnz(self):
        with obs.capture() as snap_fn:
            _mixed_lp().solve()
            snap = snap_fn()
        hist = snap["metrics"]["lp.nnz.mixed"]
        assert (hist["count"], hist["total"]) == (1, 16)
        (record,) = [r for r in snap["spans"] if r["name"] == "lp"]
        assert record["attrs"]["nnz"] == 16


class TestSolve:
    def test_infeasible_raises_with_name(self):
        lp = LinearProgram(name="broken")
        x = lp.add_variables(1, lb=0.0, ub=1.0)
        lp.add_ge_constraint({x[0]: 1.0}, 5.0)
        with pytest.raises(InfeasibleError, match="broken"):
            lp.solve()

    def test_infeasible_soft(self):
        lp = LinearProgram()
        x = lp.add_variables(1, lb=0.0, ub=1.0)
        lp.add_ge_constraint({x[0]: 1.0}, 5.0)
        sol = lp.solve(require_feasible=False)
        assert np.isnan(sol.objective)
        assert sol.status != 0

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="no variables"):
            LinearProgram().solve()

    def test_minimize_sense(self):
        lp = LinearProgram(maximize=False)
        lp.add_variables(1, lb=2.0, ub=8.0, objective=1.0)
        assert lp.solve().objective == pytest.approx(2.0)

    def test_transportation_problem(self):
        """2x2 transportation LP with a known optimum."""
        lp = LinearProgram(maximize=False)
        # costs: [[1, 3], [2, 1]]; supply [5, 5]; demand [5, 5]
        x = lp.add_variables(4, objective=[1.0, 3.0, 2.0, 1.0])
        lp.add_eq_constraint({x[0]: 1, x[1]: 1}, 5.0)
        lp.add_eq_constraint({x[2]: 1, x[3]: 1}, 5.0)
        lp.add_eq_constraint({x[0]: 1, x[2]: 1}, 5.0)
        lp.add_eq_constraint({x[1]: 1, x[3]: 1}, 5.0)
        assert lp.solve().objective == pytest.approx(10.0)


class TestWarmStart:
    def _lp(self, ub=2.0):
        from repro.optimize.linprog import LinearProgram

        lp = LinearProgram(maximize=True, name="warmtest")
        lp.add_variables(2, lb=0.0, ub=ub, objective=1.0)
        lp.add_le_constraint({0: 1.0, 1: 1.0}, 3.0)
        return lp

    def test_fingerprint_pinned_across_row_kinds(self):
        """Replay keys must not move when the triplet storage changes:
        this digest is the one the list-backed assembly produced."""
        assert _mixed_lp().fingerprint() == (
            "adb1da2a7a8356426be27bb53cf0f192ca640fa5bf5fdd847396f4538e2f250a")

    def test_fingerprint_stable_and_sensitive(self):
        assert self._lp().fingerprint() == self._lp().fingerprint()
        assert self._lp().fingerprint() != self._lp(ub=5.0).fingerprint()

    def test_replay_returns_stored_solution(self):
        from repro.optimize.linprog import LPWarmStart

        first = self._lp().solve()
        warm = LPWarmStart(fingerprint=self._lp().fingerprint(),
                           solution=first)
        again = self._lp().solve(warm_start=warm)
        assert again is first

    def test_mismatched_fingerprint_solves_cold(self):
        from repro.optimize.linprog import LPWarmStart

        first = self._lp().solve()
        warm = LPWarmStart(fingerprint="not-this-lp", solution=first)
        again = self._lp(ub=5.0).solve(warm_start=warm)
        assert again is not first
        assert again.objective == pytest.approx(3.0)

    def test_caller_fingerprint_short_circuits_hashing(self):
        from repro.optimize.linprog import LPWarmStart

        first = self._lp().solve()
        warm = LPWarmStart(fingerprint="cheap-key", solution=first)
        again = self._lp().solve(warm_start=warm, fingerprint="cheap-key")
        assert again is first

    def test_replay_counts_hit_metric(self):
        from repro import obs
        from repro.optimize.linprog import LPWarmStart

        first = self._lp().solve()
        warm = LPWarmStart(fingerprint="k", solution=first)
        obs.reset()
        obs.enable()
        try:
            self._lp().solve(warm_start=warm, fingerprint="k")
            self._lp().solve(warm_start=warm, fingerprint="other")
            snap = obs.current_registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snap["lp.warm_hits.warmtest"]["value"] == 1
        assert snap["lp.warm_misses.warmtest"]["value"] == 1
        # a replay never counts as a solve
        assert snap.get("lp.solves.warmtest", {"value": 1})["value"] == 1
