"""Tests for repro.optimize.linprog — the LP wrapper."""

import numpy as np
import pytest
from scipy import sparse

from repro import obs
from repro.optimize.linprog import (CooRows, InfeasibleError, LinearProgram,
                                    grouped_rows)
from tests.conftest import dict_rows


def _mixed_lp() -> LinearProgram:
    """One program built from every kind of row block: dict rows
    (including an explicit zero coefficient and a ``>=`` row stated
    negated), a dense block and sparse blocks."""
    lp = LinearProgram(name="mixed", maximize=True)
    x = lp.add_variables(4, lb=[0.0, 0.5, 0.0, 0.0], ub=[1.0, 1.5, 3.0, 4.0],
                         objective=[1.0, 0.5, -0.25, 2.0])
    lp.add_le_rows(*dict_rows([({x[0]: 1.0, x[2]: 0.0, x[3]: 2.5}, 6.0),
                               ({x[1]: -1.0, x[0]: 0.5}, 1.0)], 4))
    lp.add_eq_rows(*dict_rows([({x[2]: 1.0, x[3]: -1.0}, 0.5)], 4))
    lp.add_le_rows(np.array([[0.0, 1.0, 1.0, 0.0],
                             [3.0, 0.0, 0.0, 1.0]]), [4.0, 7.0])
    lp.add_le_rows(sparse.csr_matrix(np.array([[0.0, 0.0, 2.0, 0.0],
                                               [1.0, 1.0, 0.0, 1.0]])),
                   np.array([5.0, 9.0]))
    lp.add_eq_rows(sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 1.0]])),
                   [3.0])
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


class TestConstraints:
    def test_docstring_example(self):
        lp = LinearProgram(name="toy", maximize=True)
        x = lp.add_variables(2, lb=0.0, ub=4.0, objective=[1.0, 2.0])
        lp.add_le_rows([1.0, 1.0], 5.0)
        assert lp.solve().objective == pytest.approx(9.0)

    def test_ge_constraint(self):
        """A ``>=`` row is a negated ``<=`` row."""
        lp = LinearProgram(maximize=False)
        lp.add_variables(1, objective=1.0)
        lp.add_le_rows([-1.0], -3.0)
        sol = lp.solve()
        assert sol.x[0] == pytest.approx(3.0)

    def test_eq_constraint(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variables(2, ub=10.0, objective=[1.0, 1.0])
        lp.add_eq_rows([[1.0, 2.0]], 6.0)
        sol = lp.solve()
        assert sol.x[0] + 2 * sol.x[1] == pytest.approx(6.0)

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variables(1)
        with pytest.raises(ValueError, match="width"):
            lp.add_le_rows(*dict_rows([({3: 1.0}, 1.0)], 4))

    def test_dense_rows(self):
        lp = LinearProgram(maximize=True)
        lp.add_variables(3, ub=5.0, objective=1.0)
        lp.add_le_rows(np.eye(3) * 2.0, np.asarray([2.0, 4.0, 6.0]))
        sol = lp.solve()
        np.testing.assert_allclose(sol.x, [1.0, 2.0, 3.0])

    def test_dense_rows_shape_check(self):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(ValueError, match="width"):
            lp.add_le_rows(np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValueError, match="mismatch"):
            lp.add_le_rows(np.ones((2, 2)), np.ones(1))
        with pytest.raises(ValueError, match="width"):
            lp.add_eq_rows(sparse.csr_matrix(np.ones((1, 3))), np.ones(1))


    def test_grouped_rows(self):
        """One row per group that owns a variable, groups ascending, as
        triplets in row-major order."""
        groups, rows = grouped_rows(np.array([2, 0, 2]),
                                    np.array([1.0, 2.0, 3.0]))
        assert groups.tolist() == [0, 2]
        assert isinstance(rows, CooRows) and rows.shape == (2, 3)
        assert (rows.row.tolist(), rows.col.tolist()) == ([0, 1, 1], [1, 0, 2])
        dense = np.zeros(rows.shape)
        dense[rows.row, rows.col] = rows.data
        np.testing.assert_array_equal(dense, [[0.0, 2.0, 0.0],
                                              [1.0, 0.0, 3.0]])

    def test_coo_rows_sum_duplicates_and_drop_zeros(self):
        """Out-of-order triplets are sorted, a duplicate is summed, a
        zero is dropped, and ``nnz`` counts the entries after summing."""
        lp = LinearProgram()
        lp.add_variables(3)
        lp.add_le_rows(CooRows(np.array([1.0, 0.0, 2.0, 0.5, 4.0]),
                               np.array([1, 0, 1, 0, 1]),
                               np.array([2, 1, 2, 0, 0]), (2, 3)),
                       [1.0, 2.0])
        assert lp.nnz == 3
        a_ub = lp.matrices()[0]
        assert a_ub.indptr.tolist() == [0, 1, 3]
        assert a_ub.indices.tolist() == [0, 0, 2]
        assert a_ub.data.tolist() == [0.5, 4.0, 3.0]


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
        lp.add_le_rows([1.0, 0.0], 1.0)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        assert a_ub.shape == (1, 2) and b_ub.tolist() == [1.0]
        assert a_eq is None and b_eq is None

    def test_nnz_counts_stored_triplets(self):
        # the explicit zero in the first dict row is never stored, and
        # an all-zero row still counts as a row
        lp = _mixed_lp()
        lp.add_le_rows(np.zeros((1, 4)), [1.0])
        assert lp.nnz == 2 + 2 + 2 + 4 + 4 + 2
        assert lp.num_constraints == 6 + 2 + 1

    def test_rhs_is_copied_at_insertion(self):
        lp = LinearProgram()
        lp.add_variables(1)
        rhs = np.array([1.0])
        lp.add_le_rows(np.ones((1, 1)), rhs)
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
        lp.add_variables(1, lb=0.0, ub=1.0)
        lp.add_le_rows([-1.0], -5.0)
        with pytest.raises(InfeasibleError, match="broken"):
            lp.solve()

    def test_infeasible_soft(self):
        lp = LinearProgram()
        lp.add_variables(1, lb=0.0, ub=1.0)
        lp.add_le_rows([-1.0], -5.0)
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
        lp.add_eq_rows(*dict_rows([({x[0]: 1, x[1]: 1}, 5.0),
                                   ({x[2]: 1, x[3]: 1}, 5.0),
                                   ({x[0]: 1, x[2]: 1}, 5.0),
                                   ({x[1]: 1, x[3]: 1}, 5.0)], 4))
        assert lp.solve().objective == pytest.approx(10.0)


class TestInputChecks:
    """A non-finite objective, coefficient or rhs is refused before
    HiGHS sees the model, with the LP's name in the message."""

    @staticmethod
    def _lp(**bad) -> LinearProgram:
        lp = LinearProgram(name="checked")
        lp.add_variables(2, ub=4.0,
                         objective=bad.get("objective", [1.0, -1.0]))
        lp.add_le_rows(bad.get("le", [1.0, 1.0]), bad.get("le_rhs", 3.0))
        lp.add_eq_rows(bad.get("eq", np.array([[1.0, -1.0]])),
                       bad.get("eq_rhs", 0.5))
        return lp

    def test_finite_program_solves(self):
        assert self._lp().solve().status == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, build", [
        ("objective", lambda v: {"objective": [1.0, v]}),
        ("<= coefficients", lambda v: {"le": [v, 1.0]}),
        ("<= coefficients",
         lambda v: {"le": sparse.csr_matrix(np.array([[1.0, v]]))}),
        ("<= right-hand sides", lambda v: {"le_rhs": v}),
        ("== coefficients", lambda v: {"eq": np.array([[v, 1.0]])}),
        ("== coefficients",
         lambda v: {"eq": sparse.csr_matrix(np.array([[v, 1.0]]))}),
        ("== right-hand sides", lambda v: {"eq_rhs": v}),
    ])
    def test_non_finite_input_rejected(self, where, build, value):
        lp = self._lp(**build(value))
        with pytest.raises(ValueError, match=f"LP 'checked': {where}"):
            lp.solve()
        with pytest.raises(ValueError, match="inf or nan"):
            lp.solve(require_feasible=False)

    def test_nan_bound_is_no_bound(self):
        """As linprog reads bounds: a NaN lower bound is -inf."""
        lp = LinearProgram()
        lp.add_variables(1, lb=np.nan, ub=5.0, objective=1.0)
        lp.add_le_rows([-1.0], 3.0)
        assert lp.solve().x.tolist() == [-3.0]


class TestPostSolveCheck:
    """linprog's check of the returned vertex, tolerance sqrt(1e-9)*10."""

    ARGS = dict(n_ub=1, lb=np.zeros(2), ub=np.ones(2))

    def test_vertex_within_tolerance_passes(self):
        assert LinearProgram._feasible(np.array([1.0 + 1e-5, 0.0]), 1.0,
                                       np.array([-1e-5, 1e-5]), **self.ARGS)

    @pytest.mark.parametrize("x, obj, slack", [
        ([1.01, 0.0], 1.0, [0.0, 0.0]),           # upper bound
        ([0.0, -0.01], 1.0, [0.0, 0.0]),          # lower bound
        ([0.5, 0.5], 1.0, [-0.01, 0.0]),          # <= slack
        ([0.5, 0.5], 1.0, [0.0, 0.01]),           # == residual
        ([0.5, 0.5], 1.0, [0.0, -0.01]),          # == residual
        ([0.5, np.nan], 1.0, [0.0, 0.0]),
        ([0.5, 0.5], np.nan, [0.0, 0.0]),
        ([0.5, 0.5], 1.0, [np.nan, 0.0]),
    ])
    def test_violation_fails(self, x, obj, slack):
        assert not LinearProgram._feasible(np.array(x), obj, np.array(slack),
                                           **self.ARGS)

    def test_failed_check_is_status_4(self, monkeypatch):
        from repro.optimize import linprog

        monkeypatch.setattr(linprog, "_FEASIBILITY_TOL", -1.0)
        lp = LinearProgram(name="checked", maximize=True)
        lp.add_variables(1, ub=2.0, objective=1.0)
        with pytest.raises(InfeasibleError, match=r"checked.*\(status 4\)"):
            lp.solve()
        sol = lp.solve(require_feasible=False)
        assert sol.status == 4 and np.isnan(sol.objective)


class TestLoadedProgram:
    """A program loaded once and re-solved in place after edits."""

    def _lp(self, rhs=(4.0, 6.0), power=(1.0, 2.0, 1.0)) -> LinearProgram:
        lp = LinearProgram(name="toy", maximize=True)
        lp.add_variables(3, lb=0.0, ub=[2.0, 3.0, 4.0],
                         objective=[3.0, 2.0, 1.0])
        lp.add_le_rows([[1.0, 1.0, 0.0]], rhs[0])
        lp.add_le_rows([list(power)], rhs[1])
        return lp

    def test_first_solve_is_the_cold_objective(self):
        assert self._lp().load().objective() == self._lp().solve().objective

    def test_edits_solve_the_edited_program(self):
        loaded = self._lp().load()
        loaded.objective()
        for rhs, power in (((3.0, 9.0), (2.0, 1.0, 1.0)),
                           ((5.0, 5.0), (1.0, 1.0, 0.5))):
            loaded.set_upper(np.asarray(rhs))
            loaded.set_row(1, np.asarray(power))
            assert loaded.objective() == pytest.approx(
                self._lp(rhs, power).solve().objective, rel=1e-12)

    def test_infeasible_edit_reports_none(self):
        loaded = self._lp().load()
        loaded.set_upper(np.asarray([-1.0, 6.0]))
        assert loaded.objective() is None

    def test_rhs_count_is_checked(self):
        with pytest.raises(ValueError, match="right-hand sides"):
            self._lp().load().set_upper(np.asarray([1.0]))

    def test_warm_solves_count_apart_from_cold(self):
        loaded = self._lp().load()
        with obs.capture() as snapshot:
            loaded.objective()
            loaded.objective()
        metrics = snapshot()["metrics"]
        assert metrics["lp.warm_solves.toy"]["value"] == 2
        assert "lp.solves.toy" not in metrics
