"""Linear programs solved by HiGHS through scipy's bundled binding.

All linear programs in the library are built as sparse inequality /
equality systems and solved with the HiGHS dual simplex, which is exact
enough for the small-to-medium LPs produced after the aggregation
described in DESIGN.md section 3.1.

The wrapper exists so that

* every LP in the code base states its intent (maximize vs minimize)
  explicitly,
* infeasibility is reported with the model name attached, and
* constraint matrices are assembled as row blocks — a dense array, a
  :class:`CooRows` triplet block or a scipy sparse matrix per call,
  :meth:`LinearProgram.add_le_rows` for ``<=`` and
  :meth:`LinearProgram.add_eq_rows` for ``==`` — without each call site
  repeating the assembly boilerplate.

Constraint data is held in CSR form as plain numpy arrays, one block per
call (nonzeros per row, column indices, values; duplicates summed, zeros
dropped), one list per sense, and joined once per solve; a master LP
with hundreds of thousands of nonzeros costs 12 bytes per nonzero.
HiGHS receives the rows row-wise and builds from them the column-wise
matrix ``linprog`` would hand it, so no LP needs ``scipy.sparse``
(~15 MB of peak RSS and ~0.2 s of start-up per process, which dense
rooms never pay); :meth:`LinearProgram.matrices` imports it when called.

:meth:`LinearProgram.solve` hands the model to HiGHS through
``scipy.optimize._highspy._core`` with the options
``scipy.optimize.linprog(method="highs")`` passes (presolve on, dual
simplex, no output), so HiGHS sees the model ``linprog`` would give it
and returns the same vertex.  It keeps ``linprog``'s input checks, its
status codes and its post-solve feasibility check, but makes none of
``linprog``'s copies of the constraint matrix and fetches no basis or
bound marginals.

``_core`` is loaded from scipy's ``optimize/_highspy`` directory by
itself (:func:`_load_extension`) rather than imported: importing it
runs ``scipy/optimize/__init__.py``, which loads ``scipy.linalg``,
``scipy.special``, ``scipy.fft`` and ``scipy.spatial``, none of which
the library calls, at ~24 MB of peak RSS and ~0.3 s of start-up per
process.  The module is registered in ``sys.modules`` under
its full name, so a later ``import scipy.optimize`` reuses the same
object.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from types import ModuleType
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

import numpy as np
import scipy

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["LinearProgram", "LoadedProgram", "LPSolution", "InfeasibleError",
           "CooRows", "grouped_rows", "issparse"]

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_extension(name: str, directory: str) -> ModuleType:
    """scipy's extension module ``name``, loaded from ``directory`` by
    itself, without running the ``__init__.py`` of its packages.

    The module is registered in ``sys.modules`` under its full name, so
    a later import of its package reuses this module object; an entry
    already there is returned as is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"{name} not found in {directory}; the library "
                          "needs scipy>=1.15", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


highs = _load_extension(
    _HIGHS_CORE, os.path.join(scipy.__path__[0], "optimize", "_highspy"))


class InfeasibleError(RuntimeError):
    """Raised when an LP that is expected to be feasible is not."""


@dataclass
class LPSolution:
    """Result of an LP solve.

    Attributes
    ----------
    x:
        Optimal variable vector.
    objective:
        Optimal objective value *in the caller's sense* (i.e. already
        negated back for maximization problems).
    status:
        Status code (0 = optimal, 1 = iteration/time limit,
        2 = infeasible, 3 = unbounded, 4 = numerical trouble), as
        :func:`scipy.optimize.linprog` numbers them.
    """

    x: np.ndarray
    objective: float
    status: int


def issparse(x: Any) -> bool:
    """``scipy.sparse.issparse(x)`` without importing ``scipy.sparse``:
    no sparse matrix can exist before that module is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


class CooRows(NamedTuple):
    """A row block as ``(data, row, col)`` triplets of a ``shape`` matrix.

    :meth:`LinearProgram.add_le_rows` takes it as it takes a scipy
    sparse matrix (through :meth:`tocoo`): zeros are dropped and
    duplicates summed.  Triplets already in row-major order are stored
    without a sort.
    """

    data: np.ndarray
    row: np.ndarray
    col: np.ndarray
    shape: tuple[int, int]

    def tocoo(self) -> "CooRows":
        return self


def grouped_rows(group_of_var: np.ndarray, vals: np.ndarray
                 ) -> tuple[np.ndarray, CooRows]:
    """One row per group that owns a variable: ``(groups, rows)``.

    Variable ``v`` (column ``v``; every variable of the program belongs
    to a group) enters the row of group ``group_of_var[v]`` with
    coefficient ``vals[v]``; ``groups`` lists the groups in ascending
    order, one per row, so a group without variables gets no row.  The
    triplets are in row-major order.
    """
    groups, row = np.unique(group_of_var, return_inverse=True)
    col = np.argsort(row, kind="stable")
    return groups, CooRows(np.asarray(vals, dtype=float)[col], row[col], col,
                           (groups.size, row.size))


_STATUS = highs.HighsModelStatus
#: HiGHS model status -> ``(status code, message)`` as ``linprog`` maps them
_STATUS_CODES = {
    _STATUS.kOptimal: (0, "Optimization terminated successfully. "),
    _STATUS.kTimeLimit: (1, "Time limit reached. "),
    _STATUS.kIterationLimit: (1, "Iteration limit reached. "),
    _STATUS.kInfeasible: (2, "The problem is infeasible. "),
    _STATUS.kUnbounded: (3, "The problem is unbounded. "),
    _STATUS.kUnboundedOrInfeasible: (
        4, "The problem is unbounded or infeasible. "),
    _STATUS.kModelError: (2, ""),
    **{s: (4, "") for s in (
        _STATUS.kNotset, _STATUS.kLoadError, _STATUS.kPresolveError,
        _STATUS.kSolveError, _STATUS.kPostsolveError, _STATUS.kModelEmpty,
        _STATUS.kObjectiveBound, _STATUS.kObjectiveTarget)},
}

#: post-solve tolerance on bounds, slacks and residuals (``linprog``'s)
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


def _highs_options() -> highs.HighsOptions:
    """The options ``linprog(method="highs")`` passes; the rest default."""
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = (
        highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


_OPTIONS = _highs_options()


#: ``(counts, indices, values, rhs)`` of a sense without rows
_NO_ROWS = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32),
            np.empty(0), np.empty(0))


class _Rows:
    """The ``<=`` (or ``==``) rows of a program in CSR form.

    Each block is ``(counts, indices, values, rhs)``: the nonzeros of
    each row (int32), their column indices (int32), in row-major order,
    and their values.  Column indices never depend on the program's
    width, so a block stays valid as variables are added.
    :meth:`arrays` concatenates the blocks once and keeps the result as
    the single block, so repeated solves of a growing program (the
    zonal master LP's cut rounds) re-concatenate only what was added.
    """

    def __init__(self) -> None:
        self.blocks: list[tuple[np.ndarray, ...]] = []
        self.n_rows = 0
        self.nnz = 0

    def append(self, counts: np.ndarray, indices: np.ndarray,
               values: np.ndarray, rhs: np.ndarray) -> None:
        self.blocks.append((counts, indices, values, rhs))
        self.n_rows += rhs.size
        self.nnz += values.size

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(counts, indices, values, rhs)`` of every block."""
        if len(self.blocks) > 1:
            self.blocks = [tuple(np.concatenate(parts)
                                 for parts in zip(*self.blocks))]
        return self.blocks[0] if self.blocks else _NO_ROWS

    def matrix(self, n_cols: int
               ) -> tuple["sparse.csr_matrix | None", "np.ndarray | None"]:
        """``(A, b)`` of every block, or ``(None, None)`` without rows."""
        if not self.n_rows:
            return None, None
        from scipy import sparse

        counts, indices, values, rhs = self.arrays()
        indptr = np.zeros(counts.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        return (sparse.csr_matrix((values, indices, indptr),
                                  shape=(counts.size, n_cols)),
                rhs.copy())


@dataclass
class LinearProgram:
    """Incrementally assembled linear program.

    Variables are identified by integer index; the caller allocates them
    with :meth:`add_variables` which returns the index range.

    Example
    -------
    >>> lp = LinearProgram(name="toy", maximize=True)
    >>> x = lp.add_variables(2, lb=0.0, ub=4.0, objective=[1.0, 2.0])
    >>> lp.add_le_rows([1.0, 1.0], 5.0)
    >>> sol = lp.solve()
    >>> float(sol.objective)
    9.0
    """

    name: str = "lp"
    maximize: bool = False
    _num_vars: int = field(default=0, init=False)
    _obj: list[float] = field(default_factory=list, init=False)
    _lb: list[float] = field(default_factory=list, init=False)
    _ub: list[float] = field(default_factory=list, init=False)
    _le: _Rows = field(default_factory=_Rows, init=False)
    _eq: _Rows = field(default_factory=_Rows, init=False)

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        return self._le.n_rows + self._eq.n_rows

    @property
    def nnz(self) -> int:
        """Stored constraint nonzeros, after duplicates are summed."""
        return self._le.nnz + self._eq.nnz

    def add_variables(self, n: int, lb: float | Sequence[float] = 0.0,
                      ub: float | Sequence[float] = np.inf,
                      objective: float | Sequence[float] = 0.0) -> range:
        """Allocate ``n`` new variables, returning their index range."""
        if n <= 0:
            raise ValueError(f"variable count must be positive, got {n}")
        lb_arr = np.broadcast_to(np.asarray(lb, dtype=float), (n,))
        ub_arr = np.broadcast_to(np.asarray(ub, dtype=float), (n,))
        obj_arr = np.broadcast_to(np.asarray(objective, dtype=float), (n,))
        if np.any(lb_arr > ub_arr):
            raise ValueError("lower bound exceeds upper bound")
        start = self._num_vars
        self._num_vars += n
        self._lb.extend(lb_arr.tolist())
        self._ub.extend(ub_arr.tolist())
        self._obj.extend(obj_arr.tolist())
        return range(start, start + n)

    def add_le_rows(self, rows: "np.ndarray | CooRows | sparse.spmatrix",
                    rhs: float | Sequence[float] | np.ndarray) -> None:
        """Add ``rows @ x <= rhs``.

        ``rows`` is a dense array (one row may be 1-D) or anything with
        a ``tocoo()`` (a :class:`CooRows` block or a scipy sparse
        matrix), with one column per variable; zero coefficients are
        dropped, duplicates summed, and a row left empty still counts
        as a row.  A ``>=`` row is added negated.
        """
        self._add_rows(self._le, rows, rhs)

    def add_eq_rows(self, rows: "np.ndarray | CooRows | sparse.spmatrix",
                    rhs: float | Sequence[float] | np.ndarray) -> None:
        """Add ``rows @ x == rhs``; ``rows`` as in :meth:`add_le_rows`."""
        self._add_rows(self._eq, rows, rhs)

    def _add_rows(self, target: _Rows,
                  rows: "np.ndarray | CooRows | sparse.spmatrix",
                  rhs: float | Sequence[float] | np.ndarray) -> None:
        if hasattr(rows, "tocoo"):
            rows = rows.tocoo()
        else:
            rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.array(rhs, dtype=float, ndmin=1)
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if rows.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {rows.shape[1]} != variable count {self._num_vars}")
        if isinstance(rows, np.ndarray):
            # np.nonzero walks the block in row-major order
            r, c = np.nonzero(rows)
            v = rows[r, c]
        else:
            keep = rows.data != 0.0
            r, c = rows.row[keep], rows.col[keep]
            v = np.asarray(rows.data[keep], dtype=float)
            key = r.astype(np.int64) * rows.shape[1] + c
            if (key[1:] < key[:-1]).any():
                order = np.argsort(key, kind="stable")
                r, c, v, key = r[order], c[order], v[order], key[order]
            first = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                # sum duplicates sequentially, in input order
                v = np.bincount(np.cumsum(first) - 1, weights=v)
                r, c = r[first], c[first]
        target.append(np.bincount(r, minlength=rows.shape[0]).astype(np.int32),
                      c.astype(np.int32), v, rhs)

    # ------------------------------------------------------------------
    def matrices(self) -> tuple["sparse.csr_matrix | None",
                                "np.ndarray | None",
                                "sparse.csr_matrix | None",
                                "np.ndarray | None"]:
        """The assembled constraints as ``(A_ub, b_ub, A_eq, b_eq)``.

        ``A_ub``/``A_eq`` are CSR with one column per variable, and
        duplicate entries are summed; a sense without rows gives
        ``None`` for both its matrix and its rhs.  The matrices share
        the program's own storage and must not be modified.  Imports
        ``scipy.sparse``.
        """
        n = self._num_vars
        return (*self._le.matrix(n), *self._eq.matrix(n))

    def solve(self, *, require_feasible: bool = True) -> LPSolution:
        """Solve with HiGHS and return an :class:`LPSolution`.

        Raises
        ------
        InfeasibleError
            If the LP is infeasible/unbounded and ``require_feasible``.
        ValueError
            If the objective, a constraint coefficient or a right-hand
            side is not finite.
        """
        if self._num_vars == 0:
            raise ValueError(f"LP '{self.name}' has no variables")
        with obs_span("lp", lp=self.name, vars=self._num_vars,
                      constraints=self.num_constraints, nnz=self.nnz):
            return self._solve(require_feasible)

    def load(self) -> "LoadedProgram":
        """The program loaded into HiGHS, to be edited and re-solved in
        place (see :class:`LoadedProgram`).

        Raises ``ValueError`` as :meth:`solve` does, and when HiGHS
        rejects the model.
        """
        if self._num_vars == 0:
            raise ValueError(f"LP '{self.name}' has no variables")
        model, *_ = self._model()
        solver = highs._Highs()
        solver.passOptions(_OPTIONS)
        if solver.passModel(model) == highs.HighsStatus.kError:
            raise ValueError(f"LP '{self.name}': HiGHS rejected the model")
        return LoadedProgram(solver, name=self.name, maximize=self.maximize,
                             n_le=self._le.n_rows,
                             attrs=dict(vars=self._num_vars,
                                        constraints=self.num_constraints,
                                        nnz=self.nnz))

    def _model(self) -> tuple["highs.HighsLp", np.ndarray, int, np.ndarray,
                              np.ndarray]:
        """``(model, rhs, n_le, lb, ub)``: the program as HiGHS's model,
        its right-hand sides (``<=`` rows first) and its bounds."""
        n = self._num_vars
        c = np.asarray(self._obj, dtype=float)
        if self.maximize:
            c = -c
        le_counts, le_index, le_value, b_ub = self._le.arrays()
        eq_counts, eq_index, eq_value, b_eq = self._eq.arrays()
        for what, values in (("objective", c),
                             ("<= coefficients", le_value),
                             ("<= right-hand sides", b_ub),
                             ("== coefficients", eq_value),
                             ("== right-hand sides", b_eq)):
            if not np.isfinite(values).all():
                raise ValueError(
                    f"LP '{self.name}': {what} must not contain inf or nan")
        # a NaN bound means "no bound", as linprog reads it
        lb = np.asarray(self._lb, dtype=float)
        ub = np.asarray(self._ub, dtype=float)
        lb[np.isnan(lb)] = -np.inf
        ub[np.isnan(ub)] = np.inf
        rhs = np.concatenate((b_ub, b_eq))

        # row-wise CSR; HiGHS makes the column-wise copy it solves on
        start = np.zeros(rhs.size + 1, dtype=np.int32)
        np.cumsum(np.concatenate((le_counts, eq_counts)), out=start[1:])
        model = highs.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = n
        model.num_row_ = model.a_matrix_.num_row_ = rhs.size
        model.a_matrix_.format_ = highs.MatrixFormat.kRowwise
        model.a_matrix_.start_ = start
        model.a_matrix_.index_ = np.concatenate((le_index, eq_index))
        model.a_matrix_.value_ = np.concatenate((le_value, eq_value))
        model.col_cost_ = c
        model.col_lower_ = lb
        model.col_upper_ = ub
        model.row_lower_ = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
        model.row_upper_ = rhs
        return model, rhs, b_ub.size, lb, ub

    def _solve(self, require_feasible: bool) -> LPSolution:
        obs_metrics.counter(f"lp.solves.{self.name}").inc()
        obs_metrics.histogram(f"lp.vars.{self.name}").observe(self._num_vars)
        obs_metrics.histogram(
            f"lp.constraints.{self.name}").observe(self.num_constraints)
        obs_metrics.histogram(f"lp.nnz.{self.name}").observe(self.nnz)
        n = self._num_vars
        model, rhs, n_le, lb, ub = self._model()
        solver = highs._Highs()
        solver.passOptions(_OPTIONS)
        loaded = solver.passModel(model) != highs.HighsStatus.kError
        del model  # so is the solver
        ran = loaded and solver.run() != highs.HighsStatus.kError
        model_status = (solver.getModelStatus() if loaded
                        else _STATUS.kModelError)
        detail = solver.modelStatusToString(model_status)
        x = obj = None
        if ran and model_status == _STATUS.kOptimal:
            solution = solver.getSolution()
            x = np.array(solution.col_value)
            row_value = np.array(solution.row_value)
            obj = solver.getInfo().objective_function_value
        elif ran:
            detail = (f"model_status is {detail}; primal_status is "
                      + solver.solutionStatusToString(
                          solver.getInfo().primal_solution_status))
        status, message = _STATUS_CODES.get(
            model_status, (4, "The HiGHS status code was not recognized. "))
        message = f"{message}(HiGHS Status {int(model_status)}: {detail})"
        if x is not None and not self._feasible(x, obj, rhs - row_value,
                                                n_le, lb, ub):
            status = 4
            message = (f"The solution does not satisfy the constraints "
                       f"within the required tolerance of "
                       f"{_FEASIBILITY_TOL:.2E}.")
        if status != 0:
            obs_metrics.counter(f"lp.infeasible.{self.name}").inc()
            if require_feasible:
                raise InfeasibleError(
                    f"LP '{self.name}' failed: {message} (status {status})")
            return LPSolution(x=np.full(n, np.nan), objective=np.nan,
                              status=status)
        obj = float(obj)
        if self.maximize:
            obj = -obj
        return LPSolution(x=x, objective=obj, status=status)

    @staticmethod
    def _feasible(x: np.ndarray, obj: float, slack: np.ndarray, n_ub: int,
                  lb: np.ndarray, ub: np.ndarray) -> bool:
        """``linprog``'s check: bounds, ``<=`` slacks and ``==`` residuals
        hold within :data:`_FEASIBILITY_TOL`."""
        if np.isnan(x).any() or np.isnan(obj) or np.isnan(slack).any():
            return False
        tol = _FEASIBILITY_TOL
        return bool(np.all(x >= lb - tol) and np.all(x <= ub + tol)
                    and not (slack[:n_ub] < -tol).any()
                    and not (np.abs(slack[n_ub:]) > tol).any())


class LoadedProgram:
    """A linear program kept loaded in HiGHS and re-solved in place.

    :meth:`LinearProgram.load` builds it.  The first :meth:`objective`
    call solves the program as :meth:`LinearProgram.solve` would; each
    later call starts from the basis the previous one left, and HiGHS
    skips presolve when it holds a basis, so a chain of programs that
    differ in a few right-hand sides and coefficients costs a fraction
    of solving each cold.  A warm solve can stop at another vertex of a
    degenerate optimum than the cold one, and its objective agrees with
    the cold one only within the solver's tolerances, so it reports the
    objective alone: a screening score, never a vertex.

    Each solve runs in an ``lp`` span named after the program and
    counts in ``lp.warm_solves.<name>``, apart from the cold
    ``lp.solves.<name>``.
    """

    def __init__(self, solver: "highs._Highs", *, name: str,
                 maximize: bool, n_le: int, attrs: dict[str, int]):
        self._solver = solver
        self.name = name
        self._sign = -1.0 if maximize else 1.0
        self._n_le = n_le
        self._attrs = attrs

    def set_upper(self, rhs: np.ndarray) -> None:
        """Set the right-hand side of every ``<=`` row."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self._n_le,):
            raise ValueError(f"expected {self._n_le} right-hand sides, "
                             f"got {rhs.shape}")
        change = self._solver.changeRowBounds
        for row, upper in enumerate(rhs.tolist()):
            change(row, -np.inf, upper)

    def set_row(self, row: int, values: np.ndarray) -> None:
        """Set row ``row``'s coefficient of every variable, in order."""
        change = self._solver.changeCoeff
        for col, value in enumerate(np.asarray(values, dtype=float).tolist()):
            change(row, col, value)

    def objective(self) -> float | None:
        """Re-solve; the optimal objective in the caller's sense, or
        ``None`` when HiGHS reports anything but optimal."""
        with obs_span("lp", lp=self.name, warm=True, **self._attrs):
            obs_metrics.counter(f"lp.warm_solves.{self.name}").inc()
            solver = self._solver
            if solver.run() == highs.HighsStatus.kError \
                    or solver.getModelStatus() != _STATUS.kOptimal:
                return None
            return self._sign * solver.getInfo().objective_function_value
