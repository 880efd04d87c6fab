"""Linear programs solved by HiGHS through scipy's bundled binding.

All linear programs in the library are built as sparse inequality /
equality systems and solved with the HiGHS dual simplex, which is exact
enough for the small-to-medium LPs produced after the aggregation
described in DESIGN.md section 3.1.

The wrapper exists so that

* every LP in the code base states its intent (maximize vs minimize)
  explicitly,
* infeasibility is reported with the model name attached, and
* constraint matrices are assembled as row blocks — a dense array or a
  scipy sparse matrix per call, :meth:`LinearProgram.add_le_rows` for
  ``<=`` and :meth:`LinearProgram.add_eq_rows` for ``==`` — without
  each call site repeating the scipy boilerplate.

Constraint data is held as one CSR block per call (duplicates summed,
zeros dropped), one list per sense, and stacked once per
:meth:`LinearProgram.matrices`; a master LP with hundreds of thousands
of nonzeros costs 12 bytes per nonzero.

:meth:`LinearProgram.solve` hands the model to HiGHS through
``scipy.optimize._highspy._core`` with the options
``scipy.optimize.linprog(method="highs")`` passes (presolve on, dual
simplex, no output), so HiGHS sees the model ``linprog`` would give it
and returns the same vertex.  It keeps ``linprog``'s input checks, its
status codes and its post-solve feasibility check, but makes none of
``linprog``'s copies of the constraint matrix and fetches no basis or
bound marginals.

``_core`` is loaded from scipy's ``optimize/_highspy`` directory by
itself (:func:`_load_highs_core`) rather than imported: importing it
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
from typing import Sequence

import numpy as np
import scipy
from scipy import sparse

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span

__all__ = ["LinearProgram", "LPSolution", "InfeasibleError", "grouped_rows"]

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core(directory: str) -> ModuleType:
    """scipy's HiGHS extension, loaded from ``directory`` by itself.

    The module is registered in ``sys.modules`` under its full name, so
    a later ``import scipy.optimize`` reuses this module object; an
    entry already there is returned as is.
    """
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_CORE, [directory])
    if spec is None:
        raise ImportError(f"{_HIGHS_CORE} not found in {directory}; the "
                          "LP solver needs scipy>=1.15", name=_HIGHS_CORE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS_CORE] = module
    return module


highs = _load_highs_core(
    os.path.join(scipy.__path__[0], "optimize", "_highspy"))


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


def grouped_rows(group_of_var: np.ndarray, vals: np.ndarray
                 ) -> tuple[np.ndarray, sparse.csr_matrix]:
    """One row per group that owns a variable: ``(groups, rows)``.

    Variable ``v`` (column ``v``; every variable of the program belongs
    to a group) enters the row of group ``group_of_var[v]`` with
    coefficient ``vals[v]``; ``groups`` lists the groups in ascending
    order, one per row, so a group without variables gets no row.
    """
    groups, row = np.unique(group_of_var, return_inverse=True)
    n_vars = len(group_of_var)
    return groups, sparse.csr_matrix((vals, (row, np.arange(n_vars))),
                                     shape=(groups.size, n_vars))


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


class _Rows:
    """The ``<=`` (or ``==``) rows of a program as CSR blocks.

    Each block is stored with the program's width when it was added;
    :meth:`matrix` stacks them once at the current width and keeps the
    result as the single block, so repeated solves of a growing program
    (the zonal master LP's cut rounds) re-stack only what was added.
    """

    def __init__(self) -> None:
        self.blocks: list[sparse.csr_matrix] = []
        self.rhs: list[np.ndarray] = []
        self.n_rows = 0
        self.nnz = 0

    def append(self, block: sparse.csr_matrix, rhs: np.ndarray) -> None:
        self.blocks.append(block)
        self.rhs.append(rhs)
        self.n_rows += rhs.size
        self.nnz += block.nnz

    def matrix(self, n_cols: int
               ) -> tuple["sparse.csr_matrix | None", "np.ndarray | None"]:
        """``(A, b)`` of every block, or ``(None, None)`` without rows."""
        if not self.n_rows:
            return None, None
        # widening a CSR block only changes its shape, not its arrays
        blocks = [b if b.shape[1] == n_cols else
                  sparse.csr_matrix((b.data, b.indices, b.indptr),
                                    shape=(b.shape[0], n_cols))
                  for b in self.blocks]
        self.blocks = [blocks[0] if len(blocks) == 1 else
                       sparse.vstack(blocks, format="csr")]
        if len(self.rhs) > 1:
            self.rhs = [np.concatenate(self.rhs)]
        return self.blocks[0], self.rhs[0].copy()


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

    def add_le_rows(self, rows: "np.ndarray | sparse.spmatrix",
                    rhs: float | Sequence[float] | np.ndarray) -> None:
        """Add ``rows @ x <= rhs``.

        ``rows`` is a dense array (one row may be 1-D) or a scipy sparse
        matrix with one column per variable; zero coefficients are
        dropped, and a row left empty still counts as a row.  A ``>=``
        row is added negated.
        """
        self._add_rows(self._le, rows, rhs)

    def add_eq_rows(self, rows: "np.ndarray | sparse.spmatrix",
                    rhs: float | Sequence[float] | np.ndarray) -> None:
        """Add ``rows @ x == rhs``; ``rows`` as in :meth:`add_le_rows`."""
        self._add_rows(self._eq, rows, rhs)

    def _add_rows(self, target: _Rows, rows: "np.ndarray | sparse.spmatrix",
                  rhs: float | Sequence[float] | np.ndarray) -> None:
        if sparse.issparse(rows):
            coo = rows.tocoo()
            keep = coo.data != 0.0
            r, c, v = coo.row[keep], coo.col[keep], coo.data[keep]
        else:
            # no COO detour: a dense block's triplets are allocated once
            rows = np.atleast_2d(np.asarray(rows, dtype=float))
            r, c = np.nonzero(rows)
            v = rows[r, c]
        rhs = np.array(rhs, dtype=float, ndmin=1)
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if rows.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {rows.shape[1]} != variable count {self._num_vars}")
        # the COO -> CSR conversion sums duplicates within each row
        target.append(sparse.csr_matrix((np.asarray(v, dtype=float), (r, c)),
                                        shape=rows.shape), rhs)

    # ------------------------------------------------------------------
    def matrices(self) -> tuple["sparse.csr_matrix | None",
                                "np.ndarray | None",
                                "sparse.csr_matrix | None",
                                "np.ndarray | None"]:
        """The assembled constraints as ``(A_ub, b_ub, A_eq, b_eq)``.

        ``A_ub``/``A_eq`` are CSR with one column per variable, and
        duplicate entries are summed; a sense without rows gives
        ``None`` for both its matrix and its rhs.  The matrices are the
        program's own storage and must not be modified.
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

    def _solve(self, require_feasible: bool) -> LPSolution:
        obs_metrics.counter(f"lp.solves.{self.name}").inc()
        obs_metrics.histogram(f"lp.vars.{self.name}").observe(self._num_vars)
        obs_metrics.histogram(
            f"lp.constraints.{self.name}").observe(self.num_constraints)
        obs_metrics.histogram(f"lp.nnz.{self.name}").observe(self.nnz)
        n = self._num_vars
        c = np.asarray(self._obj, dtype=float)
        if self.maximize:
            c = -c
        a_ub, b_ub, a_eq, b_eq = self.matrices()
        for what, values in (("objective", c),
                             ("<= coefficients", None if a_ub is None
                              else a_ub.data),
                             ("<= right-hand sides", b_ub),
                             ("== coefficients", None if a_eq is None
                              else a_eq.data),
                             ("== right-hand sides", b_eq)):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(
                    f"LP '{self.name}': {what} must not contain inf or nan")
        b_ub = np.empty(0) if b_ub is None else b_ub
        b_eq = np.empty(0) if b_eq is None else b_eq
        # a NaN bound means "no bound", as linprog reads it
        lb = np.asarray(self._lb, dtype=float)
        ub = np.asarray(self._ub, dtype=float)
        lb[np.isnan(lb)] = -np.inf
        ub[np.isnan(ub)] = np.inf
        rhs = np.concatenate((b_ub, b_eq))

        blocks = [a for a in (a_ub, a_eq) if a is not None]
        if not blocks:
            a = sparse.csc_matrix((0, n))
        elif len(blocks) == 1:
            a = blocks[0].tocsc()
        else:
            a = sparse.vstack(blocks, format="csc")
        model = highs.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = n
        model.num_row_ = model.a_matrix_.num_row_ = rhs.size
        model.a_matrix_.format_ = highs.MatrixFormat.kColwise
        model.a_matrix_.start_ = a.indptr
        model.a_matrix_.index_ = a.indices
        model.a_matrix_.value_ = a.data
        del a  # HighsLp holds its own copy
        model.col_cost_ = c
        model.col_lower_ = lb
        model.col_upper_ = ub
        model.row_lower_ = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
        model.row_upper_ = rhs
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
                                                b_ub.size, lb, ub):
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
