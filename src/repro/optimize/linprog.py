"""Thin wrapper around :func:`scipy.optimize.linprog` (HiGHS).

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

Constraint data is held as numpy ``(row, col, val)`` triplet blocks,
one list per sense, and concatenated once per
:meth:`LinearProgram.matrices`; no triplet is ever a Python scalar, so
a master LP with hundreds of thousands of nonzeros costs 24 bytes per
nonzero rather than a Python object per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as _scipy_linprog

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span

__all__ = ["LinearProgram", "LPSolution", "InfeasibleError", "grouped_rows"]


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
        HiGHS status code (0 = optimal).
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


class _Rows:
    """The ``<=`` (or ``==``) rows of a program as numpy triplet blocks.

    Each block holds its own ``(row, col, val)`` arrays and right-hand
    sides; :meth:`arrays` concatenates them once and keeps the result
    as the single block, so repeated solves of a growing program (the
    zonal master LP's cut rounds) re-concatenate only what was added.
    """

    def __init__(self) -> None:
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.rhs: list[np.ndarray] = []
        self.n_rows = 0
        self.nnz = 0

    def append(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               rhs: np.ndarray) -> None:
        """Add a block whose ``rows`` count from 0 at its first row."""
        self.blocks.append((np.asarray(rows, dtype=np.int64) + self.n_rows,
                            np.asarray(cols, dtype=np.int64),
                            np.asarray(vals, dtype=float)))
        self.rhs.append(rhs)
        self.n_rows += rhs.size
        self.nnz += len(vals)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
        """``(rows, cols, vals, rhs)`` of every block, concatenated."""
        if not self.blocks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0), np.empty(0)
        if len(self.blocks) > 1:
            self.blocks = [tuple(np.concatenate(part)
                                 for part in zip(*self.blocks))]
            self.rhs = [np.concatenate(self.rhs)]
        return (*self.blocks[0], self.rhs[0])


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
        """Stored constraint triplets (duplicates are summed at solve)."""
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
        target.append(r, c, v, rhs)

    # ------------------------------------------------------------------
    def matrices(self) -> tuple["sparse.csr_matrix | None",
                                "np.ndarray | None",
                                "sparse.csr_matrix | None",
                                "np.ndarray | None"]:
        """The assembled constraints as ``(A_ub, b_ub, A_eq, b_eq)``.

        ``A_ub``/``A_eq`` are CSR with one column per variable, and
        duplicate triplets are summed; a sense without rows gives
        ``None`` for both its matrix and its rhs, as
        :func:`scipy.optimize.linprog` expects.
        """
        return (*self._matrix(self._le), *self._matrix(self._eq))

    def _matrix(self, rows: _Rows
                ) -> tuple["sparse.csr_matrix | None", "np.ndarray | None"]:
        if not rows.n_rows:
            return None, None
        r, c, v, b = rows.arrays()
        return (sparse.csr_matrix((v, (r, c)),
                                  shape=(rows.n_rows, self._num_vars)),
                b.copy())

    def solve(self, *, require_feasible: bool = True) -> LPSolution:
        """Solve with HiGHS and return an :class:`LPSolution`.

        Raises
        ------
        InfeasibleError
            If the LP is infeasible/unbounded and ``require_feasible``.
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
        c = np.asarray(self._obj, dtype=float)
        if self.maximize:
            c = -c
        n = self._num_vars
        a_ub, b_ub, a_eq, b_eq = self.matrices()
        bounds = np.column_stack([self._lb, self._ub])
        res = _scipy_linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             bounds=bounds, method="highs")
        if not res.success:
            obs_metrics.counter(f"lp.infeasible.{self.name}").inc()
            if require_feasible:
                raise InfeasibleError(
                    f"LP '{self.name}' failed: {res.message} (status {res.status})")
            return LPSolution(x=np.full(n, np.nan), objective=np.nan,
                              status=int(res.status))
        obj = float(res.fun)
        if self.maximize:
            obj = -obj
        return LPSolution(x=np.asarray(res.x, dtype=float), objective=obj,
                          status=int(res.status))
