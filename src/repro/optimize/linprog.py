"""Thin wrapper around :func:`scipy.optimize.linprog` (HiGHS).

All linear programs in the library are built as sparse inequality /
equality systems and solved with the HiGHS dual simplex, which is exact
enough for the small-to-medium LPs produced after the aggregation
described in DESIGN.md section 3.1.

The wrapper exists so that

* every LP in the code base states its intent (maximize vs minimize)
  explicitly,
* infeasibility is reported with the model name attached, and
* constraint matrices can be assembled incrementally, one dict row or
  one dense/sparse row block at a time, without each call site
  repeating the scipy boilerplate.

Constraint data is held as numpy ``(row, col, val)`` triplet blocks,
one list per sense, and concatenated once per :meth:`LinearProgram.solve`
or :meth:`LinearProgram.fingerprint`; no triplet is ever a Python
scalar, so a master LP with hundreds of thousands of nonzeros costs
24 bytes per nonzero rather than a Python object per entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as _scipy_linprog

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span

__all__ = ["LinearProgram", "LPSolution", "LPWarmStart", "InfeasibleError"]


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


@dataclass(frozen=True)
class LPWarmStart:
    """A previous solve's solution, tagged with the LP it came from.

    HiGHS (as exposed through scipy) accepts no starting basis, so the
    only exact warm-start mechanism available is *replay*: when the new
    LP is byte-identical to the one that produced ``solution`` (the
    fingerprints match), the stored solution IS the optimum and is
    returned without invoking the solver at all.  A mismatched
    fingerprint falls through to a normal cold solve, so correctness
    never depends on the warm start.

    ``fingerprint`` is an opaque caller-chosen key.  Callers that
    already know what distinguishes their LPs (e.g. Stage 1 keys its
    LPs by (structure digest, power cap, disabled set, temperature
    vector)) should pass a cheap derived string; callers without such
    knowledge can use :meth:`LinearProgram.fingerprint`, which hashes
    the assembled program exactly but costs a pass over the triplets.
    """

    fingerprint: str
    solution: LPSolution


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
    >>> lp.add_le_constraint({x[0]: 1.0, x[1]: 1.0}, 5.0)
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

    def set_bounds(self, index: int, lb: float, ub: float) -> None:
        """Tighten the bounds of an existing variable."""
        if not 0 <= index < self._num_vars:
            raise IndexError(f"variable index {index} out of range")
        if lb > ub:
            raise ValueError(f"lower bound {lb} exceeds upper bound {ub}")
        self._lb[index] = float(lb)
        self._ub[index] = float(ub)

    def _add_dict_row(self, target: _Rows, coeffs: dict[int, float],
                      rhs: float) -> None:
        # plain-Python checks: a dict row is typically a few entries, for
        # which numpy reductions cost more than the row itself
        for idx in coeffs:
            if not 0 <= idx < self._num_vars:
                raise IndexError(f"variable index {idx} out of range "
                                 f"(have {self._num_vars} variables)")
        n = len(coeffs)
        cols = np.fromiter(coeffs, dtype=np.int64, count=n)
        vals = np.fromiter(coeffs.values(), dtype=float, count=n)
        if 0.0 in coeffs.values():
            keep = vals != 0.0
            cols, vals = cols[keep], vals[keep]
        target.append(np.zeros(cols.size, dtype=np.int64), cols, vals,
                      np.array([float(rhs)]))

    def add_le_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i <= rhs``."""
        self._add_dict_row(self._le, coeffs, rhs)

    def add_ge_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i >= rhs`` (stored negated)."""
        self.add_le_constraint({i: -v for i, v in coeffs.items()}, -rhs)

    def add_eq_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i == rhs``."""
        self._add_dict_row(self._eq, coeffs, rhs)

    def add_dense_le_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add many dense ``<=`` rows at once (shape checks included)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.array(rhs, dtype=float, ndmin=1)
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if rows.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {rows.shape[1]} != variable count {self._num_vars}")
        r_idx, c_idx = np.nonzero(rows)
        self._le.append(r_idx, c_idx, rows[r_idx, c_idx], rhs)

    def add_sparse_le_rows(self, rows: "sparse.spmatrix",
                           rhs: np.ndarray) -> None:
        """Add many ``<=`` rows given as a scipy sparse matrix.

        Same contract as :meth:`add_dense_le_rows` without ever
        materializing the dense row block — used by the zonal Stage 1
        master LP, whose constraint rows are zone-local and would be
        ~99% explicit zeros at 100x room sizes.
        """
        self._add_sparse_rows(self._le, rows, rhs)

    def add_sparse_eq_rows(self, rows: "sparse.spmatrix",
                           rhs: np.ndarray) -> None:
        """Add many ``==`` rows given as a scipy sparse matrix.

        The equality twin of :meth:`add_sparse_le_rows`; the triplets
        keep the COO order of ``rows``, so a block assembled here equals
        the same rows added one :meth:`add_eq_constraint` call at a time.
        """
        self._add_sparse_rows(self._eq, rows, rhs)

    def _add_sparse_rows(self, target: _Rows, rows: "sparse.spmatrix",
                         rhs: np.ndarray) -> None:
        coo = sparse.coo_matrix(rows)
        rhs = np.array(rhs, dtype=float, ndmin=1)
        if coo.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if coo.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {coo.shape[1]} != variable count {self._num_vars}")
        keep = coo.data != 0.0
        target.append(coo.row[keep], coo.col[keep], coo.data[keep], rhs)

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

    def fingerprint(self) -> str:
        """Exact structural hash of the assembled program.

        Two programs share a fingerprint iff they have identical
        objective sense, bounds, objective coefficients and constraint
        triplets — i.e. iff :meth:`solve` is guaranteed to return
        bit-identical solutions for both.  Cost is linear in the number
        of nonzeros; hot paths that can derive a cheaper equivalent key
        should do so and pass it to :meth:`solve` directly.
        """
        le_rows, le_cols, le_vals, b_ub = self._le.arrays()
        eq_rows, eq_cols, eq_vals, b_eq = self._eq.arrays()
        h = hashlib.sha256()
        h.update(b"max" if self.maximize else b"min")
        for part in (self._obj, self._lb, self._ub, b_ub, b_eq,
                     le_vals, eq_vals):
            h.update(np.asarray(part, dtype=float).tobytes())
        for part in (le_rows, le_cols, eq_rows, eq_cols):
            h.update(part.tobytes())
        h.update(self._num_vars.to_bytes(8, "little"))
        return h.hexdigest()

    def solve(self, *, require_feasible: bool = True,
              warm_start: LPWarmStart | None = None,
              fingerprint: str | None = None) -> LPSolution:
        """Solve with HiGHS and return an :class:`LPSolution`.

        When ``warm_start`` is given and its fingerprint equals
        ``fingerprint`` (or, if ``fingerprint`` is None, this program's
        :meth:`fingerprint`), the stored solution is replayed verbatim —
        bit-identical to a cold solve of the same program — and the
        solver is never invoked.  A fingerprint mismatch falls through
        to a cold solve.

        Raises
        ------
        InfeasibleError
            If the LP is infeasible/unbounded and ``require_feasible``.
        """
        if self._num_vars == 0:
            raise ValueError(f"LP '{self.name}' has no variables")
        if warm_start is not None:
            key = fingerprint if fingerprint is not None \
                else self.fingerprint()
            if warm_start.fingerprint == key:
                obs_metrics.counter(f"lp.warm_hits.{self.name}").inc()
                return warm_start.solution
            obs_metrics.counter(f"lp.warm_misses.{self.name}").inc()
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
