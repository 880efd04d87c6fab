"""Thin wrapper around :func:`scipy.optimize.linprog` (HiGHS).

All linear programs in the library are built as sparse inequality /
equality systems and solved with the HiGHS dual simplex, which is exact
enough for the small-to-medium LPs produced after the aggregation
described in DESIGN.md section 3.1.

The wrapper exists so that

* every LP in the code base states its intent (maximize vs minimize)
  explicitly,
* infeasibility is reported with the model name attached, and
* constraint matrices can be assembled incrementally row-by-row without
  each call site repeating the scipy boilerplate.
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
    # COO triplets for A_ub / A_eq
    _ub_rows: list[int] = field(default_factory=list, init=False)
    _ub_cols: list[int] = field(default_factory=list, init=False)
    _ub_vals: list[float] = field(default_factory=list, init=False)
    _b_ub: list[float] = field(default_factory=list, init=False)
    _eq_rows: list[int] = field(default_factory=list, init=False)
    _eq_cols: list[int] = field(default_factory=list, init=False)
    _eq_vals: list[float] = field(default_factory=list, init=False)
    _b_eq: list[float] = field(default_factory=list, init=False)

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        return len(self._b_ub) + len(self._b_eq)

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

    def _check_coeffs(self, coeffs: dict[int, float]) -> None:
        for idx in coeffs:
            if not 0 <= idx < self._num_vars:
                raise IndexError(f"variable index {idx} out of range "
                                 f"(have {self._num_vars} variables)")

    def add_le_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i <= rhs``."""
        self._check_coeffs(coeffs)
        row = len(self._b_ub)
        for idx, val in coeffs.items():
            if val != 0.0:
                self._ub_rows.append(row)
                self._ub_cols.append(idx)
                self._ub_vals.append(float(val))
        self._b_ub.append(float(rhs))

    def add_ge_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i >= rhs`` (stored negated)."""
        self.add_le_constraint({i: -v for i, v in coeffs.items()}, -rhs)

    def add_eq_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i == rhs``."""
        self._check_coeffs(coeffs)
        row = len(self._b_eq)
        for idx, val in coeffs.items():
            if val != 0.0:
                self._eq_rows.append(row)
                self._eq_cols.append(idx)
                self._eq_vals.append(float(val))
        self._b_eq.append(float(rhs))

    def add_dense_le_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add many dense ``<=`` rows at once (shape checks included)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if rows.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {rows.shape[1]} != variable count {self._num_vars}")
        base = len(self._b_ub)
        r_idx, c_idx = np.nonzero(rows)
        self._ub_rows.extend((r_idx + base).tolist())
        self._ub_cols.extend(c_idx.tolist())
        self._ub_vals.extend(rows[r_idx, c_idx].tolist())
        self._b_ub.extend(rhs.tolist())

    def add_sparse_le_rows(self, rows: "sparse.spmatrix",
                           rhs: np.ndarray) -> None:
        """Add many ``<=`` rows given as a scipy sparse matrix.

        Same contract as :meth:`add_dense_le_rows` without ever
        materializing the dense row block — used by the zonal Stage 1
        master LP, whose constraint rows are zone-local and would be
        ~99% explicit zeros at 100x room sizes.
        """
        self._add_sparse_rows(rows, rhs, self._ub_rows, self._ub_cols,
                              self._ub_vals, self._b_ub)

    def add_sparse_eq_rows(self, rows: "sparse.spmatrix",
                           rhs: np.ndarray) -> None:
        """Add many ``==`` rows given as a scipy sparse matrix.

        The equality twin of :meth:`add_sparse_le_rows`; the triplets
        keep the COO order of ``rows``, so a block assembled here equals
        the same rows added one :meth:`add_eq_constraint` call at a time.
        """
        self._add_sparse_rows(rows, rhs, self._eq_rows, self._eq_cols,
                              self._eq_vals, self._b_eq)

    def _add_sparse_rows(self, rows: "sparse.spmatrix", rhs: np.ndarray,
                         row_idx: list[int], col_idx: list[int],
                         vals: list[float], b: list[float]) -> None:
        coo = sparse.coo_matrix(rows)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if coo.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if coo.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {coo.shape[1]} != variable count {self._num_vars}")
        base = len(b)
        keep = coo.data != 0.0
        row_idx.extend((coo.row[keep] + base).tolist())
        col_idx.extend(coo.col[keep].tolist())
        vals.extend(coo.data[keep].tolist())
        b.extend(rhs.tolist())

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Exact structural hash of the assembled program.

        Two programs share a fingerprint iff they have identical
        objective sense, bounds, objective coefficients and constraint
        triplets — i.e. iff :meth:`solve` is guaranteed to return
        bit-identical solutions for both.  Cost is linear in the number
        of nonzeros; hot paths that can derive a cheaper equivalent key
        should do so and pass it to :meth:`solve` directly.
        """
        h = hashlib.sha256()
        h.update(b"max" if self.maximize else b"min")
        for part in (self._obj, self._lb, self._ub, self._b_ub, self._b_eq,
                     self._ub_vals, self._eq_vals):
            h.update(np.asarray(part, dtype=float).tobytes())
        for part in (self._ub_rows, self._ub_cols,
                     self._eq_rows, self._eq_cols):
            h.update(np.asarray(part, dtype=np.int64).tobytes())
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
                      constraints=self.num_constraints):
            return self._solve(require_feasible)

    def _solve(self, require_feasible: bool) -> LPSolution:
        obs_metrics.counter(f"lp.solves.{self.name}").inc()
        obs_metrics.histogram(f"lp.vars.{self.name}").observe(self._num_vars)
        obs_metrics.histogram(
            f"lp.constraints.{self.name}").observe(self.num_constraints)
        c = np.asarray(self._obj, dtype=float)
        if self.maximize:
            c = -c
        n = self._num_vars
        a_ub = b_ub = a_eq = b_eq = None
        if self._b_ub:
            a_ub = sparse.csr_matrix(
                (self._ub_vals, (self._ub_rows, self._ub_cols)),
                shape=(len(self._b_ub), n))
            b_ub = np.asarray(self._b_ub, dtype=float)
        if self._b_eq:
            a_eq = sparse.csr_matrix(
                (self._eq_vals, (self._eq_rows, self._eq_cols)),
                shape=(len(self._b_eq), n))
            b_eq = np.asarray(self._b_eq, dtype=float)
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
