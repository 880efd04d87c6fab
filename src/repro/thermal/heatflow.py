"""Abstract heat-flow model of the data center (Section IV).

Following Tang et al. [29], inlet temperatures are linear mixes of outlet
temperatures, ``T_in = A @ T_out`` (Eq. 5), where the mixing matrix ``A``
derives from the cross-interference coefficients ``alpha`` (share of the
air *generated* by unit *i* that ends up at the *inlet* of unit *j*) and
the unit air flow rates::

    A[j, i] = alpha[i, j] * F[i] / F[j]

Outlet temperatures close the loop: CRAC outlets are assigned (decision
variables), while each node's outlet exceeds its inlet by
``P_j / (rho * Cp * F_j)`` (Eq. 4).  The steady state is therefore a
linear system, and — the key structural fact exploited by Stage 1 — for
*fixed* CRAC outlet temperatures every inlet temperature is an **affine
function of the node powers**:

    T_in = t_const(T_crac_out) + G @ P_node

Two storage/solver backends expose the same contract
(``docs/THERMAL.md``):

``dense``
    The reference oracle: precomputes ``(I - A_MM)^{-1}`` and the full
    gain matrix ``G`` once so every later evaluation is a dense
    matrix-vector product.  O(n^3) build, O(n^2) memory.
``sparse``
    For large rooms with block-sparse coupling: ``alpha``/``mix`` stay
    in CSR, ``I - A_MM`` is factored once with SuperLU (as
    ``scipy.sparse.linalg.splu`` does, see :func:`_splu`) and solved on
    demand; ``G`` is never materialized unless a
    caller asks for :attr:`HeatFlowModel.inlet_gain` (scale-aware
    callers use :meth:`HeatFlowModel.gain_rows` /
    :meth:`HeatFlowModel.apply_gain` instead).

``backend="auto"`` (the default) picks ``dense`` below
:data:`SPARSE_AUTO_UNITS` units and ``sparse`` at or above it — or
``sparse`` whenever ``alpha`` is handed in as a SciPy sparse matrix.

Unit ordering everywhere: CRACs first (indices ``0..NCRAC-1``), then
compute nodes, matching Section IV's ``T_out`` vector.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy

from repro.kernels import vectorized
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.optimize.linprog import _load_extension, issparse
from repro.units import AIR_DENSITY, AIR_SPECIFIC_HEAT

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["HeatFlowModel", "SteadyState", "SteadyStateBatch",
           "SPARSE_AUTO_UNITS"]

#: Room size (CRACs + nodes) at which ``backend="auto"`` switches from
#: the dense reference path to the sparse factorization.  Chosen so the
#: paper-scale rooms (and every golden baseline) stay dense/bit-identical
#: while 100x rooms never build an O(n^2) inverse.
SPARSE_AUTO_UNITS: int = 4096

#: Units per transpose solve in :meth:`HeatFlowModel.gain_rows` on the
#: sparse backend: its dense scratch is this many columns of
#: ``n_nodes`` floats, however many rows are asked for.
GAIN_ROWS_CHUNK: int = 256

#: Tolerance of the alpha non-negativity guard: entries below it are
#: rejected, entries in ``[-ALPHA_NEG_TOL, 0)`` (LP-vertex / censoring
#: round-off) are clamped to 0 so no negative coefficient reaches
#: ``mix`` or the gain map.
ALPHA_NEG_TOL: float = 1e-9

#: scipy's SuperLU extension, which ``scipy.sparse.linalg.splu`` wraps
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _splu(matrix: "sp.csc_matrix"):
    """``scipy.sparse.linalg.splu(matrix)`` with its default options,
    for a float64 CSC matrix, without importing ``scipy.sparse.linalg``.

    That package loads ``scipy.linalg`` with it, ~10 MB and ~0.1 s of
    start-up per process; the SuperLU extension alone is loaded instead,
    through the loader the LP wrapper loads HiGHS with.
    """
    import scipy.sparse as sp

    superlu = _load_extension(_SUPERLU, os.path.join(
        scipy.__path__[0], "sparse", "linalg", "_dsolve"))
    matrix = sp.csc_matrix(matrix, dtype=float)
    matrix.sum_duplicates()
    n = matrix.shape[0]
    return superlu.gstrf(
        n, matrix.nnz, matrix.data, matrix.indices.astype(np.intc),
        matrix.indptr.astype(np.intc), csc_construct_func=sp.csc_array,
        ilu=False, options=dict(DiagPivotThresh=None, ColPerm=None,
                                PanelSize=None, Relax=None))


#: Default slack of the Eq. 6 redline test: an inlet may exceed its
#: redline by this many degrees C and still count as feasible.
_FEASIBILITY_TOL: float = 1e-6


@dataclass(frozen=True)
class SteadyState:
    """Resolved steady-state temperatures for one operating point.

    Attributes
    ----------
    t_in / t_out:
        Inlet and outlet temperature of every unit (CRACs first), C.
    crac_heat_kw:
        Heat removed by each CRAC (Eq. 2, clamped at 0), kW.
    """

    t_in: np.ndarray
    t_out: np.ndarray
    crac_heat_kw: np.ndarray

    def redline_margin(self, redline_c: np.ndarray) -> np.ndarray:
        """``T_redline - T_in`` per unit; all entries >= 0 means feasible."""
        redline = np.asarray(redline_c, dtype=float)
        n_units = len(self.t_in)
        if redline.shape != (n_units,):
            raise ValueError(f"redline vector must have {n_units} entries")
        return redline - self.t_in

    def within_redline(self, redline_c: np.ndarray,
                       tol: float = _FEASIBILITY_TOL) -> bool:
        """Check the thermal constraint ``T_in <= T_redline`` (Eq. 6)."""
        return bool(np.all(self.redline_margin(redline_c) >= -tol))


@dataclass(frozen=True)
class SteadyStateBatch:
    """Steady states of a whole batch of operating points, stacked.

    Row ``b`` of every array is the :class:`SteadyState` of operating
    point ``b`` (same column conventions: units CRACs-first).
    """

    t_in: np.ndarray
    t_out: np.ndarray
    crac_heat_kw: np.ndarray

    def __len__(self) -> int:
        return int(self.t_in.shape[0])

    def row(self, b: int) -> SteadyState:
        """The ``b``-th operating point as a single :class:`SteadyState`."""
        return SteadyState(t_in=self.t_in[b], t_out=self.t_out[b],
                           crac_heat_kw=self.crac_heat_kw[b])


class HeatFlowModel:
    """Steady-state thermal model built from cross-interference data.

    Parameters
    ----------
    alpha:
        ``(N, N)`` cross-interference matrix, ``alpha[i, j]`` = share of
        the air generated by unit *i* recirculated into unit *j*;
        rows must sum to 1 (Appendix B constraint 1).  Dense array or
        any SciPy sparse matrix (stored CSR on the sparse backend).
    flows:
        Air flow rate of every unit, m^3/s, CRACs first.
    n_crac:
        How many leading units are CRACs.
    rho / cp:
        Air properties (defaults: the paper's values).
    backend:
        ``"dense"``, ``"sparse"`` or ``"auto"`` (see module docstring).
    """

    def __init__(self, alpha, flows: np.ndarray, n_crac: int,
                 rho: float = AIR_DENSITY, cp: float = AIR_SPECIFIC_HEAT,
                 backend: str = "auto"):
        flows = np.asarray(flows, dtype=float)
        n = flows.size
        if backend == "auto":
            backend = "sparse" if (issparse(alpha)
                                   or n >= SPARSE_AUTO_UNITS) else "dense"
        if backend not in ("dense", "sparse"):
            raise ValueError(
                f"unknown thermal backend {backend!r} "
                "(use 'dense', 'sparse' or 'auto')")
        if backend == "sparse":
            # imported here, as SuperLU below: dense rooms never need it
            import scipy.sparse as sp

            alpha = sp.csr_matrix(alpha, dtype=float)
        else:
            alpha = np.asarray(alpha.toarray() if issparse(alpha)
                               else alpha, dtype=float)
        if alpha.shape != (n, n):
            raise ValueError(f"alpha shape {alpha.shape} != ({n}, {n})")
        if not 0 < n_crac < n:
            raise ValueError(f"n_crac={n_crac} must be in 1..{n - 1}")
        if np.any(flows <= 0):
            raise ValueError("all unit flows must be positive")
        entries = alpha.data if backend == "sparse" else alpha
        low = float(entries.min()) if entries.size else 0.0
        if low < -ALPHA_NEG_TOL:
            raise ValueError("cross-interference coefficients must be >= 0")
        if low < 0.0:
            # round-off negatives within tolerance: clamp rather than
            # propagate negative mixing coefficients into mix/gain
            if backend == "sparse":
                alpha = alpha.copy()
                alpha.data = np.maximum(alpha.data, 0.0)
            else:
                alpha = np.maximum(alpha, 0.0)
        row_sums = np.asarray(alpha.sum(axis=1)).ravel()
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            raise ValueError(
                f"alpha rows must sum to 1 (got range {row_sums.min():.6f}"
                f"..{row_sums.max():.6f})")
        inflow = np.asarray(alpha.T @ flows).ravel()
        if not np.allclose(inflow, flows, rtol=1e-4, atol=1e-8):
            raise ValueError("air flow not conserved: alpha^T F != F")

        self.backend = backend
        self.n_crac = n_crac
        self.n_nodes = n - n_crac
        self.flows = flows
        self.rho = rho
        self.cp = cp
        #: the source-normalized coefficients the model was built from;
        #: kept so degraded-inventory views can be derived (see
        #: :meth:`without_nodes`).  Dense array or CSR per the backend.
        self.alpha = alpha
        c = slice(0, n_crac)
        m = slice(n_crac, n)
        #: kW -> K conversion per node: 1 / (rho * Cp * F_node).
        self.node_heat_coeff = 1.0 / (rho * cp * flows[n_crac:])
        #: heat capacity rate of each CRAC stream, kW/K.
        self.crac_capacity = rho * cp * flows[:n_crac]
        if backend == "sparse":
            # Mixing matrix of Eq. 5 in CSR: A = D_F^-1 alpha^T D_F.
            self.mix = (sp.diags(1.0 / flows) @ alpha.T
                        @ sp.diags(flows)).tocsr()
            a_mm = self.mix[m, m]
            try:
                self._lu = _splu((sp.identity(self.n_nodes, format="csc")
                                  - a_mm.tocsc()))
            except RuntimeError as exc:
                raise ValueError("I - A_MM is singular; recirculation-only "
                                 "air loops are unphysical") from exc
            self._w = None
            self._a_mc = self.mix[m, c]
            self._a_all_c = self.mix[:, c]
            self._a_all_m = self.mix[:, m]
            self._t_base = (self._a_all_c.toarray()
                            + self._a_all_m @ self._lu.solve(
                                self._a_mc.toarray()))
            self._gain = None       # materialized lazily on demand
        else:
            # Mixing matrix of Eq. 5: T_in = A @ T_out, with
            # A[j, i] = alpha[i, j] * F[i] / F[j].
            self.mix = np.ascontiguousarray(
                (alpha * flows[:, None]).T / flows[:, None])
            a_mm = self.mix[m, m]
            # Row sums of A_MM are the nodes' recirculation coefficients,
            # strictly below 1, so I - A_MM is invertible (diagonally
            # dominant); guard anyway for hand-built matrices.
            eye = np.eye(self.n_nodes)
            try:
                self._w = np.linalg.solve(eye - a_mm, eye)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise ValueError("I - A_MM is singular; recirculation-only "
                                 "air loops are unphysical") from exc
            self._lu = None
            self._a_mc = self.mix[m, c]
            self._a_all_c = self.mix[:, c]
            self._a_all_m = self.mix[:, m]
            # Affine pieces of T_in = t_base @ t_crac + gain @ P_node.
            self._t_base = self._a_all_c + self._a_all_m @ self._w @ self._a_mc
            self._gain = self._a_all_m @ self._w \
                @ np.diag(self.node_heat_coeff)
        # Censored (fault-degraded) views keyed on the dead-node set;
        # the model is immutable, so entries never go stale.
        self._censored: dict[bytes, "HeatFlowModel"] = {}
        #: lifetime memo misses of :meth:`without_nodes` on this instance.
        self.censored_rebuilds = 0
        #: lifetime memo hits of :meth:`without_nodes` on this instance.
        self.censored_cache_hits = 0

    # ------------------------------------------------------------------
    @property
    def n_units(self) -> int:
        return self.n_crac + self.n_nodes

    @property
    def mix_dense(self) -> np.ndarray:
        """The Eq. 5 mixing matrix as a dense array, on either backend."""
        return self.mix.toarray() if self.backend == "sparse" else self.mix

    def inlet_affine(self, t_crac_out: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Affine map ``T_in = const + G @ P_node`` for fixed CRAC outlets.

        Returns
        -------
        (const, gain):
            ``const`` has one entry per unit (CRACs first); ``gain`` is
            ``(n_units, n_nodes)``.  ``gain`` is temperature-independent
            and shared across calls; callers may cache it via
            :attr:`inlet_gain`.  On the sparse backend this materializes
            the dense gain (lazily, once) — O(n^2) memory; scale-aware
            callers use :meth:`gain_rows` / :meth:`apply_gain` instead.
        """
        t = np.asarray(t_crac_out, dtype=float)
        if t.shape != (self.n_crac,):
            raise ValueError(
                f"expected {self.n_crac} CRAC outlet temps, got {t.shape}")
        return self._t_base @ t, self.inlet_gain

    @property
    def inlet_gain(self) -> np.ndarray:
        """``G`` of the affine inlet map (does not depend on outlets)."""
        if self._gain is None:
            self._gain = self._a_all_m @ self._lu.solve(
                np.diag(self.node_heat_coeff))
        return self._gain

    @property
    def inlet_base(self) -> np.ndarray:
        """Outlet-to-inlet map: ``T_in = inlet_base @ t_crac + G @ P``."""
        return self._t_base

    def gain_rows(self, units: np.ndarray) -> sp.csr_matrix:
        """Selected rows of ``G`` as CSR, exact zeros dropped.

        ``G[u, :] = (W^T A_all_M[u, :]^T)^T diag(coeff)``, so each row
        costs one transpose solve against the cached factorization on
        the sparse backend (a plain row gather on the dense one).  The
        solves run :data:`GAIN_ROWS_CHUNK` units at a time, so the dense
        scratch stays ``GAIN_ROWS_CHUNK x n_nodes`` and only the rows'
        nonzeros (zone-local on zonal rooms) outlive the call.
        """
        import scipy.sparse as sp

        units = np.asarray(units, dtype=int)
        if self.backend == "dense":
            return sp.csr_matrix(self.inlet_gain[units])
        chunks = [sp.csr_matrix((0, self.n_nodes))]
        for start in range(0, units.size, GAIN_ROWS_CHUNK):
            part = units[start:start + GAIN_ROWS_CHUNK]
            x = self._lu.solve(self._a_all_m[part].toarray().T, trans="T")
            chunks.append(sp.csr_matrix(x.T * self.node_heat_coeff[None, :]))
        return sp.vstack(chunks, format="csr")

    def apply_gain(self, node_power_kw: np.ndarray) -> np.ndarray:
        """``G @ P`` for one power vector — one solve, no dense ``G``."""
        p = np.asarray(node_power_kw, dtype=float)
        if self.backend == "dense":
            return self._gain @ p
        return self._a_all_m @ self._lu.solve(self.node_heat_coeff * p)

    def batch_inlet(self, t_crac_out: np.ndarray,
                    node_power_kw: np.ndarray) -> np.ndarray:
        """Inlet temperatures for ``(B, ...)`` batches of operating points.

        The batched core of :meth:`steady_state_batch`: two GEMMs on the
        dense backend, one multi-RHS factored solve on the sparse one.
        """
        if self.backend == "dense":
            return t_crac_out @ self._t_base.T \
                + node_power_kw @ self.inlet_gain.T
        y = self._lu.solve(
            (node_power_kw * self.node_heat_coeff[None, :]).T)
        return t_crac_out @ self._t_base.T + (self._a_all_m @ y).T

    def steady_state(self, t_crac_out: np.ndarray,
                     node_power_kw: np.ndarray) -> SteadyState:
        """Resolve all temperatures for one operating point.

        Parameters
        ----------
        t_crac_out:
            Assigned CRAC outlet temperatures, C.
        node_power_kw:
            Total power drawn (hence heat dissipated) by each node, kW.
        """
        obs_metrics.counter("thermal.steady_state_calls").inc()
        p = np.asarray(node_power_kw, dtype=float)
        if p.shape != (self.n_nodes,):
            raise ValueError(
                f"expected {self.n_nodes} node powers, got {p.shape}")
        if np.any(p < 0):
            raise ValueError("node powers must be non-negative")
        t = np.asarray(t_crac_out, dtype=float)
        if t.shape != (self.n_crac,):
            raise ValueError(
                f"expected {self.n_crac} CRAC outlet temps, got {t.shape}")
        t_in = self._t_base @ t + self.apply_gain(p)
        t_out = np.empty(self.n_units)
        t_out[:self.n_crac] = t
        t_out[self.n_crac:] = t_in[self.n_crac:] + self.node_heat_coeff * p
        heat = np.maximum(
            self.crac_capacity * (t_in[:self.n_crac] - t_out[:self.n_crac]),
            0.0)
        return SteadyState(t_in=t_in, t_out=t_out, crac_heat_kw=heat)

    def steady_state_batch(self, t_crac_out: np.ndarray,
                           node_power_kw: np.ndarray) -> SteadyStateBatch:
        """Resolve many operating points in one batched solve.

        The ``(I - A_MM)`` system was factored once in ``__init__``;
        this reuses it across the whole batch (stage-1 psi evaluations,
        controller epochs, calibration campaigns) instead of paying the
        per-call Python overhead of :meth:`steady_state`.

        Parameters
        ----------
        t_crac_out:
            ``(n_crac,)`` shared outlets, or ``(B, n_crac)`` per row.
        node_power_kw:
            ``(B, n_nodes)`` node powers, one row per operating point.
        """
        p = np.asarray(node_power_kw, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.n_nodes:
            raise ValueError(
                f"expected (batch, {self.n_nodes}) node powers, got "
                f"{p.shape}")
        if np.any(p < 0):
            raise ValueError("node powers must be non-negative")
        t = np.asarray(t_crac_out, dtype=float)
        if t.ndim == 1:
            t = np.broadcast_to(t, (p.shape[0], t.size))
        if t.shape != (p.shape[0], self.n_crac):
            raise ValueError(
                f"expected ({p.shape[0]}, {self.n_crac}) CRAC outlet "
                f"temps, got {t.shape}")
        obs_metrics.counter("thermal.steady_state_batch_rows").inc(p.shape[0])
        with obs_span("steady_state_batch", rows=p.shape[0]):
            t_in, t_out, heat = vectorized.steady_state_batch(self, t, p)
        return SteadyStateBatch(t_in=t_in, t_out=t_out, crac_heat_kw=heat)

    # ------------------------------------------------------------------
    def without_nodes(self, dead_nodes: np.ndarray) -> "HeatFlowModel":
        """Degraded-inventory view with the given nodes removed.

        A crashed node draws no power, so thermally it is a passive
        pass-through (``T_out = T_in``).  Eliminating such units from
        the coupling is exactly *censoring* the flow-weighted air
        transport chain: ``alpha`` is row-stochastic with stationary
        measure ``F`` (flow conservation), and watching the chain only
        on surviving units gives

            ``alpha' = A_ss + A_sd (I - A_dd)^{-1} A_ds``

        (s = survivors, d = dead, blocks of ``alpha``), which is again
        row-stochastic with stationary measure ``F`` restricted to the
        survivors — so the reduced matrix passes this class's own
        conservation checks and yields a fully consistent smaller model.

        Parameters
        ----------
        dead_nodes:
            *Node* indices (``0..n_nodes-1``) to drop; CRACs cannot be
            removed this way (an unavailable CRAC is modeled through its
            outlet range instead — see :mod:`repro.faults.inject`).
        """
        dead = np.unique(np.asarray(dead_nodes, dtype=int))
        if dead.size == 0:
            return self
        if np.any(dead < 0) or np.any(dead >= self.n_nodes):
            raise ValueError(
                f"dead node indices must be in 0..{self.n_nodes - 1}")
        if dead.size >= self.n_nodes:
            raise ValueError("cannot remove every compute node")
        key = dead.tobytes()
        cached = self._censored.get(key)
        if cached is not None:
            # LRU refresh: reinsert at the recency tail so eviction
            # below removes the least recently *used* inventory
            self._censored[key] = self._censored.pop(key)
            self.censored_cache_hits += 1
            obs_metrics.counter("thermal.censored_cache_hits").inc()
            return cached
        self.censored_rebuilds += 1
        obs_metrics.counter("thermal.censored_rebuilds").inc()
        dead_units = self.n_crac + dead
        keep = np.setdiff1d(np.arange(self.n_units), dead_units)
        a = self.alpha
        if self.backend == "sparse":
            a_dd = a[dead_units][:, dead_units].toarray()
            a_ds = a[dead_units][:, keep].toarray()
        else:
            a_dd = a[np.ix_(dead_units, dead_units)]
            a_ds = a[np.ix_(dead_units, keep)]
        try:
            absorbed = np.linalg.solve(np.eye(dead.size) - a_dd, a_ds)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "removed nodes recirculate air only among themselves; "
                "the censored coupling is undefined") from exc
        if self.backend == "sparse":
            import scipy.sparse as sp

            # absorbed rows live on the union of the dead rows' supports,
            # so sparsifying keeps the censored matrix block-sparse
            alpha_red = (a[keep][:, keep]
                         + a[keep][:, dead_units]
                         @ sp.csr_matrix(absorbed)).tocsr()
        else:
            alpha_red = a[np.ix_(keep, keep)] \
                + a[np.ix_(keep, dead_units)] @ absorbed
        reduced = HeatFlowModel(alpha_red, self.flows[keep], self.n_crac,
                                rho=self.rho, cp=self.cp,
                                backend=self.backend)
        if len(self._censored) >= 64:
            # bounded memo: evict the least recently used inventory
            # (hits above reinsert, so iteration order is recency order)
            self._censored.pop(next(iter(self._censored)))
        self._censored[key] = reduced
        obs_metrics.gauge("thermal.censored_memo_size").set(
            float(len(self._censored)))
        return reduced

    def passive_unit_temps(self, dead_nodes: np.ndarray,
                           t_out_kept: np.ndarray) -> np.ndarray:
        """Outlet temperatures of removed (passive) nodes, given survivors'.

        A pass-through unit satisfies ``T_out = T_in = (A T_out)`` at
        its row of the mixing matrix, so the dead units' temperatures
        follow from the survivors' by solving the dead block:
        ``T_d = (I - M_dd)^{-1} M_ds T_s``.  Used to keep full-room
        temperature state across inventory changes.
        """
        dead = np.unique(np.asarray(dead_nodes, dtype=int))
        dead_units = self.n_crac + dead
        keep = np.setdiff1d(np.arange(self.n_units), dead_units)
        t_s = np.asarray(t_out_kept, dtype=float)
        if t_s.shape != (keep.size,):
            raise ValueError(
                f"expected {keep.size} surviving outlet temps, got {t_s.shape}")
        if dead.size == 0:
            return np.empty(0)
        if self.backend == "sparse":
            m_dd = self.mix[dead_units][:, dead_units].toarray()
            m_ds_ts = self.mix[dead_units][:, keep] @ t_s
        else:
            m_dd = self.mix[np.ix_(dead_units, dead_units)]
            m_ds_ts = self.mix[np.ix_(dead_units, keep)] @ t_s
        return np.linalg.solve(np.eye(dead.size) - m_dd, m_ds_ts)

    # ------------------------------------------------------------------
    def redline_margin(self, t_crac_out: np.ndarray,
                       node_power_kw: np.ndarray,
                       redline_c: np.ndarray) -> np.ndarray:
        """``T_redline - T_in`` per unit; all entries >= 0 means feasible."""
        return self.steady_state(t_crac_out, node_power_kw).redline_margin(
            redline_c)

    def is_feasible(self, t_crac_out: np.ndarray, node_power_kw: np.ndarray,
                    redline_c: np.ndarray,
                    tol: float = _FEASIBILITY_TOL) -> bool:
        """Check the thermal constraint ``T_in <= T_redline`` (Eq. 6)."""
        return self.steady_state(t_crac_out, node_power_kw).within_redline(
            redline_c, tol)
