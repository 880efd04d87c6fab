"""Zonal (block-sparse) cross-interference construction for large rooms.

Appendix B's LP-based :func:`~repro.thermal.interference.generate_alpha`
produces a fully dense ``alpha`` and solves an LP with ``n_units**2``
variables — fine for the paper's 153-unit room, intractable at the
ROADMAP's 100x target (15k nodes).  Real rooms are not dense either:
Figure 1's hot-aisle containment means a node's exhaust overwhelmingly
reaches the CRAC unit facing its own hot aisle, with only weak
recirculation across aisles (Van Damme et al. model exactly this as
zonal blocks with boundary coupling).

This module builds that structure directly from the room layout:

* :func:`zone_partition` groups compute nodes by the hot aisle they
  exhaust into (CRAC unit *i* faces hot aisle *i*, Appendix B);
* :func:`zonal_block_alpha` assembles a flow-conserving CSR ``alpha``
  where a ``1 - coupling`` share of every unit's exhaust mixes
  uniformly (flow-weighted) within its own zone and a ``coupling``
  share leaks across zone boundaries;
* :func:`attach_zonal_thermal` wires the result into a
  :class:`~repro.thermal.heatflow.HeatFlowModel` (sparse backend).

Both component matrices are row-stochastic and flow-conserving, so any
convex combination is too — the :class:`HeatFlowModel` validation
accepts the result without rebalancing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.datacenter.builder import DataCenter
from repro.datacenter.layout import Layout
from repro.thermal.heatflow import HeatFlowModel

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["Zone", "zone_partition", "zonal_block_alpha",
           "attach_zonal_thermal", "DEFAULT_COUPLING"]

#: Default cross-zone leakage share of every unit's exhaust.
DEFAULT_COUPLING: float = 0.05


@dataclass(frozen=True)
class Zone:
    """One hot-aisle zone: a CRAC unit plus the nodes exhausting into it.

    Attributes
    ----------
    index:
        Zone id; equals the index of the CRAC unit facing the aisle.
    crac:
        CRAC unit index (same as ``index``; kept for readability).
    nodes:
        Node indices (0-based over nodes, *not* unit indices) assigned
        to this aisle, ascending.
    """

    index: int
    crac: int
    nodes: np.ndarray

    def units(self, n_crac: int) -> np.ndarray:
        """Unit indices (CRACs-first order) of the zone's members."""
        return np.concatenate([[self.crac], n_crac + self.nodes])


def zone_partition(layout: Layout) -> list[Zone]:
    """Partition nodes into one zone per hot aisle / CRAC unit.

    Every CRAC gets a zone even if no node exhausts into its aisle
    (possible for tiny rooms with more CRACs than racks).
    """
    zones = []
    for z in range(layout.n_crac):
        nodes = np.nonzero(layout.hot_aisle_of_node == z)[0]
        zones.append(Zone(index=z, crac=z, nodes=nodes))
    return zones


def zonal_block_alpha(datacenter: DataCenter,
                      coupling: float = DEFAULT_COUPLING) -> sp.csr_matrix:
    """Flow-conserving block-sparse ``alpha`` from the hot-aisle layout.

    ``alpha[i, j]`` is the share of unit *i*'s exhaust reaching unit
    *j*'s inlet (Section IV).  The matrix is the convex combination

    ``alpha = (1 - coupling) * B + coupling * C``

    where ``B`` mixes each unit's exhaust uniformly (flow-weighted)
    within its own zone — ``B[i, j] = F_j / F(zone)`` for *i*, *j* in
    the same zone — and ``C`` carries the cross-zone leakage: node
    exhaust that fails containment is re-ingested by the same node
    (self-loop), while CRAC supply leaking under the floor splits
    evenly between the two neighboring CRAC units (a ring, matching
    the alternating-aisle geometry of Figure 1).

    Both ``B`` and ``C`` are row-stochastic, and both conserve flow
    (``alpha.T @ F = F``): ``B`` by construction within each zone, and
    ``C`` because self-loops are trivially conserving and the CRAC
    ring is conserving when CRAC flows are (near-)equal — which the
    builder's default homogeneous split guarantees.  Unequal CRAC
    flows with ``coupling > 0`` are rejected.

    Returns CSR with ``O(sum of squared zone sizes)`` non-zeros — for
    the symmetric rooms built by :func:`build_datacenter` that is
    ``n_units**2 / n_crac``, e.g. ~0.3% density at 300 zones.
    """
    if not 0.0 <= coupling < 1.0:
        raise ValueError(f"coupling must be in [0, 1), got {coupling}")
    flows = datacenter.unit_flows
    n_crac = datacenter.n_crac
    n_units = datacenter.n_units
    zones = zone_partition(datacenter.layout)
    crac_flows = flows[:n_crac]
    if coupling > 0.0 and n_crac > 1 and not np.allclose(
            crac_flows, crac_flows[0], rtol=1e-6):
        raise ValueError(
            "zonal_block_alpha requires (near-)equal CRAC flows when "
            "coupling > 0: the cross-zone CRAC ring only conserves flow "
            f"for a homogeneous split, got {crac_flows}")

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    # In-zone uniform mixing block: (1 - coupling) * F_j / F(zone).
    for zone in zones:
        members = zone.units(n_crac)
        share = (1.0 - coupling) * flows[members] / flows[members].sum()
        k = members.size
        rows.append(np.repeat(members, k))
        cols.append(np.tile(members, k))
        vals.append(np.tile(share, k))

    if coupling > 0.0:
        # Node leakage: self-loop (exhaust re-ingested at the same rack).
        node_units = np.arange(n_crac, n_units)
        rows.append(node_units)
        cols.append(node_units)
        vals.append(np.full(node_units.size, coupling))
        # CRAC leakage: even split to the two ring neighbors (or a
        # self-loop for a single-CRAC room).
        cracs = np.arange(n_crac)
        if n_crac == 1:
            rows.append(cracs)
            cols.append(cracs)
            vals.append(np.full(1, coupling))
        else:
            for shift in (-1, 1):
                rows.append(cracs)
                cols.append((cracs + shift) % n_crac)
                vals.append(np.full(n_crac, coupling / 2.0))

    import scipy.sparse as sp

    alpha = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_units, n_units)).tocsr()
    alpha.sum_duplicates()
    return alpha


def attach_zonal_thermal(datacenter: DataCenter,
                         coupling: float = DEFAULT_COUPLING,
                         backend: str = "auto") -> HeatFlowModel:
    """Build a zonal block alpha for ``datacenter`` and attach the model.

    Convenience wrapper mirroring
    :func:`~repro.thermal.interference.attach_thermal_model` but scaling
    to 100x rooms: the alpha is CSR and the model defaults to the
    sparse backend for large rooms (``backend="auto"``).
    """
    alpha = zonal_block_alpha(datacenter, coupling=coupling)
    model = HeatFlowModel(alpha, datacenter.unit_flows, datacenter.n_crac,
                          backend=backend)
    datacenter.thermal = model
    return model
