"""Data center assembly (Section III, Section VI.B/VI.G).

:class:`DataCenter` is the central container tying together node types,
placed compute nodes, CRAC units and (optionally) a thermal model.  It
precomputes the flat arrays the optimization stages index into — global
core maps, per-node flows and base powers — so that hot paths never loop
over Python objects.

:func:`build_datacenter` reproduces the paper's construction: node types
assigned uniformly at random ("Each node type has an equal probability of
being assigned to a compute node"), homogeneous CRAC units whose total
air flow equals the total node air flow.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.datacenter.coretypes import NodeTypeSpec, paper_node_types
from repro.datacenter.crac import CRACUnit
from repro.datacenter.layout import Layout, build_layout
from repro.datacenter.nodes import ComputeNode
from repro.kernels import vectorized
from repro.kernels.tables import core_power_table
from repro.power.cop import CoPModel, HP_UTILITY_COP
from repro.units import CRAC_REDLINE_C, NODE_REDLINE_C

__all__ = ["DataCenter", "build_datacenter"]


@dataclass
class DataCenter:
    """A fully-specified data center (geometry + hardware, no workload).

    Index conventions follow the paper: units are ordered CRACs first,
    then compute nodes, in all thermal vectors (``T_in``, ``T_out``,
    redlines); cores use a single global index.

    Attributes
    ----------
    node_types:
        Distinct :class:`NodeTypeSpec` objects present in the room.
    nodes / cracs:
        Placed hardware.
    layout:
        Rack/aisle geometry the nodes were placed with.
    node_redline_c / crac_redline_c:
        Redline inlet temperatures (Section VI.F: 25 C and 40 C).
    thermal:
        A :class:`repro.thermal.heatflow.HeatFlowModel`, attached after
        interference-coefficient generation; ``None`` until then.
    """

    node_types: list[NodeTypeSpec]
    nodes: list[ComputeNode]
    cracs: list[CRACUnit]
    layout: Layout
    node_redline_c: float = NODE_REDLINE_C
    crac_redline_c: float = CRAC_REDLINE_C
    thermal: "object | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("data center needs at least one compute node")
        if not self.cracs:
            raise ValueError("data center needs at least one CRAC unit")
        for j, node in enumerate(self.nodes):
            if node.index != j:
                raise ValueError(f"node {j} has inconsistent index {node.index}")
        # flat arrays used by the optimizers ---------------------------
        self.node_type_index = np.asarray(
            [n.type_index for n in self.nodes], dtype=int)
        self.node_flows = np.asarray(
            [n.spec.flow_m3s for n in self.nodes], dtype=float)
        self.node_base_power = np.asarray(
            [n.spec.base_power_kw for n in self.nodes], dtype=float)
        self.crac_flows = np.asarray(
            [c.flow_m3s for c in self.cracs], dtype=float)
        counts = np.asarray([n.n_cores for n in self.nodes], dtype=int)
        firsts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        for node, first in zip(self.nodes, firsts):
            if node.first_core != int(first):
                raise ValueError(
                    f"node {node.index} first_core {node.first_core} != {first}")
        self.core_node = np.repeat(np.arange(len(self.nodes)), counts)
        #: ``CT_k`` — node-type index of each core's node.
        self.core_type = self.node_type_index[self.core_node]

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """``NCN``."""
        return len(self.nodes)

    @property
    def n_crac(self) -> int:
        """``NCRAC``."""
        return len(self.cracs)

    @property
    def n_cores(self) -> int:
        """``NCORES``."""
        return int(self.core_node.size)

    @property
    def n_units(self) -> int:
        """CRACs + nodes — dimension of the thermal vectors."""
        return self.n_crac + self.n_nodes

    @property
    def redline_c(self) -> np.ndarray:
        """``T_redline`` vector, CRACs first then nodes (Eq. 6 order)."""
        return np.concatenate([
            np.full(self.n_crac, self.crac_redline_c),
            np.full(self.n_nodes, self.node_redline_c),
        ])

    @property
    def unit_flows(self) -> np.ndarray:
        """Air flow of every unit, CRACs first then nodes (``F`` of App. B)."""
        return np.concatenate([self.crac_flows, self.node_flows])

    # ------------------------------------------------------------------
    def cores_of_node(self, j: int) -> range:
        """Global core indices belonging to node ``j`` (``cores_j``)."""
        return self.nodes[j].core_indices

    def _validate_pstates(self, core_pstates: np.ndarray) -> np.ndarray:
        """Shape/range-check a global P-state vector (or batch of them)."""
        ps = np.asarray(core_pstates, dtype=int)
        if ps.shape[-1:] != (self.n_cores,):
            raise ValueError(
                f"expected {self.n_cores} core P-states, got shape {ps.shape}")
        eta = core_power_table(self).n_pstates[self.core_type]
        bad = (ps < 0) | (ps >= eta)
        if bad.any():
            t = int(self.core_type[np.nonzero(bad)[-1][0]])
            raise IndexError(
                f"P-state out of range for node type "
                f"{self.node_types[t].name}")
        return ps

    def node_power_kw(self, core_pstates: np.ndarray) -> np.ndarray:
        """Eq. 1 for every node at once.

        Parameters
        ----------
        core_pstates:
            Global array of P-state indices, one per core.

        Returns
        -------
        numpy.ndarray
            ``PCN_j`` for every node, kW.
        """
        ps = self._validate_pstates(core_pstates)
        if ps.ndim != 1:
            raise ValueError(
                f"expected a flat P-state vector, got shape {ps.shape}")
        return vectorized.node_power_kw(self, ps)

    def node_power_batch(self, core_pstates: np.ndarray) -> np.ndarray:
        """Eq. 1 for every row of a ``(B, n_cores)`` P-state batch.

        Row ``b`` of the result equals ``node_power_kw(core_pstates[b])``
        bit-for-bit; the batch form exists so callers evaluating many
        candidate assignments (controller epochs, enumeration, property
        tests) avoid per-call Python overhead.
        """
        ps = self._validate_pstates(core_pstates)
        if ps.ndim != 2:
            raise ValueError(
                f"expected a (batch, {self.n_cores}) P-state array, got "
                f"shape {ps.shape}")
        return vectorized.node_power_batch(self, ps)

    def all_off_pstates(self) -> np.ndarray:
        """Global P-state vector with every core turned off."""
        return np.asarray([self.node_types[t].off_pstate
                           for t in self.core_type], dtype=int)

    def all_p0_pstates(self) -> np.ndarray:
        """Global P-state vector with every core at P-state 0."""
        return np.zeros(self.n_cores, dtype=int)

    def require_thermal(self):
        """Return the attached thermal model or raise a clear error."""
        if self.thermal is None:
            raise RuntimeError(
                "no thermal model attached; generate cross-interference "
                "coefficients first (repro.thermal.attach_thermal_model)")
        return self.thermal

    def with_redline_margin(self, margin_c: float) -> "DataCenter":
        """A view of this room with every redline tightened by ``margin_c``.

        The predictive controller's pre-cool mechanism
        (:mod:`repro.control.mpc`): solving against artificially lower
        redlines makes the first step pick colder CRAC outlets — banking
        thermal headroom *now* — while the committed plan is still
        simulated and verified against the true (untightened) room.
        Shallow copy: nodes, layout, derived arrays and the thermal model
        are shared; only the two redline scalars differ.  A zero margin
        returns ``self``.
        """
        if margin_c < 0:
            raise ValueError(f"margin_c must be >= 0, got {margin_c}")
        if margin_c == 0.0:
            return self
        clone = copy.copy(self)
        clone.node_redline_c = self.node_redline_c - margin_c
        clone.crac_redline_c = self.crac_redline_c - margin_c
        return clone

    def restrict(self, node_alive: np.ndarray,
                 cracs: "Sequence[CRACUnit] | None" = None
                 ) -> tuple["DataCenter", np.ndarray, np.ndarray]:
        """Degraded-inventory copy with only the surviving nodes.

        Used by the fault-injection layer (:mod:`repro.faults.inject`):
        crashed nodes disappear from the room — their cores take no
        tasks, their base power is not drawn — while the physical layout
        reference is kept (the chassis are still racked, just dark).
        No thermal model is attached; the caller derives one with
        :meth:`repro.thermal.heatflow.HeatFlowModel.without_nodes` so
        the coupling matches the reduced inventory.

        Parameters
        ----------
        node_alive:
            Boolean mask over this room's nodes; at least one node must
            survive.
        cracs:
            Replacement CRAC list (e.g. derated outlet ranges); defaults
            to this room's CRACs unchanged.  CRACs are never removed —
            a failed CRAC still moves air (see ``faults.inject``).

        Returns
        -------
        (restricted, node_map, core_map):
            The smaller room plus index maps — ``node_map[j']`` is the
            original index of restricted node ``j'``, ``core_map[k']``
            the original index of restricted core ``k'``.
        """
        from dataclasses import replace as dc_replace

        alive = np.asarray(node_alive, dtype=bool)
        if alive.shape != (self.n_nodes,):
            raise ValueError(
                f"node_alive must have {self.n_nodes} entries, got "
                f"{alive.shape}")
        node_map = np.nonzero(alive)[0]
        if node_map.size == 0:
            raise ValueError("cannot restrict away every compute node")
        if node_map.size == self.n_nodes and cracs is None:
            return self, node_map, np.arange(self.n_cores)
        nodes: list[ComputeNode] = []
        core_map_parts: list[np.ndarray] = []
        next_core = 0
        for new_j, old_j in enumerate(node_map):
            old = self.nodes[old_j]
            nodes.append(dc_replace(old, index=new_j, first_core=next_core))
            core_map_parts.append(np.arange(old.first_core,
                                            old.first_core + old.n_cores))
            next_core += old.n_cores
        core_map = np.concatenate(core_map_parts)
        restricted = DataCenter(
            node_types=self.node_types,
            nodes=nodes,
            cracs=list(self.cracs if cracs is None else cracs),
            layout=self.layout,
            node_redline_c=self.node_redline_c,
            crac_redline_c=self.crac_redline_c,
        )
        return restricted, node_map, core_map


def build_datacenter(n_nodes: int,
                     n_crac: int = 3,
                     node_types: Sequence[NodeTypeSpec] | None = None,
                     rng: np.random.Generator | None = None,
                     cop_model: CoPModel = HP_UTILITY_COP,
                     crac_outlet_range_c: tuple[float, float] = (10.0, 25.0),
                     nodes_per_rack: int = 5,
                     crac_flow_weights: Sequence[float] | None = None
                     ) -> DataCenter:
    """Assemble a data center per the paper's simulation setup.

    Parameters
    ----------
    n_nodes:
        Number of compute nodes (paper: 150).
    n_crac:
        Number of CRAC units / hot aisles (paper: 3).
    node_types:
        Node-type catalog; defaults to the two Table I types at 30%
        static power.  Types are assigned to nodes uniformly at random.
    rng:
        Source of randomness for the type assignment; a fresh default
        generator is used when omitted (pass a seeded generator for
        reproducible rooms).
    cop_model / crac_outlet_range_c:
        CRAC efficiency curve and admissible outlet temperatures.
    nodes_per_rack:
        Rack height in nodes (paper/[29]: 5, labels A-E).
    crac_flow_weights:
        Optional per-CRAC share of the total air flow (normalized
        internally).  The paper's units are homogeneous (equal weights,
        the default); heterogeneous weights model mixed CRAC fleets.
    """
    if node_types is None:
        node_types = paper_node_types()
    node_types = list(node_types)
    if not node_types:
        raise ValueError("need at least one node type")
    if rng is None:
        rng = np.random.default_rng()
    layout = build_layout(n_nodes, n_crac, nodes_per_rack)
    type_choice = rng.integers(0, len(node_types), size=n_nodes)
    nodes: list[ComputeNode] = []
    next_core = 0
    for j in range(n_nodes):
        spec = node_types[type_choice[j]]
        nodes.append(ComputeNode(
            index=j,
            spec=spec,
            type_index=int(type_choice[j]),
            rack=int(layout.rack_of_node[j]),
            slot=int(layout.slot_of_node[j]),
            label=layout.label_of_node[j],
            hot_aisle=int(layout.hot_aisle_of_node[j]),
            first_core=next_core,
        ))
        next_core += spec.cores_per_node
    total_flow = float(sum(n.spec.flow_m3s for n in nodes))
    # Section VI.G: CRAC flow set so total CRAC flow == total node flow.
    if crac_flow_weights is None:
        weights = np.full(n_crac, 1.0 / n_crac)
    else:
        weights = np.asarray(crac_flow_weights, dtype=float)
        if weights.shape != (n_crac,):
            raise ValueError(
                f"need {n_crac} CRAC flow weights, got {weights.shape}")
        if np.any(weights <= 0):
            raise ValueError("CRAC flow weights must be positive")
        weights = weights / weights.sum()
    cracs = [CRACUnit(index=i, flow_m3s=total_flow * float(weights[i]),
                      cop_model=cop_model,
                      outlet_range_c=crac_outlet_range_c)
             for i in range(n_crac)]
    return DataCenter(node_types=node_types, nodes=nodes, cracs=cracs,
                      layout=layout)
