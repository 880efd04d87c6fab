"""The same room under the other heat-flow backend.

The backend equivalence tests compare a model with its twin built by
:class:`~repro.thermal.heatflow.HeatFlowModel`'s explicit ``backend=``;
the dense twin is the oracle (docs/THERMAL.md).
"""

from __future__ import annotations

from repro.thermal import HeatFlowModel


def backend_twin(model: HeatFlowModel, backend: str) -> HeatFlowModel:
    """``model``'s room rebuilt on ``backend`` (``"dense"``/``"sparse"``)."""
    alpha = model.alpha.toarray() if model.backend == "sparse" \
        else model.alpha
    return HeatFlowModel(alpha, model.flows, model.n_crac, rho=model.rho,
                         cp=model.cp, backend=backend)
