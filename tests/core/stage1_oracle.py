"""The per-probe cold Stage 1 search, kept as the tests' oracle.

Every probe builds its own LP and solves it cold through
:func:`repro.core.stage1.solve_stage1_fixed_temps`, and the search
compares those cold objectives directly.  :func:`repro.core.stage1.solve_stage1`
screens probes on one warm-started model instead and re-solves only
what it must cold; its results must equal this oracle's bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.stage1 import (Stage1Solution, _node_segments,
                               build_arr_functions, solve_stage1_fixed_temps)
from repro.core.warmstart import WarmContext
from repro.kernels import vectorized
from repro.optimize.search import (SearchResult, coarse_to_fine_search,
                                   seeded_coordinate_search,
                                   uniform_then_coordinate_search)
from repro.thermal.constraints import ThermalLinearization


def solve_stage1_cold(datacenter, workload, *, p_const: float,
                      psi: float = 50.0, search: str = "fast",
                      coarse_step: float = 5.0, final_step: float = 1.0,
                      disabled_nodes: np.ndarray | None = None,
                      warm: WarmContext | None = None
                      ) -> tuple[Stage1Solution, SearchResult]:
    """``solve_stage1``'s contract, with every probe solved cold."""
    model = datacenter.require_thermal()
    redline = datacenter.redline_c
    lows = [c.outlet_range_c[0] for c in datacenter.cracs]
    highs = [c.outlet_range_c[1] for c in datacenter.cracs]
    if warm is not None and warm.arrs is not None:
        arrs = warm.arrs
    else:
        arrs = build_arr_functions(datacenter, workload, psi)
    if warm is not None and warm.segments is not None:
        segments = warm.segments
    else:
        segments = _node_segments(datacenter, arrs)
    if warm is not None:
        warm.arrs = arrs
        warm.segments = segments
    cop_model = vectorized.wrap_cop(datacenter.cracs[0].cop_model)
    lin_cache = warm.lin_cache if warm is not None else {}
    lp_cache = warm.lp_cache if warm is not None else None
    if disabled_nodes is None:
        disabled_key = "-"
    else:
        disabled_key = np.asarray(disabled_nodes,
                                  dtype=bool).tobytes().hex()
    key_prefix = f"{warm.stage1_key if warm is not None else ''}" \
                 f"|d{disabled_key}|t"
    best: dict[bytes, Stage1Solution] = {}

    def objective(t_vec: np.ndarray) -> float | None:
        t_key = t_vec.tobytes()
        lin = lin_cache.get(t_key)
        if lin is None:
            lin = ThermalLinearization.build(model, t_vec, redline,
                                             cop_model)
            lin_cache[t_key] = lin
        sol = solve_stage1_fixed_temps(
            datacenter, arrs, lin, p_const, disabled_nodes=disabled_nodes,
            segments=segments, lp_cache=lp_cache,
            lp_key=key_prefix + t_key.hex() if lp_cache is not None
            else None)
        if sol is None:
            return None
        best[t_key] = sol
        return sol.objective

    seed = warm.seed_t if warm is not None else None
    result = None
    if search == "fast":
        if seed is not None:
            result = seeded_coordinate_search(
                objective, seed, datacenter.n_crac, min(lows), max(highs),
                step=final_step, maximize=True)
        if result is None:
            result = uniform_then_coordinate_search(
                objective, datacenter.n_crac, min(lows), max(highs),
                step=final_step, maximize=True)
    elif search == "full":
        result = coarse_to_fine_search(
            objective, datacenter.n_crac, min(lows), max(highs),
            coarse_step=coarse_step, final_step=final_step,
            uniform_first=True, maximize=True)
    else:
        raise ValueError(f"unknown search mode {search!r}")
    return best[result.temperatures.tobytes()], result
