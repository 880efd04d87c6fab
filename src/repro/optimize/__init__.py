"""Optimization utilities: piecewise-linear functions, LP wrapper, search.

These are the generic mathematical tools the paper's three-stage
assignment is built from; nothing in this subpackage knows about data
centers.
"""

from repro.optimize.linprog import (InfeasibleError, LinearProgram,
                                    LoadedProgram, LPSolution)
from repro.optimize.piecewise import PiecewiseLinear, Segment, concave_majorant_points
from repro.optimize.search import (SearchResult, coarse_to_fine_search,
                                   temperature_grid,
                                   uniform_then_coordinate_search)

__all__ = [
    "InfeasibleError",
    "LinearProgram",
    "LoadedProgram",
    "LPSolution",
    "PiecewiseLinear",
    "Segment",
    "concave_majorant_points",
    "SearchResult",
    "coarse_to_fine_search",
    "temperature_grid",
    "uniform_then_coordinate_search",
]
