"""Polytope algebra and the LP core it stands on."""

from .lp import FEAS_TOL, OPT_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpError, LpResult, chebyshev_center, lp_solve
from .polytope import (
    GeometryError,
    HPolytope,
    PolyUnion,
    RegionBudgetError,
    UnboundedSetError,
    affine_map,
    convex_hull,
    convhull_union,
    inverse_affine_map,
    merge_convex_members,
    minkowski_sum,
    pontryagin_diff,
    region_diff,
    set_equal,
    subset,
    subset_of_union,
    union_minkowski,
    union_subset,
)

__all__ = [
    "FEAS_TOL", "OPT_TOL", "INFEASIBLE", "OPTIMAL", "UNBOUNDED",
    "LpError", "LpResult", "chebyshev_center", "lp_solve",
    "GeometryError", "HPolytope", "PolyUnion", "RegionBudgetError",
    "UnboundedSetError", "affine_map", "convex_hull",
    "convhull_union", "inverse_affine_map", "merge_convex_members",
    "minkowski_sum", "pontryagin_diff", "region_diff", "set_equal",
    "subset", "subset_of_union", "union_minkowski", "union_subset",
]
