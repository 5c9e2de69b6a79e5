"""Exact minimum-width cubic shell solver.

Given points in 1, 2 or 3 dimensions, find two concentric axis-aligned
cubes, the outer one enclosing every point, whose gap in half-side
lengths (the shell width) is as small as possible. All arithmetic is
over rationals, so results are exact.
"""

from importlib import import_module

from .errors import (CubeshellError, EmptyInputError, PreconditionError,
                     UnsupportedDimensionError, UsageError)
from .geometry import (Box, CenterDomain, Normalization, PointSet,
                       center_domain, is_smallest_enclosing_cube, linf_dist,
                       normalize, point_set, smallest_enclosing_box)
from .pointio import generate_points, load_points, parse_points, write_points
from .rational import Scalar, format_decimal, format_ratio, parse_scalar
from .shell import (Shell, best_shell_at, inner_radius_at, lift, lifted_dist,
                    planar_dist, shell_encloses)
from .solver import (SolveResult, solve, solve1d, solve2d, solve3d,
                     solve_plateau_case, solve_voronoi_case)
from .squares import (Square, UnionBoundary, clip_ball, decide, union_at,
                      union_of_squares)

# Off the solve path (the oracle needs numpy): name -> defining submodule,
# imported on first access.
_LAZY = {name: mod for mod, names in (
    ("oracle", ("CandidatePool", "candidate_pool", "exact_oracle_2d",
                "exact_oracle_3d", "grid_oracle", "oracle_plateau_level",
                "oracle_voronoi_level", "union_area_brute",
                "union_vertices_brute", "vd_candidate_oracle")),
    ("voronoi", ("Site", "VoronoiDiagram", "build_voronoi", "locate",
                 "make_sites", "vd_candidates_in_rect")),
) for name in names}

__version__ = "0.1.0"

__all__ = [
    "Box", "CandidatePool", "CenterDomain", "CubeshellError",
    "EmptyInputError", "Normalization", "PointSet", "PreconditionError",
    "Scalar", "Shell", "Site", "SolveResult", "Square", "UnionBoundary",
    "UnsupportedDimensionError", "UsageError", "VoronoiDiagram",
    "best_shell_at", "build_voronoi", "candidate_pool", "center_domain",
    "clip_ball", "decide", "exact_oracle_2d", "exact_oracle_3d",
    "format_decimal", "format_ratio", "generate_points", "grid_oracle",
    "inner_radius_at", "is_smallest_enclosing_cube", "lift", "lifted_dist",
    "linf_dist", "load_points", "locate", "make_sites", "normalize",
    "oracle_plateau_level", "oracle_voronoi_level", "parse_points",
    "parse_scalar", "planar_dist", "point_set", "shell_encloses",
    "smallest_enclosing_box", "solve", "solve1d", "solve2d", "solve3d",
    "solve_plateau_case", "solve_voronoi_case", "union_area_brute",
    "union_at", "union_of_squares", "union_vertices_brute",
    "vd_candidate_oracle", "vd_candidates_in_rect", "write_points",
]


def __getattr__(name):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
