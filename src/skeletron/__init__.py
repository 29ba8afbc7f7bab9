"""Exact-arithmetic skeleta of nonarchimedean analytic curves."""

from .metric_graph import (
    MetricGraph,
    PLFunction,
    betti1,
    euler_char,
    is_isomorphic,
    refine,
    shortest_path,
    total_genus,
)
from .newton import (
    Breakpoint,
    Interval,
    TropicalLaurent,
    breakpoints,
    eval_trop,
    map_skeleton,
    slope_change_count,
    unit_decomposition,
)
from .points import (
    INFINITY,
    RationalFunction,
    Type1,
    Type2,
    eval_val,
    gauss_point,
    join,
    path_distance,
)
from .puiseux import PuiseuxElement, parse_element
from .skeleton import SkeletonTree, build_skeleton_tree, retract
from .slopes import SlopeReport, compute_F, verify_slope_formula
from .stable import (
    StabilizationReport,
    abstract_tropicalization,
    minimal_vertex_characterization,
    prune_step,
    stabilize,
    tate_skeleton,
)
