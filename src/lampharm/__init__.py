"""lampharm: lamplighter and product graphs as lazy oracles, with
p-harmonic Dirichlet solvers, capacity and isoperimetric probes,
spanning-line machinery, and random-walk contrast experiments."""

__version__ = "0.1.0"

from .keys import IntPoint, LampKey, PairKey, WordKey, format_key
from .graphs import (
    BudgetExceededError,
    DEFAULT_VERTEX_BUDGET,
    FiniteGraph,
    GraphOracle,
    InvalidVertexError,
    ball,
    caterpillar_graph,
    cycle_graph,
    direct_product,
    end_estimate,
    free_group_graph,
    graph_distances,
    grid_graph,
    k_fuzz,
    lamplighter,
    line_graph,
    path_graph,
)
from .descriptors import DescriptorError, parse_descriptor
from .potential import (
    DirichletProblem,
    DisconnectedInteriorError,
    NonConvergenceError,
    SolveStats,
    SolverError,
    VertexFunction,
    annulus_capacity,
    gradient,
    harmonic_residual,
    oscillation_probe,
    p_energy,
    residual_floor,
    sign_projection,
    solve_dirichlet,
)
from .isoperimetry import (
    GrowthEstimate,
    default_family,
    edge_boundary,
    growth_exponent,
    is_d_kappa,
    iso_profile,
    iso_ratio,
)
from .spanning import (
    LineRule,
    SearchResult,
    augment_ball,
    augment_with_line,
    builtin_spanning_line,
    check_line_rule,
    check_spanning_line,
    find_spanning_line,
    gradient_bound_certificate,
)
from .walks import WalkConfig, WalkSeries, tv_distance, walk_series
from .report import ExperimentReport, dirichlet_json, fmt_value

__all__ = [
    "__version__",
    "IntPoint", "LampKey", "PairKey", "WordKey", "format_key",
    "BudgetExceededError", "DEFAULT_VERTEX_BUDGET", "FiniteGraph",
    "GraphOracle", "InvalidVertexError", "ball", "caterpillar_graph",
    "cycle_graph", "direct_product", "end_estimate",
    "free_group_graph", "graph_distances", "grid_graph", "k_fuzz",
    "lamplighter", "line_graph", "path_graph",
    "DescriptorError", "parse_descriptor",
    "DirichletProblem", "DisconnectedInteriorError",
    "NonConvergenceError", "SolveStats", "SolverError", "VertexFunction",
    "annulus_capacity", "gradient", "harmonic_residual",
    "oscillation_probe", "p_energy", "residual_floor", "sign_projection",
    "solve_dirichlet",
    "GrowthEstimate", "default_family", "edge_boundary", "growth_exponent",
    "is_d_kappa", "iso_profile", "iso_ratio",
    "LineRule", "SearchResult",
    "augment_ball", "augment_with_line", "builtin_spanning_line",
    "check_line_rule", "check_spanning_line", "find_spanning_line",
    "gradient_bound_certificate",
    "WalkConfig", "WalkSeries", "tv_distance", "walk_series",
    "ExperimentReport", "dirichlet_json", "fmt_value",
]
