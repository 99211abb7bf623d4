"""Minimum-cost many-to-many bipartite assignment.

Match each left vertex to between its demand and capacity many right
vertices (and vice versa), each pair at most once, minimizing total
integer cost.  ``solve_ga`` handles general bounds, ``solve_lca`` the
unit-demand special case; ``oracles`` holds independent checkers used to
validate them.
"""

from .expansion import ExpandedGraph, WeightTransform, transform_costs
from .hungarian import (
    DualState,
    PerfectMatching,
    apply_dual_update,
    compute_alpha_l,
    init_labels,
    solve_max_weight_perfect,
)
from .model import (
    Assignment,
    Instance,
    ValidationReport,
    assignment_cost,
    instance_digest,
    instance_from_json,
    instance_to_json,
    make_assignment,
    normalize_instance,
    validate_instance,
)
from .solver import (
    AugmentingPath,
    CapacitatedMatching,
    InfeasibleInstanceError,
    InternalSolverError,
    SolveReport,
    SolverState,
    augment,
    grow_forest,
    solve_ga,
    solve_lca,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Instance",
    "Assignment",
    "ValidationReport",
    "validate_instance",
    "normalize_instance",
    "make_assignment",
    "assignment_cost",
    "instance_to_json",
    "instance_from_json",
    "instance_digest",
    "DualState",
    "PerfectMatching",
    "init_labels",
    "compute_alpha_l",
    "apply_dual_update",
    "solve_max_weight_perfect",
    "WeightTransform",
    "ExpandedGraph",
    "transform_costs",
    "CapacitatedMatching",
    "SolverState",
    "AugmentingPath",
    "SolveReport",
    "InfeasibleInstanceError",
    "InternalSolverError",
    "grow_forest",
    "augment",
    "solve_ga",
    "solve_lca",
]
