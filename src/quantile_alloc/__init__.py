"""Welfare-maximizing allocation of indivisible items under quantile valuations.

An agent with quantile tau values a bundle at the ceil(tau * size)-th lowest
of their item values: pessimists (tau = 0) score their worst item, optimists
(tau = 1) their best, medians sit in between.  This package provides the
domain model, exact matching machinery, polynomial-time welfare solvers for
goods and chores (with proven approximation or exactness guarantees), a
brute-force oracle for desk-scale certification, and the ``qalloc`` CLI.
"""

from .chores_solvers import (
    balanced_esc,
    balanced_esc_binary,
    esc_tau0,
    esc_tau1,
    usc_tau0_setcover,
)
from .core import (
    CHORES,
    GOODS,
    Allocation,
    Instance,
    IntractableQuantileError,
    InvalidInstanceError,
    Quantile,
    SolveReport,
    bundle_value,
    chores,
    demand_quota,
    esc,
    esw,
    goods,
    make_instance,
    quantile_index,
    threshold_binary,
    usc,
    usw,
)
from .esw_solvers import (
    balanced_esw,
    balanced_esw_binary,
    identical_unbalanced_esw,
    unbalanced_esw,
    unbalanced_esw_binary_frac,
    unbalanced_esw_binary_tau0,
    unbalanced_esw_binary_tau1,
    unbalanced_esw_binary_third,
)
from .matching import (
    Graph,
    Matching,
    bipartite_graph,
    max_cardinality_bipartite,
    max_weight_bipartite,
    max_weight_general,
)
from .oracle import (
    BudgetExceededError,
    EnumerationBudget,
    allocation_count,
    brute_matching,
    enumerate_allocations,
    opt_welfare,
)
from .usw_solvers import (
    greedy_balanced_usw,
    identical_binary_usw_unbalanced,
    optimistic_exact_usw,
    scapegoat_usw,
)

__all__ = [
    "Allocation",
    "BudgetExceededError",
    "CHORES",
    "EnumerationBudget",
    "GOODS",
    "Graph",
    "Instance",
    "IntractableQuantileError",
    "InvalidInstanceError",
    "Matching",
    "Quantile",
    "SolveReport",
    "allocation_count",
    "balanced_esc",
    "balanced_esc_binary",
    "balanced_esw",
    "balanced_esw_binary",
    "bipartite_graph",
    "brute_matching",
    "bundle_value",
    "chores",
    "demand_quota",
    "enumerate_allocations",
    "esc",
    "esc_tau0",
    "esc_tau1",
    "esw",
    "goods",
    "greedy_balanced_usw",
    "identical_binary_usw_unbalanced",
    "identical_unbalanced_esw",
    "make_instance",
    "max_cardinality_bipartite",
    "max_weight_bipartite",
    "max_weight_general",
    "opt_welfare",
    "optimistic_exact_usw",
    "quantile_index",
    "scapegoat_usw",
    "threshold_binary",
    "unbalanced_esw",
    "unbalanced_esw_binary_frac",
    "unbalanced_esw_binary_tau0",
    "unbalanced_esw_binary_tau1",
    "unbalanced_esw_binary_third",
    "usc",
    "usc_tau0_setcover",
    "usw",
]

__version__ = "0.1.0"
