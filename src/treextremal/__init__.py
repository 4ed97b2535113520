"""Exact subtree counting and extremal-tree search over tree degree sequences.

The library answers three questions about the number of nonempty subtrees
phi(T) of a tree:

* how many subtrees does this tree have (and how many contain each
  vertex)?
* which trees realizing a given degree sequence minimize or maximize
  phi, exactly and exhaustively?
* do the structural facts the search relies on (minimizers are
  caterpillars, valley/mountain pendant shapes, the small-k closed forms
  and the k = 5 trichotomy) hold on every instance at desk scale?

All counts are exact integers; all searches are exhaustive with explicit
budgets; all verification sweeps are deterministic.
"""

from .caterpillars import (
    caterpillar_build,
    caterpillar_canonical,
    caterpillar_from_tree,
)
from .canonical import canonical_form, centers, rooted_code
from .counting import (
    brute_force_count,
    count_all_containing,
    count_subtrees,
    wiener_index,
)
from .degrees import DegreeSequence, degree_sequence, parse_degree_sequence
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    count_caterpillar_arrangements,
    count_free_trees,
    enumerate_all_trees,
    enumerate_caterpillars,
    enumerate_degree_sequences,
    enumerate_trees,
)
from .extremal import (
    ExtremalReport,
    Optimizer,
    TrichotomyCase,
    closed_form_phi,
    find_max_subtrees,
    find_min_subtrees,
    predict_min_k5,
    shift_branch_to_end,
)
from .prufer import prufer_decode
from .trees import (
    Tree,
    diameter,
    is_caterpillar,
    path_tree,
    star_tree,
    tree_from_edge_list,
)
from .verify import (
    CLAIM_IDS,
    VerificationReport,
    explore_wiener_correspondence,
    run_claim,
    verify_caterpillar_minimality,
    verify_closed_forms,
    verify_mountain_shape,
    verify_trichotomy,
    verify_transformation_monotonicity,
    verify_valley_shape,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeSequence",
    "DEFAULT_BUDGET",
    "EnumerationBudget",
    "ExtremalReport",
    "Optimizer",
    "Tree",
    "TrichotomyCase",
    "VerificationReport",
    "CLAIM_IDS",
    "brute_force_count",
    "canonical_form",
    "caterpillar_build",
    "caterpillar_canonical",
    "caterpillar_from_tree",
    "centers",
    "closed_form_phi",
    "count_all_containing",
    "count_caterpillar_arrangements",
    "count_free_trees",
    "enumerate_all_trees",
    "count_subtrees",
    "degree_sequence",
    "diameter",
    "enumerate_caterpillars",
    "enumerate_degree_sequences",
    "enumerate_trees",
    "explore_wiener_correspondence",
    "find_max_subtrees",
    "find_min_subtrees",
    "is_caterpillar",
    "parse_degree_sequence",
    "path_tree",
    "predict_min_k5",
    "prufer_decode",
    "rooted_code",
    "run_claim",
    "shift_branch_to_end",
    "star_tree",
    "tree_from_edge_list",
    "verify_caterpillar_minimality",
    "verify_closed_forms",
    "verify_mountain_shape",
    "verify_trichotomy",
    "verify_transformation_monotonicity",
    "verify_valley_shape",
    "wiener_index",
]
