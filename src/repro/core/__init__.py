"""HeteSim core: the paper's contribution (Section 4).

Matrix-form HeteSim (:func:`hetesim_matrix` / :func:`hetesim_pair`), the
reference naive implementations used for cross-validation, path-matrix
materialisation (:mod:`repro.core.backend`) with its budgeted
path-matrix cache, ranked search, and the high-level
:class:`HeteSimEngine`.
"""

from .approx import monte_carlo_hetesim
from .backend import materialise, sparse_chain_order
from .cache import CacheStats, PathMatrixCache
from .engine import HeteSimEngine
from .explain import Contribution, explain_relevance
from .measures import (
    CombinedFit,
    CombinedMeasure,
    Measure,
    MeasureContext,
    PreparedMeasure,
    QueryShape,
    available_measures,
    fit_combined_weights,
    get_measure,
    register_measure,
)
from .hetesim import (
    half_reach_matrices,
    hetesim_all_sources,
    hetesim_all_targets,
    hetesim_matrix,
    hetesim_pair,
)
from .naive import naive_hetesim, naive_hetesim_raw
from .pathlearn import PathWeightResult, learn_path_weights
from .profiles import ObjectProfile, ProfileSection, build_profile
from .reachprob import reach_distribution, reach_prob, reach_row
from .search import rank_targets, select_top_k, top_k_pairs, top_k_targets
from .store import MatrixStore
from .variants import dice_hetesim_matrix, dice_hetesim_pair

__all__ = [
    "CacheStats",
    "CombinedFit",
    "CombinedMeasure",
    "Contribution",
    "HeteSimEngine",
    "Measure",
    "MeasureContext",
    "PreparedMeasure",
    "QueryShape",
    "available_measures",
    "fit_combined_weights",
    "get_measure",
    "register_measure",
    "explain_relevance",
    "materialise",
    "MatrixStore",
    "ObjectProfile",
    "ProfileSection",
    "PathMatrixCache",
    "PathWeightResult",
    "half_reach_matrices",
    "hetesim_all_sources",
    "hetesim_all_targets",
    "hetesim_matrix",
    "build_profile",
    "dice_hetesim_matrix",
    "dice_hetesim_pair",
    "hetesim_pair",
    "learn_path_weights",
    "monte_carlo_hetesim",
    "naive_hetesim",
    "naive_hetesim_raw",
    "rank_targets",
    "reach_distribution",
    "reach_prob",
    "reach_row",
    "select_top_k",
    "sparse_chain_order",
    "top_k_pairs",
    "top_k_targets",
]
