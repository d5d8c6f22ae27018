"""Relevance-measure plugin protocol over one compute layer.

Every measure -- HeteSim, PathSim, PCRW, ReachProb, PPR, and the
weighted multi-path ``combined`` -- is a registered
:class:`~repro.core.measures.base.Measure` plugin sharing one
:class:`~repro.core.measures.base.MeasureContext`: the same path
materialisation (:func:`repro.core.backend.materialise`), the same
:class:`~repro.core.cache.PathMatrixCache` byte budget, the same
:class:`~repro.runtime.limits.ExecutionLimits` enforcement, and
``measure``-labelled :mod:`repro.obs` metrics.

Resolve plugins by name::

    from repro.core.measures import get_measure
    pathsim = get_measure("pathsim")
    scores = pathsim.rank(engine.measures, "APCPA", "author:sun")

Importing this package registers the built-in plugins (each module's
``register_measure`` call at import time); external code can register
additional measures through :func:`register_measure`.
"""

from .base import (
    Measure,
    MeasureContext,
    PreparedMeasure,
    QueryShape,
    available_measures,
    get_measure,
    register_measure,
)
from .hetesim import HeteSimMeasure, HeteSimPrepared
from .pathsim import PathSimMeasure, PathSimPrepared, require_symmetric
from .walk import PCRWMeasure, ReachProbMeasure, WalkPrepared
from .pagerank import PPRMeasure, PPRPrepared, restart_walk_scores
from .combined import (
    CombinedFit,
    CombinedMeasure,
    CombinedPrepared,
    fit_combined_weights,
    parse_combined_spec,
)

__all__ = [
    "Measure",
    "MeasureContext",
    "PreparedMeasure",
    "QueryShape",
    "available_measures",
    "get_measure",
    "register_measure",
    "HeteSimMeasure",
    "HeteSimPrepared",
    "PathSimMeasure",
    "PathSimPrepared",
    "require_symmetric",
    "PCRWMeasure",
    "ReachProbMeasure",
    "WalkPrepared",
    "PPRMeasure",
    "PPRPrepared",
    "restart_walk_scores",
    "CombinedFit",
    "CombinedMeasure",
    "CombinedPrepared",
    "fit_combined_weights",
    "parse_combined_spec",
]
