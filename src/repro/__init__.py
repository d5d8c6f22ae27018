"""repro -- a reproduction of "Relevance Search in Heterogeneous Networks"
(HeteSim, Shi et al., EDBT 2012).

Public API tour
---------------
* Build a network: :class:`NetworkSchema`, :class:`HeteroGraph`,
  :class:`GraphBuilder`, or a generator from :mod:`repro.datasets`.
* Measure relevance: :class:`HeteSimEngine` (recommended), or the
  functional layer :func:`hetesim_pair` / :func:`hetesim_matrix`.
* Compare against baselines: :mod:`repro.baselines` (PCRW, PathSim,
  SimRank, Personalized PageRank).
* Run learning tasks: :mod:`repro.learning` (NCut clustering, NMI, AUC).
* Bound and degrade queries: :mod:`repro.runtime`
  (:class:`ExecutionLimits`, :class:`ResilientRuntime`,
  deterministic :class:`FaultPlan` injection, ``repro doctor``).
* Regenerate the paper's tables and figures:
  ``python -m repro.experiments <table1|...|fig7|complexity|all>``.

Quickstart
----------
>>> from repro import HeteSimEngine
>>> from repro.datasets import fig4_network
>>> engine = HeteSimEngine(fig4_network())
>>> round(engine.relevance("Tom", "KDD", "APC", normalized=False), 3)
0.5
"""

from .core import (
    HeteSimEngine,
    PathMatrixCache,
    hetesim_all_sources,
    hetesim_all_targets,
    hetesim_matrix,
    hetesim_pair,
)
from .hin import (
    GraphBuilder,
    HeteroGraph,
    MetaPath,
    NetworkSchema,
    ObjectType,
    RelationType,
    ReproError,
)
from .runtime import (
    DegradedResult,
    ExecutionLimits,
    FaultPlan,
    ResilientRuntime,
)

__version__ = "1.0.0"

__all__ = [
    "DegradedResult",
    "ExecutionLimits",
    "FaultPlan",
    "GraphBuilder",
    "HeteSimEngine",
    "HeteroGraph",
    "MetaPath",
    "NetworkSchema",
    "ObjectType",
    "PathMatrixCache",
    "RelationType",
    "ReproError",
    "ResilientRuntime",
    "__version__",
    "hetesim_all_sources",
    "hetesim_all_targets",
    "hetesim_matrix",
    "hetesim_pair",
]
