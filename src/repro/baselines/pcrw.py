"""Path Constrained Random Walk (Lao & Cohen, 2010).

The asymmetric baseline the paper compares against throughout Section 5.
PCRW between ``s`` and ``t`` under a path ``P`` is simply the probability
that a random walker starting at ``s`` and constrained to follow ``P``
ends at ``t`` -- i.e. an entry of the reachable probability matrix
``PM_P`` (Definition 9).  Because the forward and backward walks normalise
differently, ``PCRW(s, t | P) != PCRW(t, s | P^-1)`` in general, which is
exactly the deficiency Tables 3-4 illustrate.

These functions are thin wrappers over the registered ``pcrw`` measure
plugin (:mod:`repro.core.measures.walk`): every call reads rows of the
materialised ``PM_P``, so single-source and all-pairs scores are the
same bits.  Each single-source call materialises ``PM_P`` afresh; loops
over one path should call the plugin through one shared
:class:`~repro.core.measures.MeasureContext` (an engine's
``measures``), which materialises it once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.cache import PathMatrixCache
from ..core.measures import MeasureContext, get_measure
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath

__all__ = ["pcrw_pair", "pcrw_matrix", "pcrw_vector", "pcrw_rank"]


def pcrw_matrix(
    graph: HeteroGraph,
    path: MetaPath,
    cache: Optional[PathMatrixCache] = None,
) -> np.ndarray:
    """All-pairs PCRW scores: the dense ``PM_P``.

    Materialised through the planned compute layer; pass a cache to
    reuse stored prefixes across paths.
    """
    return get_measure("pcrw").matrix(
        MeasureContext(graph=graph, cache=cache), path
    )


def pcrw_pair(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    target_key: str,
) -> float:
    """``PCRW(source, target | path)`` -- one reach probability."""
    return get_measure("pcrw").pair(
        MeasureContext(graph=graph), path, source_key, target_key
    )


def pcrw_vector(
    graph: HeteroGraph, path: MetaPath, source_key: str
) -> np.ndarray:
    """PCRW scores of one source against every target-type object."""
    return get_measure("pcrw").vector(
        MeasureContext(graph=graph), path, source_key
    )


def pcrw_rank(
    graph: HeteroGraph, path: MetaPath, source_key: str
) -> List[Tuple[str, float]]:
    """All target objects ranked by PCRW score, best first.

    Ties break by node key for determinism.
    """
    return get_measure("pcrw").rank(
        MeasureContext(graph=graph), path, source_key
    )
