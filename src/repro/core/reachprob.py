"""Reachable-probability utilities (Definition 9 conveniences).

Thin callers of the ``reachprob`` measure plugin
(:mod:`repro.core.measures.walk`) for working with ``PM_P`` and its
single rows -- the distribution a specific object induces over a path's
endpoint type.  The Fig. 7 experiment (authors' publication
distribution over conferences along APVC) is exactly
:func:`reach_distribution`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from .cache import PathMatrixCache
from .measures import MeasureContext, get_measure

__all__ = ["reach_prob", "reach_row", "reach_distribution"]


def reach_prob(
    graph: HeteroGraph,
    path: MetaPath,
    cache: Optional[PathMatrixCache] = None,
) -> sparse.csr_matrix:
    """``PM_P``, optionally through a :class:`PathMatrixCache`.

    The matrix the ``reachprob`` measure scores from; the cache adds
    prefix reuse and budgeted storage, never different bits.
    """
    return MeasureContext(graph=graph, cache=cache).reach(path)


def reach_row(
    graph: HeteroGraph, path: MetaPath, source_key: str
) -> np.ndarray:
    """One row of ``PM_P``: the reach distribution of a single object,
    as the ``reachprob`` measure scores it.

    Each call materialises ``PM_P``; read many rows of one path from
    one :func:`reach_prob` matrix or through one shared
    :class:`~repro.core.measures.MeasureContext` instead.
    """
    return get_measure("reachprob").vector(
        MeasureContext(graph=graph), path, source_key
    )


def reach_distribution(
    graph: HeteroGraph, path: MetaPath, source_key: str
) -> List[Tuple[str, float]]:
    """Reach distribution as ``(target_key, probability)`` pairs.

    Ordered by target node index; probabilities sum to at most 1 (less
    when the walk can dead-end on objects without out-neighbours).
    """
    probabilities = reach_row(graph, path, source_key)
    keys = graph.node_keys(path.target_type.name)
    return list(zip(keys, (float(p) for p in probabilities)))
