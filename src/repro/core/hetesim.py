"""HeteSim -- the paper's relevance measure (Section 4).

The computational form follows Equations (5)-(8):

1. Decompose the relevance path ``P`` into equal halves ``P = PL PR``
   (Definition 5).  Odd-length paths first split their middle atomic
   relation through an edge object (Definition 6 /
   :func:`repro.hin.decomposition.decompose_adjacency`).
2. Build the two reachable-probability matrices ``PM_PL`` (source walks
   forward) and ``PM_{PR^-1}`` (target walks backward) -- Definition 9.
3. Raw HeteSim (Eq. 6) is the matrix product ``PM_PL @ PM_{PR^-1}'``:
   entry ``(a, b)`` is the probability the two walkers meet at the same
   middle object.
4. Normalised HeteSim (Def. 10 / Eq. 8) is the cosine between the two
   reachable-probability row vectors, restoring self-maximum
   (``HeteSim(a, a | symmetric P) = 1``) and the [0, 1] range.

This module owns steps 1-2 (:func:`half_reach_matrices`, the one
halves constructor, and :func:`row_norms`).  Steps 3-4 live in the
HeteSim measure plugin's prepared state
(:class:`~repro.core.measures.hetesim.HeteSimPrepared`); the
functional entry points below are thin callers of it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from ..hin.decomposition import decompose_adjacency
from ..hin.graph import HeteroGraph
from ..hin.matrices import row_normalize
from ..hin.metapath import MetaPath
from .backend import materialise

__all__ = [
    "half_reach_matrices",
    "normed_halves",
    "row_norms",
    "hetesim_context",
    "hetesim_matrix",
    "hetesim_pair",
    "hetesim_all_targets",
    "hetesim_all_sources",
]

#: ``(PM_PL, PM_{PR^-1}, left row norms, right row norms)``.
Halves = Tuple[sparse.csr_matrix, sparse.csr_matrix, np.ndarray, np.ndarray]


def half_reach_matrices(
    graph: HeteroGraph, path: MetaPath, cache=None
) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """``(PM_PL, PM_{PR^-1})`` for a path (Definitions 5, 6, 9).

    ``PM_PL`` has one row per source-type object; ``PM_{PR^-1}`` one row
    per target-type object.  Both have one column per *middle* object --
    the middle node type for even-length paths, edge objects of the middle
    relation for odd-length paths.  A symmetric path's two halves are one
    matrix, materialised once.

    Both halves are materialised through the planned compute layer
    (:mod:`repro.core.backend`); pass a
    :class:`~repro.core.cache.PathMatrixCache` to reuse and seed stored
    prefixes across calls.
    """
    split = path.halves()
    if not split.needs_edge_object:
        left = _product(graph, split.left, cache)
        if split.right.reverse() == split.left:
            return left, left
        return left, _product(graph, split.right.reverse(), cache)

    w_ae, w_eb = decompose_adjacency(
        graph.adjacency(split.middle_relation.name)
    )
    forward, backward = row_normalize(w_ae), row_normalize(w_eb.T)
    if split.left is not None:
        forward = _product(graph, split.left, cache, forward)
    if split.right is not None:
        backward = _product(graph, split.right.reverse(), cache, backward)
    return forward, backward


def _product(graph: HeteroGraph, half: MetaPath, cache, into_edges=None):
    """``PM_half``, times ``into_edges`` when given, through ``cache``
    when given."""
    if cache is None:
        return materialise(graph, half, extra_right=into_edges)[0]
    if into_edges is None:
        return cache.reach_prob(half)
    return cache.extended_product(half, into_edges)


def row_norms(half: sparse.csr_matrix) -> np.ndarray:
    """Euclidean norm of every row of a half matrix (Eq. 8's factors)."""
    return np.sqrt(np.asarray(half.multiply(half).sum(axis=1))).ravel()


def normed_halves(graph: HeteroGraph, path: MetaPath, cache=None) -> Halves:
    """:func:`half_reach_matrices` plus both halves' row norms.

    The scoring state of
    :class:`~repro.core.measures.hetesim.HeteSimPrepared`, and what the
    engine memoises per path.
    """
    left, right = half_reach_matrices(graph, path, cache=cache)
    left_norms = row_norms(left)
    right_norms = left_norms if right is left else row_norms(right)
    return left, right, left_norms, right_norms


def hetesim_context(graph: HeteroGraph, cache=None):
    """``(HeteSim measure, engine-less MeasureContext)`` for ``graph``:
    what the functional entry points here and in
    :mod:`repro.core.search` score through."""
    from .measures import MeasureContext, get_measure

    return get_measure("hetesim"), MeasureContext(graph=graph, cache=cache)


def hetesim_matrix(
    graph: HeteroGraph,
    path: MetaPath,
    normalized: bool = True,
) -> np.ndarray:
    """The full relevance matrix ``HeteSim(A1, Al+1 | P)``.

    Entry ``(i, j)`` is the relevance of source-type object ``i`` to
    target-type object ``j``.  ``normalized=False`` returns the raw meeting
    probability of Eq. (6) (used by the ablation benches and the SimRank
    connection, Property 5); the default applies Def. 10's cosine
    normalisation.
    """
    measure, ctx = hetesim_context(graph)
    return measure.matrix(ctx, path, normalized=normalized)


def hetesim_pair(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    target_key: str,
    normalized: bool = True,
) -> float:
    """``HeteSim(source, target | P)`` for one pair of objects.

    ``source_key`` must name an object of the path's source type and
    ``target_key`` one of its target type; :class:`QueryError` otherwise.
    """
    measure, ctx = hetesim_context(graph)
    return measure.pair(
        ctx, path, source_key, target_key, normalized=normalized
    )


def hetesim_all_targets(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    normalized: bool = True,
    cache=None,
) -> np.ndarray:
    """Relevance of one source object to *every* target-type object.

    Returns a dense vector indexed like the target type's node indices.

    Pass a :class:`~repro.core.cache.PathMatrixCache` as ``cache`` so
    repeated queries on the same path reuse the materialised halves
    instead of rebuilding them every call (§4.6's off-line store); for
    many queries at once prefer the batch API in :mod:`repro.serve`.
    """
    measure, ctx = hetesim_context(graph, cache)
    return measure.vector(ctx, path, source_key, normalized=normalized)


def hetesim_all_sources(
    graph: HeteroGraph,
    path: MetaPath,
    target_key: str,
    normalized: bool = True,
    cache=None,
) -> np.ndarray:
    """Relevance of every source-type object to one target object.

    Symmetric twin of :func:`hetesim_all_targets`; by Property 3 it equals
    ``hetesim_all_targets(graph, path.reverse(), target_key)``.
    """
    return hetesim_all_targets(
        graph, path.reverse(), target_key, normalized=normalized,
        cache=cache,
    )
