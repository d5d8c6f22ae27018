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
halves constructor) and §4.6's off-line step: :func:`scoring_form`
turns the halves into the form the on-line step reads -- both halves
scaled to unit-norm rows, the right one stored transposed, plus both
norm vectors -- so normalised HeteSim (step 4) is one sparse product
and raw HeteSim (step 3) that product scaled by the norms.  The
on-line step lives in the HeteSim measure plugin's prepared state
(:class:`~repro.core.measures.hetesim.HeteSimPrepared`); the
functional entry points below are thin callers of it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from ..hin.decomposition import decompose_adjacency
from ..hin.graph import HeteroGraph
from ..hin.matrices import row_normalize, safe_reciprocal
from ..hin.metapath import MetaPath
from .backend import _nbytes, materialise
from .scope import ambient_tracker

__all__ = [
    "half_reach_matrices",
    "scoring_form",
    "row_norms",
    "unit_rows",
    "hetesim_context",
    "hetesim_matrix",
    "hetesim_pair",
    "hetesim_all_targets",
    "hetesim_all_sources",
]

#: A path's scoring form: ``(PM_PL with unit-norm rows, PM_{PR^-1} with
#: unit-norm rows transposed, PM_PL's row norms, PM_{PR^-1}'s row
#: norms)`` -- see :func:`scoring_form`.
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

    Both halves are materialised by
    :func:`repro.core.backend.materialise`; pass a
    :class:`~repro.core.cache.PathMatrixCache` to reuse stored prefixes
    across calls and store the ones formed.
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
    when given.

    The product with ``into_edges`` is not the matrix of any meta
    path, so it is never looked up or stored itself; its path prefixes
    are.
    """
    if cache is not None and into_edges is None:
        return cache.reach_prob(half)
    return materialise(graph, half, cache=cache, extra_right=into_edges)


def row_norms(half: sparse.csr_matrix) -> np.ndarray:
    """Euclidean norm of every row of a half matrix (Eq. 8's factors)."""
    return np.sqrt(np.asarray(half.multiply(half).sum(axis=1))).ravel()


def unit_rows(
    half: sparse.csr_matrix,
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """A copy of ``half`` with unit-norm rows, and the original norms.

    Scales the copy's CSR data in place, repeating each row's
    reciprocal norm over that row's stored entries; all-zero rows stay
    zero.  ``half`` itself (often a cached path matrix) is untouched.
    """
    norms = row_norms(half)
    unit = half.copy()
    unit.data *= np.repeat(safe_reciprocal(norms), np.diff(unit.indptr))
    return unit, norms


def scoring_form(graph: HeteroGraph, path: MetaPath, cache=None) -> Halves:
    """§4.6's off-line product for ``path``: its :data:`Halves` form.

    Both halves of :func:`half_reach_matrices` get unit-norm rows, and
    the right one is stored transposed, as CSR.  Then
    ``left[rows] @ right`` is the block of Def. 10 cosine scores with
    no further work, and scaling it by ``left_norms[rows]`` and
    ``right_norms`` rebuilds Eq. 6's raw scores.  The scoring state of
    :class:`~repro.core.measures.hetesim.HeteSimPrepared`, and what the
    engine memoises per path.  Under an ambient limit tracker the
    deadline is checked first and the form is charged, so halves that
    need no chain product (single factors, the edge-object split) are
    bounded too.
    """
    tracker = ambient_tracker()
    if tracker is not None:
        tracker.check_deadline()
    left, right = half_reach_matrices(graph, path, cache=cache)
    unit_left, left_norms = unit_rows(left)
    if right is left:
        unit_right, right_norms = unit_left, left_norms
    else:
        unit_right, right_norms = unit_rows(right)
    form = (unit_left, unit_right.T.tocsr(), left_norms, right_norms)
    if tracker is not None:
        tracker.charge(form[0].nnz + form[1].nnz, _nbytes(form))
    return form


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
