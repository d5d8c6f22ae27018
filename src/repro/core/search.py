"""Ranked relevance search on top of HeteSim.

Implements the query patterns the paper's case studies use:

* :func:`top_k_targets` -- the most relevant target-type objects for one
  source object under a path (Tables 1, 2, 4, 7);
* :func:`top_k_pairs` -- the globally strongest (source, target) pairs;
* :func:`rank_targets` -- a full ranking of the target type, used by the
  AUC evaluation (Table 5) and the rank-difference study (Fig. 6).

:func:`select_top_k` is the only code that turns scores into a ranking;
the search functions are thin callers of it and of the HeteSim measure
plugin's prepared state.  Every ``k`` clamps like a slice: ``k <= 0``
gives an empty list, an oversized ``k`` the full ranking.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from .hetesim import hetesim_context

__all__ = [
    "select_top_k",
    "top_k_targets",
    "top_k_pairs",
    "rank_targets",
]


def select_top_k(
    scores: np.ndarray, keys: Sequence[Any], k: int
) -> List[Tuple[Any, float]]:
    """The ``k`` best ``(key, score)`` pairs under the ``(-score, key)``
    order, *without* sorting the full score vector.

    The selection primitive behind :func:`top_k_targets`,
    :meth:`~repro.core.engine.HeteSimEngine.top_k` and the batch
    serving API: :func:`numpy.argpartition` isolates the top block in
    O(n), only the selected candidates are sorted, and score ties are
    resolved by key order -- exactly the documented deterministic
    tie-break of the full-sort ranking, so
    ``select_top_k(scores, keys, k) == rank(scores, keys)[:k]``
    element for element.

    ``k`` clamps rather than raising: ``k <= 0`` selects nothing (an
    empty list) and ``k > len(keys)`` selects everything, both still
    in the deterministic ``(-score, key)`` order -- the slice
    semantics of ``rank(...)[:k]``, which a serving tier can rely on
    for edge-case requests instead of turning them into errors.

    ``keys`` may be any sequence of mutually comparable keys; it is
    indexed only for the selected and the tied candidates, so a lazy
    sequence (as :func:`top_k_pairs` passes) never materialises the
    keys of unselected entries.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    n = scores.size
    if n != len(keys):
        raise QueryError(
            f"scores has {n} entries but keys has {len(keys)}"
        )
    take = max(0, min(k, n))
    if take == 0:
        return []
    if take == n:
        chosen = list(range(n))
    else:
        # Partition for the k largest scores, then resolve boundary
        # ties deterministically: everything strictly above the k-th
        # score is in, the remaining slots go to the tied candidates
        # with the smallest keys.
        block = np.argpartition(-scores, take - 1)[:take]
        kth_score = float(scores[block].min())
        # Every score above the k-th lies inside the partitioned block;
        # ties with it may lie anywhere.
        above = block[scores[block] > kth_score]
        tied = np.nonzero(scores == kth_score)[0]
        need = take - above.size
        chosen = above.tolist() + heapq.nsmallest(
            need, tied.tolist(), key=lambda i: keys[i]
        )
    ranked = sorted(
        zip(scores[chosen].tolist(), chosen),
        key=lambda item: (-item[0], keys[item[1]]),
    )
    return [(keys[i], score) for score, i in ranked]


def _bounded(limits):
    """An execution scope enforcing ``limits`` (no-op for None)."""
    if limits is None:
        return contextlib.nullcontext()
    from ..runtime.limits import execution_scope

    return execution_scope(tracker=limits.tracker())


def rank_targets(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    normalized: bool = True,
    limits=None,
    cache=None,
) -> List[Tuple[str, float]]:
    """All target objects ranked by relevance to ``source_key``.

    Returns ``(target_key, score)`` pairs, best first.  Ties break by
    node-key order so results are deterministic.

    ``limits`` (an :class:`~repro.runtime.limits.ExecutionLimits`)
    bounds the computation: breaches raise the typed
    :class:`~repro.hin.errors.ResourceLimitError` faults.  For the
    degrading (never-crash) behaviour use
    :class:`~repro.runtime.resilience.ResilientRuntime` instead.

    ``cache`` (a :class:`~repro.core.cache.PathMatrixCache`) lets
    repeated queries reuse the materialised half matrices instead of
    rebuilding them per call -- pass
    :attr:`HeteSimEngine.cache <repro.core.engine.HeteSimEngine>` or a
    standalone cache.
    """
    measure, ctx = hetesim_context(graph, cache)
    with _bounded(limits):
        return measure.rank(ctx, path, source_key, normalized=normalized)


def top_k_targets(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    k: int = 10,
    normalized: bool = True,
    limits=None,
    cache=None,
) -> List[Tuple[str, float]]:
    """The ``k`` most relevant target objects for ``source_key``.

    Element-wise identical to ``rank_targets(...)[:k]``, including the
    deterministic key-order tie-break, without sorting the full target
    axis.  ``k`` clamps like a slice.  ``limits`` and ``cache`` behave
    as in :func:`rank_targets`.
    """
    measure, ctx = hetesim_context(graph, cache)
    with _bounded(limits):
        return measure.top_k(
            ctx, path, source_key, k=k, normalized=normalized
        )


class _PairKeys(Sequence):
    """``(source, target)`` keys of a flattened score matrix, built on
    demand so :func:`select_top_k` only materialises the ones it reads."""

    def __init__(self, sources: List[str], targets: List[str]) -> None:
        self.sources = sources
        self.targets = targets

    def __len__(self) -> int:
        return len(self.sources) * len(self.targets)

    def __getitem__(self, flat):
        source, target = divmod(int(flat), len(self.targets))
        return self.sources[source], self.targets[target]


def top_k_pairs(
    graph: HeteroGraph,
    path: MetaPath,
    k: int = 10,
    normalized: bool = True,
) -> List[Tuple[str, str, float]]:
    """The ``k`` strongest (source, target, score) triples under ``path``.

    Ordered by ``(-score, source, target)``; the result is a prefix of
    that full order even when pairs tie at the ``k``-th score.  ``k``
    clamps like a slice.  Computes the full relevance matrix, so
    intended for moderate type sizes (the off-line regime of Section
    4.6).
    """
    if k < 1:
        return []
    measure, ctx = hetesim_context(graph)
    matrix = measure.matrix(ctx, path, normalized=normalized)
    keys = _PairKeys(
        graph.node_keys(path.source_type.name),
        graph.node_keys(path.target_type.name),
    )
    return [
        (source, target, score)
        for (source, target), score in select_top_k(matrix.ravel(), keys, k)
    ]
