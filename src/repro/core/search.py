"""Ranked relevance search on top of HeteSim.

Implements the query patterns the paper's case studies use:

* :func:`top_k_targets` -- the most relevant target-type objects for one
  source object under a path (Tables 1, 2, 4, 7);
* :func:`top_k_pairs` -- the globally strongest (source, target) pairs;
* :func:`rank_targets` -- a full ranking of the target type, used by the
  AUC evaluation (Table 5) and the rank-difference study (Fig. 6).

:func:`select_top_k_rows` is the only code that turns scores into a
ranking (:func:`select_top_k` is its one-row case); the search
functions are thin callers of it and of the HeteSim measure plugin's
prepared state.  Every ``k`` clamps like a slice: ``k <= 0`` gives an
empty list, an oversized ``k`` the full ranking.
"""

from __future__ import annotations

import contextlib
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from .hetesim import hetesim_context
from .scope import execution_scope

__all__ = [
    "select_top_k",
    "select_top_k_rows",
    "top_k_targets",
    "top_k_pairs",
    "rank_targets",
]


def select_top_k_rows(
    block: np.ndarray,
    keys: Sequence[Any],
    k: int,
    ranks: Optional[np.ndarray] = None,
) -> List[List[Tuple[Any, float]]]:
    """The ``k`` best ``(key, score)`` pairs of every row of ``block``
    under the ``(-score, key)`` order, in one vectorised pass.

    The one ranking implementation: :func:`select_top_k` is its
    one-row case, and batch serving ranks each group's score block
    with one call.  Row ``i`` of the answer equals
    ``select_top_k(block[i], keys, k)``, i.e. the first ``k`` entries
    of that row's full ``(-score, key)`` sort, element for element.
    ``k`` clamps like a slice (``k <= 0`` selects nothing, an oversized
    ``k`` everything), and because a top-k is a prefix of the full
    order, any shorter ranking is a prefix of the answer.

    The k-th score of each row comes from one partition of the block;
    every entry at or above it is a candidate, and one ``lexsort``
    orders all candidates by ``(row, -score, key)``.  Ties at the k-th
    score are common (many targets share a score), so the key order
    is on the hot path:

    * ``ranks`` (``ranks[j]`` is the position of ``keys[j]`` in sorted
      key order, as :meth:`~repro.hin.graph.HeteroGraph.key_ranks`
      returns) breaks ties on integers, without comparing keys;
    * without ``ranks``, the candidates' keys are ranked among
      themselves; only they are read (once to rank them, and the
      selected ones again for the answer), so a lazy sequence (as
      :func:`top_k_pairs` passes) never materialises the keys of the
      other entries.

    Raises :class:`~repro.hin.errors.QueryError` when ``block``'s rows
    or ``ranks`` do not have one entry per key.
    """
    block = np.asarray(block, dtype=float)
    m, n = block.shape
    if n != len(keys):
        raise QueryError(
            f"scores has {n} entries but keys has {len(keys)}"
        )
    if ranks is not None and len(ranks) != n:
        raise QueryError(
            f"ranks has {len(ranks)} entries but keys has {n}"
        )
    take = max(0, min(k, n))
    if take == 0 or m == 0:
        return [[] for _ in range(m)]
    if take == n:
        flat = np.arange(block.size)
    else:
        # Each row's k-th largest score; partitioning the negated block
        # stays fast on mostly-zero rows, unlike selecting the
        # ``n - k``-th smallest.  Array methods skip numpy's
        # function-level dispatch, which dominates on one short row.
        negated = -block
        negated.partition(take - 1, axis=1)
        kth = -negated[:, take - 1]
        flat = (block >= kth[:, None]).ravel().nonzero()[0]
    rows, cols = np.divmod(flat, n)
    values = block.ravel()[flat]
    if ranks is None:
        labels = [keys[col] for col in cols.tolist()]
        by_key = np.fromiter(
            sorted(range(len(labels)), key=labels.__getitem__),
            dtype=np.intp,
            count=len(labels),
        )
        tiebreak = np.empty_like(by_key)
        tiebreak[by_key] = np.arange(len(labels))
    else:
        tiebreak = ranks[cols]
    order = np.lexsort((tiebreak, -values, rows))
    if m == 1:
        # Every single query lands here; the row offsets below would
        # cost it about a sixth of its selection time.
        picked = order[:take]
    else:
        # ``flat`` is ascending, so the candidates are grouped by row
        # and every row has at least ``take`` of them: keep each row's
        # first ``take`` in sorted order.
        starts = rows.searchsorted(np.arange(m))
        picked = order[np.add.outer(starts, np.arange(take)).ravel()]
    pairs = list(
        zip(
            [keys[col] for col in cols[picked].tolist()],
            values[picked].tolist(),
        )
    )
    return [pairs[i : i + take] for i in range(0, m * take, take)]


def select_top_k(
    scores: np.ndarray, keys: Sequence[Any], k: int
) -> List[Tuple[Any, float]]:
    """The ``k`` best ``(key, score)`` pairs under the ``(-score, key)``
    order, *without* sorting the full score vector.

    The selection primitive behind :func:`top_k_targets`,
    :meth:`~repro.core.engine.HeteSimEngine.top_k` and every other
    single-row ranking: the one-row case of :func:`select_top_k_rows`,
    so ``select_top_k(scores, keys, k) == rank(scores, keys)[:k]``
    element for element, with score ties resolved by key order -- the
    documented deterministic tie-break of the full-sort ranking.

    ``k`` clamps rather than raising: ``k <= 0`` selects nothing (an
    empty list) and ``k > len(keys)`` selects everything, both still
    in the deterministic ``(-score, key)`` order -- the slice
    semantics of ``rank(...)[:k]``, which a serving tier can rely on
    for edge-case requests instead of turning them into errors.

    ``keys`` may be any sequence of mutually comparable keys; it is
    indexed only for the candidates at or above the ``k``-th score, so
    a lazy sequence (as :func:`top_k_pairs` passes) never materialises
    the keys of unselected entries.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    return select_top_k_rows(scores[None], keys, k)[0]


def _bounded(limits):
    """An execution scope enforcing ``limits`` (no-op for None)."""
    if limits is None:
        return contextlib.nullcontext()
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
