"""Batched query serving: group-by-(measure, path) block scoring.

The on-line half of Section 4.6 at serving scale.  A
:class:`BatchRequest` carries many independent top-k queries -- each
naming the relevance :class:`~repro.core.measures.base.Measure` that
should answer it; the server answers them by

1. **grouping** the queries by ``(measure, group key)``, where the
   group key comes from the measure's cheap
   :meth:`~repro.core.measures.base.Measure.resolve` (for path-based
   measures the relation-name tuple; for the path-blind PPR the
   endpoint-type pair, so ``APC`` and ``APVC`` queries share one walk);
2. **preparing** each group's scoring state exactly once through the
   shared :class:`~repro.core.measures.base.MeasureContext` -- for
   HeteSim (and every HeteSim component of a ``combined`` query) that
   is the engine's single-flight half-matrix memo, so a mixed batch
   materialises each path's halves once.  With ``workers > 1`` only
   these calls fan out (:func:`~repro.core.scope.fan_out`): scoring a
   warm group is short scipy calls that hold the GIL between them.
   On the 2-CPU seed-1 relbench reference graph a warm 64-query
   batch-score batch took a median 2.63 ms at ``workers=1`` and
   4.20 ms at ``workers=2`` (4.88 ms when the pool also scored), and a
   cold 256-query mix 63.4 vs 60.4 ms (51.6 ms when the pool also
   scored), with identical rankings;
3. **scoring** all of a group's distinct sources in the calling
   thread with a single block pass
   (:meth:`~repro.core.measures.base.PreparedMeasure.score_rows`: one
   sparse GEMM plus vectorised normalisation for HeteSim) -- one
   matrix product instead of one product per query;
4. **ranking** every row of the block with one
   :func:`~repro.core.search.select_top_k_rows` call per ``normalized``
   flag (one partition and one sort for the whole block, never a full
   sort of the target axis, ties broken on the graph's memoised
   :meth:`~repro.hin.graph.HeteroGraph.key_ranks`); each query takes
   the prefix of its row's ranking that its ``k`` asks for.

Results are element-wise identical to running each measure's
single-query functions per query, at a fraction of the cost: each
distinct ``(measure, path)`` spec is resolved once per batch, the
scoring state is built once per group instead of once per query, and
the block pass and the ranking pass batch every row of a group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import PathSpec
from ..core.engine import HeteSimEngine
from ..core.measures import Measure, PreparedMeasure, QueryShape, get_measure
from ..core.measures.base import measure_series
from ..core.scope import execution_scope, fan_out
from ..core.search import select_top_k_rows
from ..obs.metrics import (
    GROUP_SIZE_BUCKETS,
    NNZ_BUCKETS,
    REGISTRY,
    SECONDS_BUCKETS,
)
from ..obs.trace import span as trace_span

_BATCH_QUERIES = REGISTRY.counter(
    "repro_batch_queries_total", "Queries answered by batch serving."
)
_BATCH_GROUPS = REGISTRY.counter(
    "repro_batch_groups_total", "Distinct (measure, path) groups scored."
)
_GROUP_SIZES = REGISTRY.histogram(
    "repro_batch_group_size",
    "Queries per distinct (measure, path) group within one batch.",
    buckets=GROUP_SIZE_BUCKETS,
)
_GEMM_SECONDS = REGISTRY.histogram(
    "repro_batch_gemm_seconds",
    "Wall time of one group's block scoring pass.",
    buckets=SECONDS_BUCKETS,
)
_GEMM_NNZ = REGISTRY.histogram(
    "repro_batch_gemm_nnz",
    "Nonzeros of one group's block score matrix.",
    buckets=NNZ_BUCKETS,
)

__all__ = [
    "Query",
    "BatchRequest",
    "QueryResult",
    "BatchStats",
    "BatchResult",
    "QueryServer",
    "serve_batch",
]


@dataclass(frozen=True)
class Query:
    """One top-k relevance query inside a batch.

    ``path`` accepts any :data:`~repro.hin.metapath.PathSpec` form
    (code string, relation names, :class:`~repro.hin.metapath.MetaPath`)
    -- or, for multi-path measures like ``combined``, a weighted path
    set such as ``"APC=0.7,APVC=0.3"``.  ``measure`` names any
    registered measure plugin (default HeteSim); ``k=None`` asks for
    the full ranking of the target type.  ``k`` clamps like a slice
    (``k <= 0`` yields an empty ranking, oversized ``k`` the full
    one), matching :func:`~repro.core.search.select_top_k`.
    """

    source: str
    path: PathSpec
    k: Optional[int] = 10
    normalized: bool = True
    measure: str = "hetesim"


@dataclass(frozen=True)
class BatchRequest:
    """A batch of queries plus its concurrency.

    An empty ``queries`` sequence is a valid (if trivial) batch: the
    server answers it with a well-formed empty
    :class:`BatchResult` rather than raising, so callers that build
    batches from filtered inputs need no special casing.

    ``workers`` bounds the pool that prepares distinct groups (builds
    their scoring state) in parallel; every group is then scored and
    ranked in the calling thread.  ``workers=1`` runs everything
    sequentially and is the reference semantics -- parallel runs
    return identical results.  The pool can only speed up cold
    batches: a warm batch runs slower at ``workers=2`` than at
    ``workers=1`` (see the module docstring).
    """

    queries: Tuple[Query, ...]
    workers: int = 1

    def __init__(
        self, queries: Sequence[Query], workers: int = 1
    ) -> None:
        queries = tuple(queries)
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "workers", workers)


@dataclass(frozen=True)
class QueryResult:
    """One query's answer: ``(target_key, score)`` pairs, best first."""

    query: Query
    ranking: Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class BatchStats:
    """How a batch was executed (per-request observability).

    ``halves_materialised`` counts the half-matrix materialisation
    *events* the batch actually triggered, read as a delta of the
    engine's ``repro_halves_materialisations_total`` counter around the
    dispatch -- on a warm engine it is 0, on a cold one it equals the
    number of distinct paths HeteSim-family groups (including
    ``combined`` components) needed.  Counting events (rather than
    pre-probing ``has_halves`` before dispatch) keeps the number honest
    when concurrent traffic or a racing ``warm()`` materialises a
    group's halves between the probe and the scoring.
    """

    num_queries: int
    num_groups: int
    group_sizes: Tuple[int, ...]
    halves_materialised: int
    workers: int
    seconds: float

    def summary(self) -> str:
        """One-line rendering (the ``serve-batch`` CLI footer)."""
        return (
            f"batch: {self.num_queries} queries in {self.num_groups} "
            f"group(s) {list(self.group_sizes)}, "
            f"{self.halves_materialised} half materialisation(s), "
            f"{self.workers} worker(s), "
            f"{self.seconds * 1e3:.1f} ms"
        )


@dataclass(frozen=True)
class BatchResult:
    """Answers in request order plus execution stats."""

    results: Tuple[QueryResult, ...]
    stats: BatchStats

    def rankings(self) -> List[Tuple[Tuple[str, float], ...]]:
        """Just the rankings, aligned with the request's query order."""
        return [result.ranking for result in self.results]


@dataclass
class _Group:
    """All queries of one ``(measure, group key)``, with positions."""

    measure: Measure
    shape: QueryShape
    spec: PathSpec
    members: List[Tuple[int, Query, int]] = field(default_factory=list)


class QueryServer:
    """Batched relevance serving over one :class:`HeteSimEngine`.

    The server owns no state beyond the engine it wraps, so one engine
    can back both a server and ad-hoc single queries; everything the
    batch materialises lands in the engine's caches and accelerates
    later traffic.

    Examples
    --------
    >>> server = QueryServer(engine)                     # doctest: +SKIP
    >>> request = BatchRequest(
    ...     [Query("Tom", "APC", k=5),
    ...      Query("Mary", "APCPA", k=5, measure="pathsim")],
    ...     workers=4,
    ... )                                                # doctest: +SKIP
    >>> result = server.run(request)                     # doctest: +SKIP
    >>> result.results[0].ranking[0]                     # doctest: +SKIP
    ('KDD', 1.0)
    """

    def __init__(self, engine: HeteSimEngine) -> None:
        self.engine = engine

    @classmethod
    def for_graph(
        cls, graph: HeteroGraph, byte_budget: Optional[int] = None
    ) -> "QueryServer":
        """Build a server (and its engine) directly from a graph."""
        return cls(HeteSimEngine(graph, byte_budget=byte_budget))

    def warm(self, paths, workers: int = 1, store=None):
        """Pre-materialise halves for ``paths`` (§4.6 off-line stage).

        Delegates to :meth:`HeteSimEngine.warm
        <repro.core.engine.HeteSimEngine.warm>`; see there for the
        ``store`` persistence contract.
        """
        return self.engine.warm(paths, workers=workers, store=store)

    def run(self, request: BatchRequest, limits=None) -> BatchResult:
        """Answer every query of ``request``; order is preserved.

        An empty batch is answered, not rejected: the result carries
        zero :class:`QueryResult` entries and well-formed stats
        (``num_queries=0``, ``num_groups=0``).

        ``limits`` (an :class:`~repro.runtime.limits.ExecutionLimits`)
        bounds the whole batch with one shared tracker: the deadline
        and cumulative budgets apply across all groups and workers, and
        a breach raises the typed
        :class:`~repro.hin.errors.ResourceLimitError` faults.  Without
        ``limits`` the batch still honours any ambient
        :func:`~repro.core.scope.execution_scope`.
        """
        if limits is not None:
            with execution_scope(tracker=limits.tracker()):
                return self.run(request)

        started = time.perf_counter()
        groups = self._group(request.queries)
        resolve_seconds = time.perf_counter() - started
        for group in groups:
            name = group.measure.name
            measure_series(_BATCH_QUERIES, name).inc(len(group.members))
            measure_series(_BATCH_GROUPS, name).inc()
            measure_series(_GROUP_SIZES, name).observe(len(group.members))
        before = self.engine.materialisation_count
        ctx = self.engine.measures
        with trace_span(
            "batch.run",
            queries=len(request.queries),
            groups=len(groups),
            workers=request.workers,
            resolve_ms=round(resolve_seconds * 1e3, 3),
        ):
            prepared = fan_out(
                lambda group: group.measure.prepare(ctx, group.spec),
                groups,
                request.workers,
            )
            rankings_per_group = [
                self._score_group(group, state)
                for group, state in zip(groups, prepared)
            ]
        materialised = self.engine.materialisation_count - before

        results: List[Optional[QueryResult]] = [None] * len(
            request.queries
        )
        for group, rankings in zip(groups, rankings_per_group):
            for (position, query, _), ranking in zip(
                group.members, rankings
            ):
                results[position] = QueryResult(
                    query=query, ranking=ranking
                )
        stats = BatchStats(
            num_queries=len(request.queries),
            num_groups=len(groups),
            group_sizes=tuple(
                len(group.members) for group in groups
            ),
            halves_materialised=materialised,
            workers=request.workers,
            seconds=time.perf_counter() - started,
        )
        return BatchResult(results=tuple(results), stats=stats)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _group(self, queries: Sequence[Query]) -> List[_Group]:
        """Resolve measures/paths/sources up front and bucket queries.

        Resolution happens before any materialisation so a malformed
        query fails the batch fast, naming its position.  Each distinct
        hashable ``(measure, path)`` spec is resolved once per batch; an
        unhashable one (a mapping of ``combined`` weights) per query.
        The bucket key is ``(measure name, measure group key)``: what
        may share one prepared scoring state is the measure's own call.
        """
        ctx = self.engine.measures
        groups: Dict[Tuple[str, tuple], _Group] = {}
        resolved: Dict[tuple, Tuple[Measure, QueryShape]] = {}
        for position, query in enumerate(queries):
            try:
                spec: Optional[tuple] = (query.measure, query.path)
                try:
                    entry = resolved.get(spec)
                except TypeError:  # an unhashable spec
                    spec, entry = None, None
                if entry is None:
                    measure = get_measure(query.measure)
                    entry = (measure, measure.resolve(ctx, query.path))
                    if spec is not None:
                        resolved[spec] = entry
                measure, shape = entry
                row = self.engine.graph.node_index(
                    shape.source_type, query.source
                )
            except QueryError:
                raise
            except Exception as exc:
                raise QueryError(
                    f"query #{position} ({query.source!r} | "
                    f"{query.path!r}) is invalid: {exc}"
                ) from exc
            key = (measure.name, shape.group_key)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group(
                    measure=measure, shape=shape, spec=query.path
                )
            group.members.append((position, query, row))
        return list(groups.values())

    def _score_group(
        self, group: _Group, prepared: PreparedMeasure
    ) -> List[Tuple[Tuple[str, float], ...]]:
        """One block scoring pass for all of a group's sources, then
        one block ranking pass per ``normalized`` flag."""
        with trace_span(
            "batch.score_group",
            measure=group.measure.name,
            path=group.shape.display,
            size=len(group.members),
        ) as group_span:
            rows = sorted({row for _, _, row in group.members})
            flags = sorted(
                {query.normalized for _, query, _ in group.members}
            )
            tick = time.perf_counter()
            blocks = {
                flag: prepared.score_rows(rows, normalized=flag)
                for flag in flags
            }
            gemm_seconds = time.perf_counter() - tick
            # HeteSim-family prepared states expose the sparse product's
            # nnz; for dense-scoring measures count the block directly.
            nnz = getattr(prepared, "last_block_nnz", None)
            if nnz is None:
                nnz = int(np.count_nonzero(blocks[flags[0]]))
            name = group.measure.name
            measure_series(_GEMM_SECONDS, name).observe(gemm_seconds)
            measure_series(_GEMM_NNZ, name).observe(nnz)

            tick = time.perf_counter()
            keys = prepared.target_keys()
            # Keys are append-only: ranks read after the keys cover at
            # least as many nodes, and their prefix orders these keys.
            ranks = self.engine.graph.key_ranks(group.shape.target_type)
            ranks = ranks[: len(keys)]
            row_position = {row: i for i, row in enumerate(rows)}
            limits = [
                len(keys) if query.k is None else max(query.k, 0)
                for _, query, _ in group.members
            ]
            takes: Dict[bool, int] = {}
            for limit, (_, query, _) in zip(limits, group.members):
                flag = query.normalized
                takes[flag] = max(takes.get(flag, 0), limit)
            ranked = {
                flag: select_top_k_rows(blocks[flag], keys, take, ranks=ranks)
                for flag, take in takes.items()
            }
            # A top-k is a prefix of the row's full (-score, key)
            # order, so every query's answer is a prefix of its row's
            # ranking; queries asking the same prefix share one tuple.
            shared: Dict[Tuple[int, bool, int], Tuple] = {}
            rankings: List[Tuple[Tuple[str, float], ...]] = []
            for limit, (_, query, row) in zip(limits, group.members):
                key = (row_position[row], query.normalized, limit)
                ranking = shared.get(key)
                if ranking is None:
                    ranking = shared[key] = tuple(
                        ranked[query.normalized][key[0]][:limit]
                    )
                rankings.append(ranking)
            select_seconds = time.perf_counter() - tick
            group_span.set(
                gemm_ms=round(gemm_seconds * 1e3, 3),
                select_ms=round(select_seconds * 1e3, 3),
                nnz=nnz,
            )
            return rankings


def serve_batch(
    engine: HeteSimEngine, request: BatchRequest, limits=None
) -> BatchResult:
    """Functional form of :meth:`QueryServer.run` for one-off batches."""
    return QueryServer(engine).run(request, limits=limits)
