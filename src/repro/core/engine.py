"""High-level query engine: HeteSim with materialised half matrices.

:class:`HeteSimEngine` is the recommended entry point for repeated queries
over one network.  It keeps one
:class:`~repro.core.cache.PathMatrixCache` that holds

* reachable-probability matrices (shared across paths with common
  prefixes), and
* per path, the *scoring form* of its half matrices
  (:func:`~repro.core.hetesim.scoring_form`: unit-norm halves, the
  right one transposed, and their row norms),

under one byte budget, so that after the first query on a path,
scoring a block of sources is one sparse product -- exactly the
off-line / on-line split Section 4.6 describes.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath, PathSpec
from ..obs.metrics import REGISTRY, instance_label
from ..obs.trace import span as trace_span
from .cache import FORM_NAMESPACE, CacheStats, PathKey, PathMatrixCache, path_key
from .hetesim import Halves, scoring_form
from .measures import MeasureContext, get_measure

__all__ = ["HeteSimEngine"]


class HeteSimEngine:
    """Relevance-search engine over one heterogeneous network.

    Parameters
    ----------
    graph:
        The :class:`~repro.hin.graph.HeteroGraph` to query.  Mutations
        are detected through the graph's version counter: the next query
        after any mutation transparently rebuilds the caches.
    byte_budget:
        Optional cap (bytes) on the underlying
        :class:`~repro.core.cache.PathMatrixCache` and the per-path
        scoring forms together; the least-recently-used path matrices
        and forms are evicted to hold it.

    Examples
    --------
    >>> engine = HeteSimEngine(graph)                      # doctest: +SKIP
    >>> engine.relevance("Tom", "KDD", "APC")              # doctest: +SKIP
    0.5
    >>> engine.top_k("Tom", "APVC", k=5)                   # doctest: +SKIP
    [('KDD', 0.93), ...]
    """

    def __init__(
        self,
        graph: HeteroGraph,
        byte_budget: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.cache = PathMatrixCache(graph, byte_budget=byte_budget)
        self.obs_label = instance_label("e")
        self._materialisations = REGISTRY.counter(
            "repro_halves_materialisations_total",
            "Half-matrix materialisation events.",
        ).labels(engine=self.obs_label)
        self._memo_hits = REGISTRY.counter(
            "repro_halves_memo_hits_total",
            "halves() calls served from the fresh memo.",
        ).labels(engine=self.obs_label)
        #: The engine-backed :class:`~repro.core.measures.MeasureContext`:
        #: measure plugins resolved against it share this engine's
        #: cache (scoring forms, path matrices, the walk operator), and
        #: the engine's own queries score through it.
        self.measures = MeasureContext(engine=self)

    # ------------------------------------------------------------------
    # path handling
    # ------------------------------------------------------------------
    def path(self, spec: PathSpec) -> MetaPath:
        """Parse any accepted path specification against the schema."""
        return self.graph.schema.path(spec)

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def halves(self, path: MetaPath) -> Halves:
        """The path's scoring form, memoised in the cache.

        ``(left, right, left_norms, right_norms)``: ``PM_PL`` with
        unit-norm rows, ``PM_{PR^-1}`` with unit-norm rows and stored
        transposed (both CSR), and the two halves' original row norms
        -- see :func:`~repro.core.hetesim.scoring_form`.  Built once
        per path and never changed once stored.

        The form is a :class:`~repro.core.cache.PathMatrixCache` entry
        (:data:`~repro.core.cache.FORM_NAMESPACE`): it shares the
        engine's byte budget and LRU order with the path matrices, a
        form larger than the whole budget is returned but not stored,
        and mutating one relation only invalidates the forms of paths
        that traverse it.  Concurrent calls for one path share one
        build; calls for distinct paths build in parallel
        (:meth:`~repro.core.cache.PathMatrixCache.get_or_build`).

        Forms computed while the ambient execution scope truncates
        (``truncate_eps > 0``, a degraded rung) are returned but never
        stored, so they cannot be served to a later exact query.
        """
        form, built = self.cache.get_or_build(
            (FORM_NAMESPACE,) + path_key(path), lambda: self._form(path)
        )
        (self._materialisations if built else self._memo_hits).inc()
        return form

    def _form(self, path: MetaPath) -> Halves:
        with trace_span(
            "engine.materialise_halves",
            path=path.code(),
            engine=self.obs_label,
        ):
            return scoring_form(self.graph, path, cache=self.cache)

    def has_halves(self, path: MetaPath) -> bool:
        """True when a fresh scoring form for ``path`` is stored."""
        return self.cache.contains((FORM_NAMESPACE,) + path_key(path))

    @property
    def materialisation_count(self) -> int:
        """Total half-matrix materialisation events on this engine.

        A view over the engine's labelled child of the process-wide
        ``repro_halves_materialisations_total`` counter; the serving
        layer diffs it around a batch to count the materialisations the
        batch actually triggered (pre-probing ``has_halves`` overstates
        the number under concurrent warming).
        """
        return int(self._materialisations.value)

    def warm(
        self,
        paths: Iterable[PathSpec],
        workers: int = 1,
        store=None,
    ):
        """Pre-materialise scoring forms (§4.6 off-line).

        Resolves ``paths``, materialises each distinct path's form --
        concurrently on a :class:`~repro.serve.dispatch.Dispatcher`
        thread pool when ``workers > 1`` -- and, when ``store`` (a
        :class:`~repro.core.store.MatrixStore`) is given, persists the
        half-path ``PM`` matrices so a fresh process can reload them
        with :meth:`MatrixStore.load_into` instead of recomputing.

        Odd (edge-object) paths are memoised in process like any other,
        but their transition halves are built from a decomposed edge
        incidence, not a pure path matrix, so they cannot round-trip
        through a :class:`MatrixStore`.  Such paths are listed in
        ``WarmReport.skipped`` rather than silently passing as
        persisted; only their pure-path prefix pieces (when present)
        are saved.  Returns a
        :class:`~repro.serve.dispatch.WarmReport`.
        """
        from ..serve.dispatch import Dispatcher, WarmReport

        started = time.perf_counter()
        distinct: Dict[PathKey, MetaPath] = {}
        for spec in paths:
            meta = self.path(spec)
            distinct.setdefault(path_key(meta), meta)
        with trace_span(
            "engine.warm",
            paths=len(distinct),
            workers=workers,
            engine=self.obs_label,
        ):
            Dispatcher(workers).map(self.halves, list(distinct.values()))

        persisted: List[str] = []
        skipped: List[str] = []
        if store is not None:
            half_paths: Dict[PathKey, MetaPath] = {}
            for meta in distinct.values():
                split = meta.halves()
                if split.needs_edge_object:
                    skipped.append(meta.code())
                pieces = [split.left]
                if split.right is not None:
                    pieces.append(split.right.reverse())
                for piece in pieces:
                    if piece is not None:
                        half_paths.setdefault(path_key(piece), piece)
            store.save(
                self.graph, list(half_paths.values()), cache=self.cache
            )
            persisted = [piece.code() for piece in half_paths.values()]
        return WarmReport(
            paths=tuple(meta.code() for meta in distinct.values()),
            persisted=tuple(persisted),
            workers=workers,
            seconds=time.perf_counter() - started,
            skipped=tuple(skipped),
        )

    def runtime(
        self,
        limits=None,
        on_limit: str = "degrade",
        policy=None,
        faults=None,
    ):
        """A :class:`~repro.runtime.resilience.ResilientRuntime` bound to
        this engine.

        The runtime shares this engine's path-matrix cache, so exact
        prefixes materialised before a limit breach accelerate the
        degraded retries.  See :mod:`repro.runtime` for the limit,
        policy and fault-injection types.
        """
        from ..runtime.resilience import ResilientRuntime

        return ResilientRuntime(
            self,
            limits=limits,
            on_limit=on_limit,
            policy=policy,
            faults=faults,
        )

    def clear_cache(self) -> None:
        """Drop every materialised matrix unconditionally.

        Not needed for correctness -- staleness is detected per relation
        through the graph's mutation counters -- but reclaims memory.
        """
        self.cache.clear()

    # ------------------------------------------------------------------
    # cache introspection
    # ------------------------------------------------------------------
    def plan_stats(self) -> CacheStats:
        """Snapshot of the materialisation layer's counters and volume.

        Covers cache hits/misses/evictions and held bytes vs budget;
        each materialisation itself is traced as a ``plan.execute``
        span (see ``docs/observability.md``).
        """
        return self.cache.stats()

    # ------------------------------------------------------------------
    # measures: thin callers of the HeteSim plugin's prepared state
    # ------------------------------------------------------------------
    def _prepared(self, path: PathSpec):
        return get_measure("hetesim").prepare(self.measures, path)

    def relevance(
        self,
        source_key: str,
        target_key: str,
        path: PathSpec,
        normalized: bool = True,
    ) -> float:
        """``HeteSim(source, target | path)``.

        ``normalized=False`` gives the raw meeting probability (Eq. 6);
        the default is the cosine-normalised score of Definition 10.
        """
        return get_measure("hetesim").pair(
            self.measures, path, source_key, target_key,
            normalized=normalized,
        )

    def relevance_matrix(
        self, path: PathSpec, normalized: bool = True
    ) -> np.ndarray:
        """Dense relevance matrix of every (source, target) pair."""
        return get_measure("hetesim").matrix(
            self.measures, path, normalized=normalized
        )

    def relevance_pairs(
        self,
        pairs: List[Tuple[str, str]],
        path: PathSpec,
        normalized: bool = True,
    ) -> List[float]:
        """Scores for an explicit list of (source, target) pairs.

        The batched form the supervised-learning and link-prediction
        flows need: one form materialisation, then one row product per
        distinct source (pairs sharing a source reuse its row).
        """
        if not pairs:
            raise QueryError("pairs must be non-empty")
        prepared = self._prepared(path)
        shape = prepared.shape
        return [
            prepared.score_pair(
                self.measures.node_index(shape.source_type, source_key),
                self.measures.node_index(shape.target_type, target_key),
                normalized=normalized,
            )
            for source_key, target_key in pairs
        ]

    def relevance_submatrix(
        self,
        source_keys: List[str],
        path: PathSpec,
        normalized: bool = True,
    ) -> np.ndarray:
        """Relevance of a *subset* of sources to every target object.

        Returns a ``(len(source_keys), n_targets)`` array whose rows
        follow ``source_keys``.  Slices the materialised left half, so
        the cost is proportional to the subset -- the batched middle
        ground between :meth:`relevance_vector` and
        :meth:`relevance_matrix`.
        """
        if not source_keys:
            raise QueryError("source_keys must be non-empty")
        prepared = self._prepared(path)
        rows = [
            self.measures.node_index(prepared.shape.source_type, key)
            for key in source_keys
        ]
        return prepared.score_rows(rows, normalized=normalized)

    def relevance_vector(
        self, source_key: str, path: PathSpec, normalized: bool = True
    ) -> np.ndarray:
        """Relevance of ``source_key`` to every target-type object."""
        return get_measure("hetesim").vector(
            self.measures, path, source_key, normalized=normalized
        )

    # ------------------------------------------------------------------
    # ranked search
    # ------------------------------------------------------------------
    def rank(
        self, source_key: str, path: PathSpec, normalized: bool = True
    ) -> List[Tuple[str, float]]:
        """All target objects ranked by relevance, best first.

        Ties break by node key so results are deterministic.
        """
        return get_measure("hetesim").rank(
            self.measures, path, source_key, normalized=normalized
        )

    def top_k(
        self,
        source_key: str,
        path: PathSpec,
        k: int = 10,
        normalized: bool = True,
    ) -> List[Tuple[str, float]]:
        """The ``k`` most relevant target objects for ``source_key``.

        Selection-based (:func:`~repro.core.search.select_top_k`): the
        full target axis is never sorted, but the result -- including
        the key-order tie-break -- matches ``rank(...)[:k]`` exactly;
        ``k`` clamps like a slice (``k <= 0`` is empty, oversized ``k``
        is the full ranking).
        """
        return get_measure("hetesim").top_k(
            self.measures, path, source_key, k=k, normalized=normalized
        )

    def explain(
        self,
        source_key: str,
        target_key: str,
        path: PathSpec,
        k: int = 5,
    ):
        """Top contributing middle objects for one pair's score.

        Convenience wrapper around
        :func:`repro.core.explain.explain_relevance`; returns a list of
        :class:`~repro.core.explain.Contribution`.
        """
        from .explain import explain_relevance

        return explain_relevance(
            self.graph, self.path(path), source_key, target_key, k=k
        )

    def profile(
        self,
        source_key: str,
        paths: Mapping[str, PathSpec],
        k: int = 5,
    ) -> Dict[str, List[Tuple[str, float]]]:
        """Automatic object profiling (the paper's Task 1, Tables 1-2).

        For each labelled path, return the top-``k`` related objects of
        that path's target type.  ``paths`` maps a display label (e.g.
        ``"conferences"``) to a path specification (e.g. ``"APVC"``).
        """
        return {
            label: self.top_k(source_key, spec, k=k)
            for label, spec in paths.items()
        }
