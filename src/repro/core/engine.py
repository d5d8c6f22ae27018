"""High-level query engine: HeteSim with materialised half matrices.

:class:`HeteSimEngine` is the recommended entry point for repeated queries
over one network.  It keeps

* a :class:`~repro.core.cache.PathMatrixCache` of reachable-probability
  matrices (shared across paths with common prefixes), and
* per path, the *scoring form* of its half matrices
  (:func:`~repro.core.hetesim.scoring_form`: unit-norm halves, the
  right one transposed, and their row norms), accounted under the
  cache's byte budget,

so that after the first query on a path, scoring a block of sources is
one sparse product -- exactly the off-line / on-line split Section 4.6
describes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath, PathSpec
from ..obs.metrics import REGISTRY, instance_label
from ..obs.trace import span as trace_span
from .backend import truncating
from .cache import CacheStats, PathMatrixCache
from .hetesim import Halves, scoring_form
from .measures import MeasureContext, get_measure

__all__ = ["HeteSimEngine"]

_HalfKey = Tuple[str, ...]

#: Namespace token of the memo's entries in the cache's LRU order.
HALVES_NAMESPACE = "#halves"


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
        # One atomic entry per key: ``(signature, form)``.  The
        # signature and the result it belongs to must live in a single
        # dict value -- a reader doing one ``get`` can then never pair a
        # stale tuple with a fresh signature, which two side-by-side
        # dicts allowed whenever a materialisation landed between the
        # two unlocked reads.  Every entry is also held by the cache,
        # whose LRU eviction removes it again (``_forget``).
        self._halves: Dict[_HalfKey, Tuple[Tuple[int, ...], Halves]] = {}
        # Single-flight materialisation: one lock per half key, so two
        # in-flight queries for the same path share one materialisation
        # (the second blocks, then hits the memo) while distinct paths
        # materialise concurrently (repro.serve's dispatcher relies on
        # this).
        self._half_locks: Dict[_HalfKey, threading.Lock] = {}
        self._locks_guard = threading.Lock()
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
        #: half-matrix memo and path-matrix cache, and the engine's own
        #: queries score through it.
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
        """The path's scoring form, memoised.

        ``(left, right, left_norms, right_norms)``: ``PM_PL`` with
        unit-norm rows, ``PM_{PR^-1}`` with unit-norm rows and stored
        transposed (both CSR), and the two halves' original row norms
        -- see :func:`~repro.core.hetesim.scoring_form`.  Built once
        per path, under the path's single-flight lock, and never
        changed once memoised.

        The memo shares the engine's byte budget with the path-matrix
        cache: entries are evicted least-recently-used along with the
        cached matrices, and a form larger than the whole budget is
        returned but not memoised.  Staleness is tracked per relation:
        mutating one relation only invalidates the forms of paths that
        traverse it.

        Thread-safe with single-flight deduplication: concurrent calls
        for the same path share one materialisation (later callers
        block briefly, then return the memoised tuple), and calls for
        distinct paths proceed in parallel.  The lock-free fast path is
        sound because the memo holds ``(signature, result)`` as one
        value: the single ``dict.get`` is atomic under the GIL, so the
        signature checked always belongs to the tuple returned.

        Halves computed while the ambient execution scope truncates
        (``truncate_eps > 0``, a degraded rung) are returned but never
        memoised, so they cannot be served to a later exact query.
        """
        key = tuple(relation.name for relation in path.relations)
        signature = self.graph.relations_signature(key)
        entry = self._halves.get(key)
        if entry is not None and entry[0] == signature:
            return self._memo_hit(key, entry)
        with self._key_lock(key):
            entry = self._halves.get(key)
            if entry is not None and entry[0] == signature:
                return self._memo_hit(key, entry)
            return self._materialise_halves(path, key, signature)

    def _key_lock(self, key: _HalfKey) -> threading.Lock:
        """The single-flight lock of one path; every memo write for the
        path happens under it."""
        with self._locks_guard:
            return self._half_locks.setdefault(key, threading.Lock())

    def _memo_hit(self, key: _HalfKey, entry) -> Halves:
        self._memo_hits.inc()
        if self.cache.byte_budget is not None:
            self.cache.touch((HALVES_NAMESPACE,) + key)
        return entry[1]

    def _materialise_halves(
        self,
        path: MetaPath,
        key: _HalfKey,
        signature: Tuple[int, ...],
    ) -> Halves:
        with trace_span(
            "engine.materialise_halves",
            path=path.code(),
            engine=self.obs_label,
        ):
            result = scoring_form(self.graph, path, cache=self.cache)
        self._materialisations.inc()
        self._memoise(key, signature, result)
        return result

    def _memoise(
        self, key: _HalfKey, signature: Tuple[int, ...], form: Halves
    ) -> None:
        """Memoise ``form``, held under the cache's byte budget (call
        under the path's key lock).

        Forms built while the ambient execution scope truncates are
        never memoised, and a form the budget cannot hold is dropped
        again at once.
        """
        if truncating():
            return
        entry = (signature, form)
        with self._locks_guard:
            self._halves[key] = entry
        if not self.cache.hold(
            (HALVES_NAMESPACE,) + key,
            form,
            signature,
            lambda: self._forget(key, entry),
        ):
            self._forget(key, entry)

    def _forget(self, key: _HalfKey, entry) -> None:
        """Drop ``entry`` from the memo unless a newer one replaced it."""
        with self._locks_guard:
            if self._halves.get(key) is entry:
                del self._halves[key]

    def has_halves(self, path: MetaPath) -> bool:
        """True when fresh half matrices for ``path`` are memoised."""
        key = tuple(relation.name for relation in path.relations)
        entry = self._halves.get(key)
        return (
            entry is not None
            and entry[0] == self.graph.relations_signature(key)
        )

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
        distinct: Dict[_HalfKey, MetaPath] = {}
        for spec in paths:
            meta = self.path(spec)
            distinct.setdefault(
                tuple(r.name for r in meta.relations), meta
            )
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
            half_paths: Dict[_HalfKey, MetaPath] = {}
            for meta in distinct.values():
                split = meta.halves()
                if split.needs_edge_object:
                    skipped.append(meta.code())
                pieces = [split.left]
                if split.right is not None:
                    pieces.append(split.right.reverse())
                for piece in pieces:
                    if piece is not None:
                        half_paths.setdefault(
                            tuple(r.name for r in piece.relations), piece
                        )
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
        with self._locks_guard:
            self._halves.clear()

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
