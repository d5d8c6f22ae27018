"""The memo of derived matrices (Section 4.6).

The paper's second speed-up: pre-compute and store the reachable
probability matrices of *partial* paths, then answer longer-path queries
by concatenating stored pieces (``PM_{P1 P2} = PM_{P1} PM_{P2}``).  E.g.
with ``PM_CPA`` and ``PM_APA`` stored, the paths CPAPA, APAPC, CPAPC,
APCPA and APAPA are all products of stored factors (plus transposes for
reversed pieces).

:class:`PathMatrixCache` is the one store of such derived state.  Its
entries are keyed by relation-name tuples, with one ``#``-prefixed
namespace token first where the entry is not a plain ``PM`` matrix:

* ``PM`` matrices of paths and of the prefixes
  :func:`repro.core.backend.materialise` forms (no token);
* path-count entries ``(W_P, diag(W_P))`` (:data:`COUNT_NAMESPACE`);
* HeteSim scoring forms, built by the engine (:data:`FORM_NAMESPACE`);
* the global restart-walk operator of Personalized PageRank
  (:data:`WALK_NAMESPACE`).

Every entry is tagged with its relation versions read before its build,
and all of them share one **byte budget** with least-recently-used
eviction, making the §4.6 space-vs-time trade an enforced bound rather
than an unbounded growth.  :meth:`PathMatrixCache.get_or_build` is the
one way in on a miss: concurrent misses of one key share one build.
A ``PM`` matrix is the same bits whatever the cache held, because the
chain's association order depends only on the path and the graph's
sizes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from ..obs.metrics import REGISTRY, instance_label
from .backend import _nbytes, materialise
from .scope import truncating

__all__ = [
    "CacheStats",
    "COUNT_NAMESPACE",
    "FORM_NAMESPACE",
    "PathMatrixCache",
    "WALK_NAMESPACE",
    "path_key",
]

PathKey = Tuple[str, ...]
#: What a cache slot holds: a path matrix, or a tuple of arrays and
#: matrices that live and die together (a count matrix with its
#: diagonal, a scoring form, the walk operator with its index).
Entry = Union[sparse.csr_matrix, tuple]

#: Namespace token of adjacency-weighted (path-count) entries, so they
#: can never collide with -- or be substituted as prefixes of -- the
#: transition-weighted ``PM`` entries.
COUNT_NAMESPACE = "#counts"
#: Namespace token of HeteSim scoring forms.
FORM_NAMESPACE = "#form"
#: Namespace token of the global restart-walk operator (suffixed with
#: the walk's direction); its key lists every relation, so any edit
#: anywhere makes it stale.
WALK_NAMESPACE = "#walk"


def path_key(path: MetaPath) -> PathKey:
    """The cache key of ``path``'s ``PM`` matrix: its relation names."""
    return tuple(relation.name for relation in path.relations)


def _relation_names(key: PathKey) -> PathKey:
    """The relation-name part of a key (its namespace token stripped)."""
    return key[1:] if key and key[0].startswith("#") else key


@dataclass(frozen=True)
class CacheStats:
    """Inspectable snapshot of the cache's state and counters.

    The §4.6 offline store made observable: entry count and byte volume,
    hit/miss/eviction counters, and the configured budget.  How each
    matrix was materialised is traced (``plan.execute`` spans), not
    kept here.
    """

    num_cached: int
    nbytes: int
    byte_budget: Optional[int]
    hits: int
    misses: int
    evictions: int

    def summary(self) -> str:
        """One-line counter rendering (CLI ``cache-stats`` header)."""
        budget = (
            f"{self.byte_budget}" if self.byte_budget is not None else "none"
        )
        return (
            f"cache: {self.num_cached} matrices, {self.nbytes} bytes "
            f"(budget {budget}), {self.hits} hits / {self.misses} misses / "
            f"{self.evictions} evictions"
        )


class PathMatrixCache:
    """Memo of ``PM_P`` matrices and every matrix derived from them.

    Parameters
    ----------
    graph:
        The network the matrices are computed over.  Mutations are
        detected per relation through the graph's version counters, so
        entries of untouched relations survive graph edits.
    byte_budget:
        Optional cap on :attr:`nbytes`.  When set, least-recently-used
        entries are evicted after every store so the cap always holds,
        and an entry larger than the whole budget is not stored;
        eviction never changes results (evicted entries are simply
        rebuilt on demand).

    The hit/miss counters count ``PM`` and path-count lookups
    (:meth:`reach_prob`, :meth:`path_counts`); forms and the walk
    operator are looked up through :meth:`get_or_build` uncounted.

    Examples
    --------
    >>> cache = PathMatrixCache(graph, byte_budget=1 << 20)  # doctest: +SKIP
    >>> pm = cache.reach_prob(schema.path("APVC"))           # doctest: +SKIP
    >>> cache.stats().summary()                              # doctest: +SKIP
    """

    def __init__(
        self,
        graph: HeteroGraph,
        byte_budget: Optional[int] = None,
    ) -> None:
        if byte_budget is not None and byte_budget < 0:
            raise QueryError(
                f"byte_budget must be >= 0, got {byte_budget}"
            )
        self.graph = graph
        self.byte_budget = byte_budget
        # Guards the two dicts and the byte total: the serving layer
        # builds distinct entries concurrently against one shared
        # cache.  Never held across a build, only around dict reads and
        # writes, so independent builds overlap.
        self._lock = threading.RLock()
        # key -> (signature, entry, bytes) as one value, so a read can
        # never pair an entry with another entry's signature.
        # Insertion order doubles as recency order (moved on use).
        self._entries: Dict[PathKey, Tuple[Tuple[int, ...], Entry, int]] = {}
        self._bytes = 0
        # key -> event set when the build in flight for key ends.
        self._inflight: Dict[PathKey, threading.Event] = {}
        # The hit/miss/eviction counters and the volume gauges are this
        # cache's labelled children of the process-wide registry
        # families; the public ``hits``/``misses``/``evictions``
        # attributes below are views over them, so the numbers a test
        # asserts on and the numbers an exporter scrapes are one series.
        self.obs_label = instance_label("c")
        self._hits = REGISTRY.counter(
            "repro_cache_hits_total",
            "Path-matrix cache lookups served from the store.",
        ).labels(cache=self.obs_label)
        self._misses = REGISTRY.counter(
            "repro_cache_misses_total",
            "Path-matrix cache lookups that required materialisation.",
        ).labels(cache=self.obs_label)
        self._evictions = REGISTRY.counter(
            "repro_cache_evictions_total",
            "Entries evicted to hold the byte budget.",
        ).labels(cache=self.obs_label)
        self._entries_gauge = REGISTRY.gauge(
            "repro_cache_entries",
            "Cache entries held (forms and the walk operator included).",
        ).labels(cache=self.obs_label)
        self._bytes_gauge = REGISTRY.gauge(
            "repro_cache_bytes", "Bytes held by cache entries."
        ).labels(cache=self.obs_label)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _fresh(self, key: PathKey, signature) -> Optional[Entry]:
        """The entry under ``key`` if tagged ``signature``, marked most
        recently used (call under the lock)."""
        held = self._entries.get(key)
        if held is None or held[0] != signature:
            return None
        self._entries[key] = self._entries.pop(key)
        return held[1]

    def _signature(self, key: PathKey) -> Tuple[int, ...]:
        return self.graph.relations_signature(_relation_names(key))

    def lookup(self, key: PathKey) -> Optional[Entry]:
        """The fresh entry stored under ``key``, marked most recently
        used; None when absent or stale.  Counts no hit or miss:
        :func:`~repro.core.backend.materialise` reads cached prefixes
        through it."""
        signature = self._signature(key)
        with self._lock:
            return self._fresh(key, signature)

    def get_or_build(
        self, key: PathKey, build: Callable[[], Entry]
    ) -> Tuple[Entry, bool]:
        """``(entry, built)``: the fresh entry under ``key``, made by
        ``build()`` and stored on a miss; ``built`` says whether this
        call ran ``build``.

        Concurrent misses of one key single-flight: the first caller
        builds while the others wait for that build to end and then
        look again.  A waiter whose leading caller raised finds no
        entry and builds itself, so no caller inherits another
        caller's deadline or fault.  A build may wait only on keys below its own (a form
        on its halves' ``PM`` keys; ``PM``, count and walk builds wait
        on nothing), so waits cannot cycle.  The lock is held only
        around dict reads and writes, never across a build.

        The stored entry is tagged from the versions read before
        ``build`` started: the graph publishes edge data before bumping
        versions, so data can only be *newer* than its tag (rebuilt on
        the next lookup), never older.  A caller under a truncating
        scope reads a fresh entry, but otherwise builds its own without
        storing it, leading or joining a build.
        """
        exact = not truncating()
        while True:
            signature = self._signature(key)
            with self._lock:
                entry = self._fresh(key, signature)
                if entry is not None:
                    return entry, False
                if not exact:
                    break
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = threading.Event()
                    break
            flight.wait()
        if not exact:
            return build(), True
        try:
            entry = build()
            self.store(key, entry, signature)
        finally:
            with self._lock:
                del self._inflight[key]
            flight.set()
        return entry, True

    def _counted(self, key: PathKey, build: Callable[[], Entry]) -> Entry:
        """:meth:`get_or_build`, counted as a hit or a miss."""
        entry, built = self.get_or_build(key, build)
        (self._misses if built else self._hits).inc()
        return entry

    def reach_prob(self, path: MetaPath) -> sparse.csr_matrix:
        """``PM_P`` for ``path``.

        Hits are served from the store; a miss is materialised by
        :func:`~repro.core.backend.materialise`, which reads and stores
        this cache's prefixes (unless the ambient scope truncates).
        Entries stale under the per-relation mutation signature are
        recomputed transparently (and only those: materialisations of
        untouched relations survive graph mutations)."""
        return self._counted(
            path_key(path),
            lambda: materialise(self.graph, path, cache=self),
        )

    def path_counts(
        self, path: MetaPath
    ) -> Tuple[sparse.csr_matrix, np.ndarray]:
        """``(W_P, diag(W_P))``: path-instance counts and their diagonal.

        The PathSim factor source, kept under the same byte budget as
        the ``PM`` entries.  The diagonal is computed once per
        materialised matrix and lives in the same entry, so it is
        evicted and invalidated with it.  Entries live under a
        namespaced key (:data:`COUNT_NAMESPACE` prepended to the
        relation names) so a count product can never be mistaken for
        -- or substituted as a prefix of -- a transition-weighted
        matrix; the count chain itself is materialised without the
        cache, which keeps its mirrored-half reuse for symmetric paths.
        """

        def build():
            matrix = materialise(self.graph, path, weights="adjacency")
            return matrix, matrix.diagonal()

        return self._counted((COUNT_NAMESPACE,) + path_key(path), build)

    # ------------------------------------------------------------------
    # storage and eviction
    # ------------------------------------------------------------------
    def store(
        self, key: PathKey, entry: Entry, signature: Tuple[int, ...]
    ) -> None:
        """Store ``entry`` as most recently used, then evict to the
        budget.  An entry larger than the whole budget is not stored
        (it would evict everything, itself included).

        ``signature`` holds ``key``'s relation versions as read before
        the entry's first factor was built (see :meth:`get_or_build`).
        :func:`~repro.core.backend.materialise` stores the prefixes it
        forms through here.
        """
        size = _nbytes(entry)
        if self.byte_budget is not None and size > self.byte_budget:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[2]
            self._entries[key] = (signature, entry, size)
            self._bytes += size
            budget = self.byte_budget
            while budget is not None and self._bytes > budget:
                oldest = next(iter(self._entries))
                self._bytes -= self._entries.pop(oldest)[2]
                self._evictions.inc()
            self._sync_gauges()

    def _sync_gauges(self) -> None:
        """Refresh the entry/byte level gauges (call under the lock)."""
        self._entries_gauge.set(len(self._entries))
        self._bytes_gauge.set(self._bytes)

    def put(self, path: MetaPath, matrix: sparse.spmatrix) -> None:
        """Manually store a matrix for a path (e.g. loaded from disk).

        The entry is stamped with the graph's *current* relation
        versions; it is the caller's responsibility that the matrix
        matches the current graph.
        """
        key = path_key(path)
        self.store(key, sparse.csr_matrix(matrix), self._signature(key))

    def contains(self, path: Union[MetaPath, PathKey]) -> bool:
        """True when a *fresh* entry is stored for ``path`` (a meta
        path's ``PM``, or any key); does not mark it used."""
        key = path if isinstance(path, tuple) else path_key(path)
        signature = self._signature(key)
        with self._lock:
            held = self._entries.get(key)
        return held is not None and held[0] == signature

    def clear(self) -> None:
        """Drop every entry and reset the counters.  Builds in flight
        finish and store as usual."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits.reset()
            self._misses.reset()
            self._evictions.reset()
            self._sync_gauges()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Lookups served from the store (view over the obs counter)."""
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        """Lookups that materialised (view over the obs counter)."""
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        """Budget evictions (view over the obs counter)."""
        return int(self._evictions.value)

    @property
    def num_cached(self) -> int:
        """Number of entries held, forms and the walk operator
        included."""
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the entries (bytes).

        Counts the CSR data, index and indptr arrays (and the dense
        vectors stored beside them) of every entry -- the §4.6
        space-vs-time trade made inspectable (and, with a budget,
        enforced).
        """
        return self._bytes

    def stats(self) -> CacheStats:
        """Snapshot of counters and volume."""
        return CacheStats(
            num_cached=self.num_cached,
            nbytes=self.nbytes,
            byte_budget=self.byte_budget,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
        )
