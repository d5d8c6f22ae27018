"""Materialisation cache for reachable probability matrices (Section 4.6).

The paper's second speed-up: pre-compute and store the reachable
probability matrices of *partial* paths, then answer longer-path queries
by concatenating stored pieces (``PM_{P1 P2} = PM_{P1} PM_{P2}``).  E.g.
with ``PM_CPA`` and ``PM_APA`` stored, the paths CPAPA, APAPC, CPAPC,
APCPA and APAPA are all products of stored factors (plus transposes for
reversed pieces).

:class:`PathMatrixCache` keys matrices by the path's relation-name tuple
and answers misses with :func:`repro.core.backend.materialise`: the
chain's association order depends only on the path and the graph's
sizes, a fresh cached prefix stands in where that order forms it, and
the prefixes it forms are stored.  So a matrix is the same bits
whatever the cache held.  Entries
are kept under an optional **byte budget** with least-recently-used
eviction, making the §4.6 space-vs-time trade an enforced bound rather
than an unbounded growth.  The budget also covers entries owned
elsewhere that register with :meth:`PathMatrixCache.hold` -- the
engine's memo of per-path scoring forms -- so one LRU order bounds
both.
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
from .backend import materialise, truncating

__all__ = ["CacheStats", "PathMatrixCache"]

PathKey = Tuple[str, ...]
#: What a cache slot holds: a path matrix, or a tuple of arrays and
#: matrices that live and die together (a count matrix with its
#: diagonal, a held scoring form).
Entry = Union[sparse.csr_matrix, tuple]

#: Namespace token prefixing keys of adjacency-weighted (path-count)
#: products, so they can never collide with -- or be substituted as
#: prefixes of -- the transition-weighted ``PM`` entries.
COUNT_NAMESPACE = "#counts"


def _key(path: MetaPath) -> PathKey:
    return tuple(relation.name for relation in path.relations)


def _relation_names(key: PathKey) -> PathKey:
    """The relation-name part of a key (namespace tokens stripped)."""
    return tuple(name for name in key if not name.startswith("#"))


def _nbytes(entry) -> int:
    """Bytes of an entry's CSR arrays and dense vectors."""
    if isinstance(entry, np.ndarray):
        return entry.nbytes
    if isinstance(entry, tuple):
        return sum(_nbytes(part) for part in entry)
    return entry.data.nbytes + entry.indices.nbytes + entry.indptr.nbytes


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
    """Cache of ``PM_P`` matrices with budgeted materialisation.

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
        eviction never changes results (evicted matrices are simply
        recomputed on demand).

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
        # Guards the entry dicts and counters: the serving layer
        # (repro.serve) materialises *distinct* paths concurrently
        # against one shared cache, so lookups/stores must be atomic.
        # The lock is never held across a materialisation -- only around
        # dict reads/writes -- so independent materialisations overlap.
        self._lock = threading.RLock()
        # Insertion order doubles as recency order (moved on touch).
        self._matrices: Dict[PathKey, Entry] = {}
        self._signatures: Dict[PathKey, Tuple[int, ...]] = {}
        # Held entries' owners, told when their entry is evicted.
        self._releases: Dict[PathKey, Callable[[], None]] = {}
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
            "repro_cache_entries", "Cache entries held (held forms included)."
        ).labels(cache=self.obs_label)
        self._bytes_gauge = REGISTRY.gauge(
            "repro_cache_bytes", "Bytes held by cache entries."
        ).labels(cache=self.obs_label)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _fresh(self, key: PathKey) -> bool:
        """Whether the cached entry for ``key`` reflects the current
        graph (per-relation version signature match).  Namespace tokens
        (``#``-prefixed, e.g. :data:`COUNT_NAMESPACE`) are not relation
        names and are excluded from the signature."""
        return self._signatures.get(key) == self.graph.relations_signature(
            _relation_names(key)
        )

    def _touch(self, key: PathKey) -> None:
        """Move ``key`` to most-recently-used position."""
        matrix = self._matrices.pop(key)
        self._matrices[key] = matrix

    def lookup(self, key: PathKey) -> Optional[Entry]:
        """The fresh entry stored under ``key``, marked most recently
        used; None when absent or stale.  Counts no hit or miss:
        :func:`~repro.core.backend.materialise` reads cached prefixes
        through it."""
        with self._lock:
            entry = self._matrices.get(key)
            if entry is None or not self._fresh(key):
                return None
            self._touch(key)
            return entry

    def _counted_lookup(self, key: PathKey) -> Optional[Entry]:
        """:meth:`lookup`, counted as a hit or a miss."""
        entry = self.lookup(key)
        (self._misses if entry is None else self._hits).inc()
        return entry

    def reach_prob(self, path: MetaPath) -> sparse.csr_matrix:
        """``PM_P`` for ``path``.

        Hits are served from the store; a miss is materialised by
        :func:`~repro.core.backend.materialise`, which reads and stores
        this cache's prefixes and stores the matrix itself (unless the
        ambient scope truncates).  Entries stale under the per-relation
        mutation signature are recomputed transparently (and only
        those: materialisations of untouched relations survive graph
        mutations)."""
        cached = self._counted_lookup(_key(path))
        if cached is not None:
            return cached
        return materialise(self.graph, path, cache=self)

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
        names = _key(path)
        key = (COUNT_NAMESPACE,) + names
        cached = self._counted_lookup(key)
        if cached is not None:
            return cached
        # Tagged from versions read before the first factor is built
        # (see store()).
        signature = self.graph.relations_signature(names)
        matrix = materialise(self.graph, path, weights="adjacency")
        entry = (matrix, matrix.diagonal())
        if not truncating():
            self.store(key, entry, signature)
        return entry

    # ------------------------------------------------------------------
    # storage and eviction
    # ------------------------------------------------------------------
    def store(
        self,
        key: PathKey,
        entry: Entry,
        signature: Tuple[int, ...],
        release: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Store ``entry`` as most recently used, then evict to the
        budget.  An entry larger than the whole budget is not stored
        (it would evict everything, itself included); returns whether
        it was.

        ``signature`` holds ``key``'s relation versions as read before
        the entry's first factor was built.  The graph publishes edge
        data before bumping versions, so data can only be *newer* than
        the tag -- a lookup under a newer signature then recomputes --
        never older, which would serve stale matrices as fresh forever.
        :func:`~repro.core.backend.materialise` stores the prefixes it
        forms through here.
        """
        if self.byte_budget is not None and _nbytes(entry) > self.byte_budget:
            return False
        with self._lock:
            self._matrices.pop(key, None)
            self._matrices[key] = entry
            self._signatures[key] = signature
            if release is None:
                self._releases.pop(key, None)
            else:
                self._releases[key] = release
            self._enforce_budget()
            self._sync_gauges()
        return True

    def hold(
        self,
        key: PathKey,
        entry: tuple,
        signature: Tuple[int, ...],
        release: Callable[[], None],
    ) -> bool:
        """Account an entry owned elsewhere under this cache's budget.

        ``key`` must carry a ``#``-prefixed namespace token, so it never
        collides with a path matrix's key.  The entry joins the LRU
        order like any stored matrix; when eviction drops it,
        ``release`` is called (under the cache lock) so the owner drops
        its reference too.  Returns False, holding nothing, when the
        entry alone exceeds the budget.
        """
        return self.store(key, entry, signature, release)

    def touch(self, key: PathKey) -> None:
        """Mark a held entry most recently used (no-op once evicted)."""
        with self._lock:
            if key in self._matrices:
                self._touch(key)

    def _enforce_budget(self) -> None:
        """Evict least-recently-used entries until the budget holds."""
        if self.byte_budget is None:
            return
        while self._matrices and self.nbytes > self.byte_budget:
            oldest = next(iter(self._matrices))
            del self._matrices[oldest]
            del self._signatures[oldest]
            release = self._releases.pop(oldest, None)
            if release is not None:
                release()
            self._evictions.inc()

    def _sync_gauges(self) -> None:
        """Refresh the entry/byte level gauges (call under the lock)."""
        self._entries_gauge.set(len(self._matrices))
        self._bytes_gauge.set(
            sum(_nbytes(entry) for entry in self._matrices.values())
        )

    def put(self, path: MetaPath, matrix: sparse.spmatrix) -> None:
        """Manually store a matrix for a path (e.g. loaded from disk).

        The entry is stamped with the graph's *current* relation
        versions; it is the caller's responsibility that the matrix
        matches the current graph.
        """
        key = _key(path)
        self.store(
            key,
            sparse.csr_matrix(matrix),
            self.graph.relations_signature(key),
        )

    def contains(self, path: MetaPath) -> bool:
        """True when a *fresh* ``PM_path`` is materialised."""
        key = _key(path)
        with self._lock:
            return key in self._matrices and self._fresh(key)

    def clear(self) -> None:
        """Drop all cached matrices (call after mutating the graph).

        Held entries are forgotten without calling their ``release``:
        an owner clearing the cache clears its own references.
        """
        with self._lock:
            self._matrices.clear()
            self._signatures.clear()
            self._releases.clear()
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
        """Number of entries held, scoring forms held for an owner
        included."""
        return len(self._matrices)

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the cached matrices (bytes).

        Counts the CSR data, index and indptr arrays (and the dense
        vectors stored beside them) of every entry, held ones included
        -- the §4.6 space-vs-time trade made inspectable (and, with a
        budget, enforced).
        """
        with self._lock:
            return sum(_nbytes(entry) for entry in self._matrices.values())

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
