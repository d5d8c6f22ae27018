"""Materialisation cache for reachable probability matrices (Section 4.6).

The paper's second speed-up: pre-compute and store the reachable
probability matrices of *partial* paths, then answer longer-path queries
by concatenating stored pieces (``PM_{P1 P2} = PM_{P1} PM_{P2}``).  E.g.
with ``PM_CPA`` and ``PM_APA`` stored, the paths CPAPA, APAPC, CPAPC,
APCPA and APAPA are all products of stored factors (plus transposes for
reversed pieces).

:class:`PathMatrixCache` keys matrices by the path's relation-name tuple
and answers misses through the planned compute layer
(:mod:`repro.core.plan` / :mod:`repro.core.backend`): the planner reuses
the longest cached prefix, orders the remaining factors by estimated
sparse work, and hands prefix intermediates back for storage.  Entries
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
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from ..obs.metrics import REGISTRY, instance_label
from .backend import PlanStats, execute_plan, truncating
from .plan import plan_path

__all__ = ["CacheStats", "PathMatrixCache"]

PathKey = Tuple[str, ...]
#: What a cache slot holds: a path matrix, or a tuple of arrays and
#: matrices that live and die together (a count matrix with its
#: diagonal, a held scoring form).
Entry = Union[sparse.csr_matrix, tuple]

#: How many recent per-plan execution records the cache retains.
PLAN_LOG_LIMIT = 32

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
    hit/miss/eviction counters, the configured budget, and the execution
    record of the most recent planned materialisation.
    """

    num_cached: int
    nbytes: int
    byte_budget: Optional[int]
    hits: int
    misses: int
    evictions: int
    last_plan: Optional[PlanStats]

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
    """Cache of ``PM_P`` matrices with planned, budgeted materialisation.

    Parameters
    ----------
    graph:
        The network the matrices are computed over.  Mutations are
        detected per relation through the graph's version counters, so
        entries of untouched relations survive graph edits.
    cache_prefixes:
        When True (default) prefix products materialised on the way to a
        request are stored too, so subsequent queries sharing prefixes
        are cheap (§4.6 partial-path concatenation).
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
        cache_prefixes: bool = True,
        byte_budget: Optional[int] = None,
    ) -> None:
        if byte_budget is not None and byte_budget < 0:
            raise QueryError(
                f"byte_budget must be >= 0, got {byte_budget}"
            )
        self.graph = graph
        self.cache_prefixes = cache_prefixes
        self.byte_budget = byte_budget
        # Guards the entry dicts and counters: the serving layer
        # (repro.serve) materialises *distinct* paths concurrently
        # against one shared cache, so lookups/stores must be atomic.
        # The lock is never held across a plan execution -- only around
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
        self.plan_log: List[PlanStats] = []

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

    def freshest_prefix(
        self, key: PathKey
    ) -> Tuple[int, Optional[sparse.csr_matrix]]:
        """Longest *fresh* cached proper prefix of ``key``.

        Returns ``(length, matrix)`` -- ``(0, None)`` when nothing
        usable is stored.  Called by the planner to substitute stored
        products for leading factors.
        """
        with self._lock:
            for length in range(len(key) - 1, 0, -1):
                prefix_key = key[:length]
                prefix = self._matrices.get(prefix_key)
                if prefix is not None and self._fresh(prefix_key):
                    self._touch(prefix_key)
                    return length, prefix
            return 0, None

    def reach_prob(self, path: MetaPath) -> sparse.csr_matrix:
        """``PM_P`` for ``path``, via the planned compute layer.

        Hits are served from the store; misses are planned (longest
        fresh cached prefix reused, remaining factors in sparsity-aware
        order) and executed by :mod:`repro.core.backend`.  Entries stale
        under the per-relation mutation signature are recomputed
        transparently (and only those: materialisations of untouched
        relations survive graph mutations)."""
        key = _key(path)
        with self._lock:
            cached = self._matrices.get(key)
            if cached is not None and self._fresh(key):
                self._hits.inc()
                self._touch(key)
                return cached
            self._misses.inc()

        matrix, versions = self._planned(path)
        if not truncating():
            self._store(key, matrix, tuple(versions[name] for name in key))
        return matrix

    def extended_product(
        self, path: MetaPath, extra_right: sparse.spmatrix
    ) -> sparse.csr_matrix:
        """``PM_path @ extra_right`` in one planned execution.

        The edge-object fast path for odd relevance paths: the trailing
        explicit factor joins the chain so the planner can order it with
        everything else.  Prefix products of ``path`` are seeded into
        the cache as usual; the combined product itself is *not* stored
        (it is not the matrix of any meta path).
        """
        return self._planned(path, extra_right)[0]

    def _planned(
        self, path: MetaPath, extra_right: Optional[sparse.spmatrix] = None
    ) -> Tuple[sparse.csr_matrix, Dict[str, int]]:
        """Plan and execute ``PM_path [@ extra_right]``, seeding prefixes.

        Returns the product and the pre-plan version snapshot its
        entries are tagged from.  Nothing is seeded while the ambient
        execution scope truncates: a truncated product is not the
        matrix of any path, and storing it would serve it to later
        exact queries.
        """
        # Capture the versions BEFORE planning/executing: a mutation
        # landing mid-plan must leave the entry tagged with the older
        # signature (and therefore stale), never pair pre-mutation data
        # with the post-mutation signature.
        versions = self._versions_before_plan(_key(path))
        plan = plan_path(
            self.graph,
            path,
            cache=self,
            seed_prefixes=self.cache_prefixes and not truncating(),
            extra_right=extra_right,
        )
        matrix, stats = execute_plan(
            self.graph, plan, store=self._seeder(versions)
        )
        self._record(stats)
        return matrix, versions

    def path_counts(
        self, path: MetaPath
    ) -> Tuple[sparse.csr_matrix, np.ndarray]:
        """``(W_P, diag(W_P))``: path-instance counts and their diagonal.

        The PathSim factor source routed through the same planned
        compute layer and byte budget as the ``PM`` entries.  The
        diagonal is computed once per materialised matrix and lives in
        the same entry, so it is evicted and invalidated with it.
        Entries live under a namespaced key (:data:`COUNT_NAMESPACE`
        prepended to the relation names) so a count product can never
        be mistaken for -- or substituted as a prefix of -- a
        transition-weighted matrix.  The plan is built *without* the
        cache: prefix substitution only stores plain keys, and handing
        those to an adjacency-weighted chain would splice transition
        factors into a count product; planning standalone also keeps
        the mirrored-half reuse for symmetric paths.
        """
        names = _key(path)
        key = (COUNT_NAMESPACE,) + names
        with self._lock:
            cached = self._matrices.get(key)
            if cached is not None and self._fresh(key):
                self._hits.inc()
                self._touch(key)
                return cached
            self._misses.inc()

        versions = self._versions_before_plan(names)
        plan = plan_path(self.graph, path, weights="adjacency")
        matrix, stats = execute_plan(self.graph, plan)
        entry = (matrix, matrix.diagonal())
        if not truncating():
            self._store(
                key, entry, tuple(versions[name] for name in names)
            )
        self._record(stats)
        return entry

    def _record(self, stats: PlanStats) -> None:
        with self._lock:
            self.plan_log.append(stats)
            del self.plan_log[:-PLAN_LOG_LIMIT]

    # ------------------------------------------------------------------
    # storage and eviction
    # ------------------------------------------------------------------
    def _versions_before_plan(self, key: PathKey) -> Dict[str, int]:
        """Per-relation versions snapshotted before a plan executes.

        Entries (the product and any seeded prefixes) are tagged from
        this snapshot.  The graph publishes edge data before bumping
        versions, so data can only be *newer* than the tag -- a lookup
        under a newer signature then recomputes -- never older, which
        would serve stale matrices as fresh forever.
        """
        return {
            name: self.graph.relation_version(name) for name in key
        }

    def _seeder(
        self, versions: Dict[str, int]
    ) -> Callable[[PathKey, sparse.csr_matrix], None]:
        """Store callback for prefix products seeded mid-execution,
        tagging each prefix from the pre-plan version snapshot."""

        def store(key: PathKey, matrix: sparse.csr_matrix) -> None:
            if any(name not in versions for name in key):
                # Not covered by the snapshot (planner contract breach):
                # dropping the seed is safe, caching it untagged is not.
                return
            self._store(
                key, matrix, tuple(versions[name] for name in key)
            )

        return store

    def _store(
        self,
        key: PathKey,
        entry: Entry,
        signature: Tuple[int, ...],
        release: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Store ``entry`` as most recently used, then evict to the
        budget.  An entry larger than the whole budget is not stored
        (it would evict everything, itself included); returns whether
        it was."""
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
        return self._store(key, entry, signature, release)

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
        self._store(
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
            self.plan_log.clear()

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

    @property
    def last_plan(self) -> Optional[PlanStats]:
        """Execution record of the most recent planned materialisation."""
        return self.plan_log[-1] if self.plan_log else None

    def stats(self) -> CacheStats:
        """Snapshot of counters, volume and the latest plan record."""
        return CacheStats(
            num_cached=self.num_cached,
            nbytes=self.nbytes,
            byte_budget=self.byte_budget,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            last_plan=self.last_plan,
        )
