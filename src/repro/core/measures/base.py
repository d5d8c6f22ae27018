"""The Measure plugin protocol and its shared compute context.

The TKDE HeteSim paper frames HeteSim as one instance of a general
path-based relevance framework; this package makes that framing code.
A :class:`Measure` is a named, registered scoring strategy over a
heterogeneous network; every built-in measure (HeteSim, PathSim, PCRW,
ReachProb, PPR, Combined) is a plugin over the *same* planned compute
layer:

* :class:`MeasureContext` hands each plugin the shared services --
  half-matrix materialisation (through the engine memo when one is
  attached), the :class:`~repro.core.cache.PathMatrixCache` (``PM``
  and adjacency-count entries under one byte budget), and a memoised
  global restart-walk operator for the path-blind baselines;
* materialisation runs through :func:`repro.core.backend.execute_plan`,
  so :class:`~repro.runtime.limits.ExecutionLimits` and the
  ``repro_plan_executions_total`` metrics apply to every measure;
* the ``repro_measure_*`` registry families carry a ``measure`` label,
  so per-measure traffic is one scrape away.

The split between :meth:`Measure.resolve` (cheap: parse the spec, name
the group key and endpoint types) and :meth:`Measure.prepare`
(expensive: materialise whatever the measure scores from) is what lets
``repro.serve`` bucket a mixed-measure batch by ``(measure, group
key)`` before any matrix work happens.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ...hin.errors import GraphError, QueryError
from ...hin.graph import HeteroGraph
from ...hin.metapath import MetaPath, PathSpec
from ...obs.metrics import REGISTRY
from ..backend import materialise
from ..cache import PathMatrixCache
from ..hetesim import Halves, normed_halves
from ..search import select_top_k

__all__ = [
    "MeasureContext",
    "Measure",
    "PreparedMeasure",
    "QueryShape",
    "register_measure",
    "get_measure",
    "available_measures",
]

_MEASURE_PREPARES = REGISTRY.counter(
    "repro_measure_prepares_total",
    "Prepared measure states built, by measure.",
)
_MEASURE_QUERIES = REGISTRY.counter(
    "repro_measure_queries_total",
    "Single-query scoring calls answered, by measure.",
)
_SERIES: Dict[Tuple[str, str], Any] = {}


def _count(family, measure: str) -> None:
    """``family.labels(measure=measure).inc()``, the child memoised:
    the label lookup costs more than the increment on hot query paths."""
    child = _SERIES.get((family.name, measure))
    if child is None:
        child = _SERIES.setdefault(
            (family.name, measure), family.labels(measure=measure)
        )
    child.inc()


class MeasureContext:
    """Shared compute services handed to every measure plugin.

    Wraps either a :class:`~repro.core.engine.HeteSimEngine` (the memo
    and cache of that engine are reused -- the serving configuration)
    or a bare graph with an optional
    :class:`~repro.core.cache.PathMatrixCache` (the functional
    configuration the legacy baseline wrappers use).
    """

    def __init__(
        self,
        graph: Optional[HeteroGraph] = None,
        cache: Optional[PathMatrixCache] = None,
        engine=None,
    ) -> None:
        if engine is not None:
            graph = engine.graph
            cache = engine.cache
        if graph is None:
            raise QueryError(
                "MeasureContext needs a graph or an engine"
            )
        self.graph = graph
        self.cache = cache
        self.engine = engine
        self._lock = threading.Lock()
        # One memoised (signature, (index, walk)) entry per walk
        # direction; rebuilt whenever any relation's version moves.
        self._walks: Dict[bool, Tuple[tuple, tuple]] = {}

    def path(self, spec: PathSpec) -> MetaPath:
        """Parse any accepted path specification against the schema."""
        return self.graph.schema.path(spec)

    def node_index(self, type_name: str, key: str) -> int:
        """Index of node ``key`` of ``type_name``; QueryError if absent."""
        try:
            return self.graph.node_index(type_name, key)
        except GraphError as exc:
            raise QueryError(
                f"{key!r} is not a {type_name!r} node"
            ) from exc

    def halves(self, path: MetaPath) -> Halves:
        """``(PM_PL, PM_PR^-1, left_norms, right_norms)`` for ``path``.

        Served from the engine's single-flight memo when an engine is
        attached (one materialisation per path per batch, shared across
        measures); computed through the cache otherwise.
        """
        if self.engine is not None:
            return self.engine.halves(path)
        return normed_halves(self.graph, path, cache=self.cache)

    def reach(self, path: MetaPath) -> sparse.csr_matrix:
        """``PM_path`` (Definition 9) through the planned layer."""
        if self.cache is not None:
            return self.cache.reach_prob(path)
        matrix, _ = materialise(self.graph, path)
        return matrix

    def count_matrix(self, path: MetaPath) -> sparse.csr_matrix:
        """Adjacency-weighted path-instance counts ``W_path``."""
        if self.cache is not None:
            return self.cache.count_matrix(path)
        matrix, _ = materialise(self.graph, path, weights="adjacency")
        return matrix

    def global_walk(self, undirected: bool = True):
        """``(GlobalIndex, row-normalised walk matrix)``, memoised.

        The flattened, type-blind operator Personalized PageRank steps
        on; memoised per graph mutation signature so a batch of PPR
        queries builds it once.
        """
        signature = tuple(
            self.graph.relation_version(relation.name)
            for relation in self.graph.schema.relations
        )
        with self._lock:
            entry = self._walks.get(undirected)
            if entry is not None and entry[0] == signature:
                return entry[1]
        from ...baselines.globalgraph import build_global_index
        from ...hin.matrices import row_normalize

        index = build_global_index(self.graph)
        adjacency = index.adjacency
        if undirected:
            adjacency = (adjacency + adjacency.T).tocsr()
        walk = row_normalize(adjacency)
        with self._lock:
            self._walks[undirected] = (signature, (index, walk))
        return index, walk

    @classmethod
    def of(cls, source) -> "MeasureContext":
        """Coerce a context, engine or graph into a context."""
        if isinstance(source, cls):
            return source
        if isinstance(source, HeteroGraph):
            return cls(graph=source)
        return cls(engine=source)


@dataclass(frozen=True)
class QueryShape:
    """The cheap-to-compute shape of one query spec under a measure.

    ``group_key`` is the batching unit: queries with equal
    ``(measure.name, group_key)`` share one :meth:`Measure.prepare`
    and one block scoring pass.  ``display`` is the human-readable
    rendering used in traces and summaries.
    """

    group_key: tuple
    source_type: str
    target_type: str
    display: str

    @classmethod
    def of_path(cls, meta: MetaPath) -> "QueryShape":
        """The shape of a single-path query: grouped by relation names."""
        return cls(
            group_key=tuple([r.name for r in meta.relations]),
            source_type=meta.source_type.name,
            target_type=meta.target_type.name,
            display=meta.code(),
        )


class PreparedMeasure(ABC):
    """Materialised scoring state for one ``(measure, group)`` pair.

    Built once per serve group (or per legacy-function call) by
    :meth:`Measure.prepare`; scoring many source rows against it must
    not re-materialise anything.
    """

    def __init__(self, ctx: MeasureContext, shape: QueryShape) -> None:
        self.ctx = ctx
        self.shape = shape

    @abstractmethod
    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        """Dense ``(len(rows), n_targets)`` score block.

        ``rows`` are source-type node indices; row order of the result
        follows ``rows``.  Measures without a raw/normalised split
        ignore ``normalized``.
        """

    def score_vector(
        self, row: int, normalized: bool = True
    ) -> np.ndarray:
        """Scores of one source row against every target object."""
        return self.score_rows([row], normalized=normalized)[0]

    def score_pair(
        self, row: int, col: int, normalized: bool = True
    ) -> float:
        """Score of source row ``row`` against target column ``col``.

        Defaults to indexing :meth:`score_rows`; measures with a
        cheaper exact pair formula override it.
        """
        return float(self.score_rows([row], normalized=normalized)[0, col])

    def target_keys(self) -> List[str]:
        """Target-type node keys aligned with the score columns."""
        return self.ctx.graph.node_keys(self.shape.target_type)


class Measure(ABC):
    """One registered relevance measure.

    Subclasses set :attr:`name` / :attr:`description`, implement
    :meth:`resolve` and :meth:`prepare`, and inherit single-query
    conveniences (:meth:`pair`, :meth:`vector`, :meth:`rank`,
    :meth:`top_k`, :meth:`matrix`) built on the prepared state and
    :func:`~repro.core.search.select_top_k`.  Each convenience parses
    the spec once and prepares once.  A measure instance is stateless;
    all per-graph state lives in the :class:`MeasureContext` and the
    prepared objects.
    """

    name: str = ""
    description: str = ""
    #: Whether ``normalized=False`` selects a distinct raw score.
    supports_raw: bool = True
    #: Whether the spec may be a weighted multi-path set.
    supports_multi_path: bool = False

    # -- protocol ------------------------------------------------------
    @abstractmethod
    def resolve(self, ctx: MeasureContext, spec: PathSpec) -> QueryShape:
        """Validate ``spec`` and name its group key and endpoint types.

        Must be cheap (no materialisation): the serving layer calls it
        for every query of a batch before any matrix work starts.
        """

    def prepare(
        self, ctx: MeasureContext, spec: PathSpec
    ) -> PreparedMeasure:
        """Materialise the scoring state for ``spec`` (counted)."""
        prepared = self._prepare(ctx, spec)
        _count(_MEASURE_PREPARES, self.name)
        return prepared

    @abstractmethod
    def _prepare(
        self, ctx: MeasureContext, spec: PathSpec
    ) -> PreparedMeasure:
        """Subclass hook behind :meth:`prepare`."""

    # -- single-query conveniences -------------------------------------
    def _source_query(
        self, ctx: MeasureContext, spec: PathSpec, source_key: str
    ) -> Tuple[PreparedMeasure, int]:
        """Count one query; its prepared state and source row."""
        _count(_MEASURE_QUERIES, self.name)
        prepared = self.prepare(ctx, spec)
        row = ctx.node_index(prepared.shape.source_type, source_key)
        return prepared, row

    def _scores(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        normalized: bool,
    ) -> Tuple[np.ndarray, str]:
        """One counted query: the source's score row and target type.

        The hook behind :meth:`vector`, :meth:`rank` and :meth:`top_k`;
        a measure with a cheaper single-row formula overrides it.
        """
        prepared, row = self._source_query(ctx, spec, source_key)
        return (
            prepared.score_vector(row, normalized=normalized),
            prepared.shape.target_type,
        )

    def vector(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        normalized: bool = True,
    ) -> np.ndarray:
        """Scores of one source against every target-type object."""
        return self._scores(ctx, spec, source_key, normalized)[0]

    def pair(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        target_key: str,
        normalized: bool = True,
    ) -> float:
        """Score of one (source, target) pair."""
        prepared, row = self._source_query(ctx, spec, source_key)
        col = ctx.node_index(prepared.shape.target_type, target_key)
        return prepared.score_pair(row, col, normalized=normalized)

    def _ranked(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        k: Optional[int],
        normalized: bool,
    ) -> List[Tuple[str, float]]:
        scores, target_type = self._scores(
            ctx, spec, source_key, normalized
        )
        keys = ctx.graph.node_keys(target_type)
        return select_top_k(scores, keys, len(keys) if k is None else k)

    def rank(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        normalized: bool = True,
    ) -> List[Tuple[str, float]]:
        """All target objects ranked best first (key tie-break)."""
        return self._ranked(ctx, spec, source_key, None, normalized)

    def top_k(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        k: int = 10,
        normalized: bool = True,
    ) -> List[Tuple[str, float]]:
        """The ``k`` best targets, matching ``rank(...)[:k]`` exactly.

        ``k`` clamps like a slice: ``k <= 0`` gives an empty list
        without any work, an oversized ``k`` the full ranking.
        """
        if k < 1:
            return []
        return self._ranked(ctx, spec, source_key, k, normalized)

    def matrix(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        normalized: bool = True,
    ) -> np.ndarray:
        """Dense all-pairs score matrix."""
        _count(_MEASURE_QUERIES, self.name)
        prepared = self.prepare(ctx, spec)
        n_sources = ctx.graph.num_nodes(prepared.shape.source_type)
        return prepared.score_rows(
            range(n_sources), normalized=normalized
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_MEASURES: Dict[str, Measure] = {}


def register_measure(measure: Measure) -> Measure:
    """Register a measure instance under its :attr:`Measure.name`."""
    if not measure.name:
        raise QueryError("a measure must declare a non-empty name")
    if measure.name in _MEASURES:
        raise QueryError(
            f"duplicate measure name {measure.name!r}"
        )
    _MEASURES[measure.name] = measure
    return measure


def get_measure(name: str) -> Measure:
    """Look up a registered measure by name."""
    try:
        return _MEASURES[name]
    except KeyError:
        raise QueryError(
            f"unknown measure {name!r}; available: {sorted(_MEASURES)}"
        ) from None


def available_measures() -> Dict[str, str]:
    """``{name: description}`` of every registered measure, sorted."""
    return {
        name: _MEASURES[name].description
        for name in sorted(_MEASURES)
    }
