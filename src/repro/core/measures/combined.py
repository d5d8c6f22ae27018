"""Weighted multi-path relevance in one call (the PReP-style payoff).

A combined query scores a *set* of meta paths at once:

    score(s, t) = sum_i  w_i * HeteSim(s, t | P_i)

with user-supplied weights, or weights fit against labelled queries by
grid search over the simplex maximising a :mod:`repro.learning.ranking`
metric (:func:`fit_combined_weights`).

Specs are weighted path sets in any of three forms::

    "APC=0.7,APVC=0.3"          # string, explicit weights
    "APC,APVC"                  # string, uniform weights
    {"APC": 0.7, "APVC": 0.3}   # mapping
    [("APC", 0.7), ("APVC", 0.3)]  # pair sequence

Every component is scored through the HeteSim plugin's prepared state,
i.e. through the engine's half-matrix memo when one is attached -- a
mixed batch containing ``combined`` and plain ``hetesim`` queries on a
shared path materialises that path's halves exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...hin.errors import QueryError
from ...hin.metapath import MetaPath, PathSpec
from .base import (
    Measure,
    MeasureContext,
    PreparedMeasure,
    QueryShape,
    get_measure,
    register_measure,
)
from ..search import select_top_k

__all__ = [
    "CombinedMeasure",
    "CombinedPrepared",
    "CombinedFit",
    "parse_combined_spec",
    "fit_combined_weights",
    "weights_spec",
]


def _component_items(spec) -> List[Tuple[PathSpec, float]]:
    """Normalise any accepted spec form into (path spec, raw weight)."""
    if isinstance(spec, str):
        items = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            code, sep, weight = part.partition("=")
            items.append(
                (code.strip(), float(weight) if sep else 1.0)
            )
        return items
    if isinstance(spec, Mapping):
        return [(code, float(w)) for code, w in spec.items()]
    if isinstance(spec, MetaPath):
        return [(spec, 1.0)]
    if isinstance(spec, Sequence):
        items = []
        for entry in spec:
            if (
                isinstance(entry, tuple)
                and len(entry) == 2
                and isinstance(entry[1], (int, float))
            ):
                items.append((entry[0], float(entry[1])))
            else:
                items.append((entry, 1.0))
        return items
    return [(spec, 1.0)]


def parse_combined_spec(
    ctx: MeasureContext, spec
) -> List[Tuple[MetaPath, float]]:
    """Parse and validate a weighted path set; weights sum to 1.

    Raises :class:`~repro.hin.errors.QueryError` for empty sets,
    non-positive weights, or components whose endpoint types disagree
    (every component must answer the same source/target question).
    """
    try:
        items = _component_items(spec)
    except ValueError as exc:
        raise QueryError(
            f"bad combined spec {spec!r}: {exc}"
        ) from exc
    if not items:
        raise QueryError("a combined spec needs at least one path")
    components: List[Tuple[MetaPath, float]] = []
    for code, weight in items:
        if weight <= 0:
            raise QueryError(
                f"combined weight for {code!r} must be > 0, "
                f"got {weight}"
            )
        components.append((ctx.path(code), weight))
    first = components[0][0]
    for meta, _ in components[1:]:
        if (
            meta.source_type != first.source_type
            or meta.target_type != first.target_type
        ):
            raise QueryError(
                f"combined paths must share endpoint types: "
                f"{first.code()} is "
                f"{first.source_type.name}->{first.target_type.name} "
                f"but {meta.code()} is "
                f"{meta.source_type.name}->{meta.target_type.name}"
            )
    total = sum(weight for _, weight in components)
    return [(meta, weight / total) for meta, weight in components]


def combined_spec_string(
    components: Sequence[Tuple[MetaPath, float]]
) -> str:
    """Render components back to the canonical string form."""
    return ",".join(
        f"{meta.code()}={weight:g}" for meta, weight in components
    )


class CombinedPrepared(PreparedMeasure):
    """Per-component HeteSim prepared states plus their weights."""

    def __init__(self, ctx, shape, parts) -> None:
        super().__init__(ctx, shape)
        self.parts = parts  # [(HeteSimPrepared, weight), ...]

    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        rows = list(rows)
        total: Optional[np.ndarray] = None
        for prepared, weight in self.parts:
            block = weight * prepared.score_rows(
                rows, normalized=normalized
            )
            total = block if total is None else total + block
        return total


class CombinedMeasure(Measure):
    """Weighted sum of HeteSim over a meta-path set."""

    name = "combined"
    description = (
        "Combined: weighted HeteSim over a meta-path set, e.g. "
        "'APC=0.7,APVC=0.3' (uniform weights when omitted)"
    )
    supports_multi_path = True

    def resolve(self, ctx: MeasureContext, spec) -> QueryShape:
        components = parse_combined_spec(ctx, spec)
        first = components[0][0]
        return QueryShape(
            group_key=tuple(
                (tuple(r.name for r in meta.relations), weight)
                for meta, weight in components
            ),
            source_type=first.source_type.name,
            target_type=first.target_type.name,
            display=combined_spec_string(components),
        )

    def _prepare(self, ctx: MeasureContext, spec) -> CombinedPrepared:
        components = parse_combined_spec(ctx, spec)
        hetesim = get_measure("hetesim")
        parts = [
            (hetesim.prepare(ctx, meta), weight)
            for meta, weight in components
        ]
        return CombinedPrepared(ctx, self.resolve(ctx, spec), parts)


register_measure(CombinedMeasure())


# ----------------------------------------------------------------------
# weight fitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CombinedFit:
    """Result of :func:`fit_combined_weights`.

    ``weights`` maps path code to its fitted simplex weight; ``spec``
    is the ready-to-query combined spec string; ``score`` is the mean
    ranking-metric value the weights achieved on the training queries.
    """

    weights: Dict[str, float]
    score: float
    metric: str

    @property
    def spec(self) -> str:
        """The fitted weights as a ready-to-query combined spec."""
        return weights_spec(self.weights)


def weights_spec(weights: Mapping[str, float]) -> str:
    """Render ``{path code: weight}`` as a combined spec string.

    Zero-weight paths are dropped (a valid combined spec needs
    strictly positive weights); weights keep full float precision.
    """
    return ",".join(
        f"{code}={float(weight)!r}"
        for code, weight in weights.items()
        if weight > 0
    )


def _metric_fn(metric: str, k: int):
    from ...learning import ranking

    if metric == "ap":
        return lambda ranked, relevant: ranking.average_precision(
            ranked, relevant
        )
    if metric == "ndcg":
        return lambda ranked, relevant: ranking.ndcg_at_k(
            ranked, relevant, k
        )
    if metric == "precision":
        return lambda ranked, relevant: ranking.precision_at_k(
            ranked, relevant, k
        )
    if metric == "rr":
        return lambda ranked, relevant: ranking.reciprocal_rank(
            ranked, relevant
        )
    raise QueryError(
        f"unknown ranking metric {metric!r}; "
        "choose from ap, ndcg, precision, rr"
    )


def _simplex_grid(dims: int, resolution: int) -> List[Tuple[float, ...]]:
    """All weight vectors w_i = n_i / resolution with sum(n_i) fixed."""
    points: List[Tuple[float, ...]] = []

    def extend(prefix: List[int], remaining: int) -> None:
        if len(prefix) == dims - 1:
            points.append(
                tuple(n / resolution for n in prefix + [remaining])
            )
            return
        for n in range(remaining + 1):
            extend(prefix + [n], remaining - n)

    extend([], resolution)
    return points


def fit_combined_weights(
    context,
    paths: Sequence[PathSpec],
    judgments: Mapping[str, object],
    metric: str = "ap",
    k: int = 10,
    resolution: int = 10,
    normalized: bool = True,
) -> CombinedFit:
    """Fit simplex weights for a combined query by grid search.

    Parameters
    ----------
    context:
        A :class:`MeasureContext`, a
        :class:`~repro.core.engine.HeteSimEngine` or a bare graph.
    paths:
        The candidate meta paths (must share endpoint types).
    judgments:
        ``{source_key: relevant}`` where ``relevant`` is a set of
        relevant target keys or a graded ``{key: gain}`` mapping --
        exactly the :mod:`repro.learning.ranking` contract.
    metric:
        ``"ap"`` (default), ``"ndcg"``, ``"precision"`` or ``"rr"``.
    resolution:
        Simplex grid granularity: weights are multiples of
        ``1/resolution``.  Evaluation is cheap (per-path score vectors
        are computed once per query, each grid point is a weighted
        sum), so the default of 10 costs ``C(10+m-1, m-1)`` vector
        additions for ``m`` paths.

    The search is deterministic: ties keep the earliest grid point.
    """
    if not judgments:
        raise QueryError("judgments must be non-empty")
    if resolution < 1:
        raise QueryError(
            f"resolution must be >= 1, got {resolution}"
        )
    ctx = MeasureContext.of(context)
    components = parse_combined_spec(
        ctx, [(path, 1.0) for path in paths]
    )
    metas = [meta for meta, _ in components]
    score_fn = _metric_fn(metric, k)
    hetesim = get_measure("hetesim")
    keys = ctx.graph.node_keys(metas[0].target_type.name)

    prepared = [hetesim.prepare(ctx, meta) for meta in metas]
    per_query: List[Tuple[List[np.ndarray], object]] = []
    for source_key, relevant in judgments.items():
        row = ctx.graph.node_index(
            metas[0].source_type.name, source_key
        )
        vectors = [
            p.score_vector(row, normalized=normalized)
            for p in prepared
        ]
        per_query.append((vectors, relevant))

    best_weights: Optional[Tuple[float, ...]] = None
    best_score = -np.inf
    for weights in _simplex_grid(len(metas), resolution):
        total = 0.0
        for vectors, relevant in per_query:
            scores = sum(
                weight * vector
                for weight, vector in zip(weights, vectors)
            )
            ranked = [
                key for key, _ in select_top_k(scores, keys, len(keys))
            ]
            total += score_fn(ranked, relevant)
        mean = total / len(per_query)
        if mean > best_score:
            best_score = mean
            best_weights = weights

    return CombinedFit(
        weights={
            meta.code(): weight
            for meta, weight in zip(metas, best_weights)
        },
        score=float(best_score),
        metric=metric,
    )
