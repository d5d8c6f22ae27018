"""PathSim as a measure plugin (Sun et al., VLDB 2011).

Scoring state is the symmetric path's instance-count matrix
``M = W_PL @ W_PL'``, materialised through
:meth:`~repro.core.measures.base.MeasureContext.count_matrix` -- the
planned compute layer with adjacency weights, cached under the
:class:`~repro.core.cache.PathMatrixCache` byte budget when a cache is
attached.  ``normalized=False`` exposes the raw instance counts; the
default is the paper's ``2 M(a,b) / (M(a,a) + M(b,b))``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ...hin.errors import PathError, QueryError
from ...hin.metapath import MetaPath, PathSpec
from .base import (
    _MEASURE_QUERIES,
    _count,
    Measure,
    MeasureContext,
    PreparedMeasure,
    QueryShape,
    register_measure,
)

__all__ = ["PathSimMeasure", "PathSimPrepared", "require_symmetric"]


def require_symmetric(path: MetaPath) -> None:
    """PathSim is undefined off symmetric paths (its Table 4/6 limit)."""
    if not path.is_symmetric:
        raise PathError(
            f"PathSim requires a symmetric path; {path.code()} is not "
            "(this is exactly the limitation HeteSim removes)"
        )


class PathSimPrepared(PreparedMeasure):
    """The sparse count matrix plus its diagonal."""

    def __init__(self, ctx, shape, counts) -> None:
        super().__init__(ctx, shape)
        self.counts = counts

    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        block = self.counts[list(rows), :].toarray()
        if not normalized:
            return block
        diagonal = self.counts.diagonal()
        denominator = diagonal[list(rows)][:, None] + diagonal[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                denominator > 0, 2.0 * block / denominator, 0.0
            )


class PathSimMeasure(Measure):
    """Normalised path-instance counts between same-typed objects."""

    name = "pathsim"
    description = (
        "PathSim: 2 M(a,b) / (M(a,a) + M(b,b)) over path-instance "
        "counts (symmetric paths only; raw mode: the counts)"
    )

    def resolve(self, ctx: MeasureContext, spec: PathSpec) -> QueryShape:
        meta = ctx.path(spec)
        require_symmetric(meta)
        return QueryShape.of_path(meta)

    def _prepare(
        self, ctx: MeasureContext, spec: PathSpec
    ) -> PathSimPrepared:
        meta = ctx.path(spec)
        return PathSimPrepared(
            ctx, self.resolve(ctx, meta), ctx.count_matrix(meta)
        )

    def pair(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        target_key: str,
        normalized: bool = True,
    ) -> float:
        """Sparse-indexed pair score (never densifies a row)."""
        _count(_MEASURE_QUERIES, self.name)
        shape = self.resolve(ctx, spec)
        type_name = shape.source_type
        for key in (source_key, target_key):
            if not ctx.graph.has_node(type_name, key):
                raise QueryError(
                    f"{key!r} is not a {type_name!r} node"
                )
        i = ctx.graph.node_index(type_name, source_key)
        j = ctx.graph.node_index(type_name, target_key)
        counts = self.prepare(ctx, spec).counts
        m_ab = counts[i, j]
        if not normalized:
            return float(m_ab)
        denominator = counts[i, i] + counts[j, j]
        if denominator == 0:
            return 0.0
        return float(2.0 * m_ab / denominator)

    def matrix(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        normalized: bool = True,
    ) -> np.ndarray:
        """All-pairs PathSim, mirroring the legacy dense formula."""
        _count(_MEASURE_QUERIES, self.name)
        self.resolve(ctx, spec)
        counts = self.prepare(ctx, spec).counts.toarray()
        if not normalized:
            return counts
        diagonal = np.diag(counts)
        denominator = diagonal[:, None] + diagonal[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                denominator > 0, 2.0 * counts / denominator, 0.0
            )

    def _scores(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        normalized: bool,
    ) -> Tuple[np.ndarray, str]:
        """One source's scores, mirroring the legacy row formula."""
        _count(_MEASURE_QUERIES, self.name)
        shape = self.resolve(ctx, spec)
        row_index = ctx.node_index(shape.source_type, source_key)
        counts = self.prepare(ctx, spec).counts
        row = counts.getrow(row_index).toarray().ravel()
        if not normalized:
            return row, shape.target_type
        diagonal = counts.diagonal()
        denominator = diagonal[row_index] + diagonal
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(
                denominator > 0, 2.0 * row / denominator, 0.0
            )
        return scores, shape.target_type


register_measure(PathSimMeasure())
