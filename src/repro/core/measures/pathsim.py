"""PathSim as a measure plugin (Sun et al., VLDB 2011).

Scoring state is the symmetric path's instance-count matrix
``M = W_PL @ W_PL'`` and its diagonal, materialised through
:meth:`~repro.core.measures.base.MeasureContext.path_counts` --
materialised with adjacency weights, cached under the
:class:`~repro.core.cache.PathMatrixCache` byte budget when a cache is
attached (the diagonal in the same entry, computed once per
materialised matrix).  ``normalized=False`` exposes the raw instance
counts; the default is the paper's ``2 M(a,b) / (M(a,a) + M(b,b))``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...hin.errors import PathError
from ...hin.metapath import MetaPath, PathSpec
from .base import (
    _pick_rows,
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

    def __init__(self, ctx, shape, counts, diagonal) -> None:
        super().__init__(ctx, shape)
        self.counts = counts
        self.diagonal = diagonal

    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        rows = list(rows)
        block = _pick_rows(self.counts, rows).toarray()
        if not normalized:
            return block
        denominator = self.diagonal[rows][:, None] + self.diagonal[None, :]
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
            ctx, self.resolve(ctx, meta), *ctx.path_counts(meta)
        )


register_measure(PathSimMeasure())
