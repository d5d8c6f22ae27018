"""Constrained-walk measures: PCRW and ReachProb (Definition 9).

Both score with entries of the reachable probability matrix ``PM_P``,
materialised through
:meth:`~repro.core.measures.base.MeasureContext.reach` (the planned
compute layer, cache-backed when one is attached).  They are two views
of one distribution:

* ``pcrw`` is the Lao & Cohen baseline the paper compares against --
  the asymmetric walker probability whose self-maximum violation
  Tables 3-4 illustrate;
* ``reachprob`` is the raw Definition 9 distribution itself (the
  Fig. 7 lens), kept as a separately named plugin so experiment
  tables can cite it without implying the PCRW framing.

Single-source queries propagate a one-hot row
(:func:`repro.core.reachprob.reach_row`) instead of materialising the
full ``PM``, matching the legacy functions bit for bit; batched
``score_rows`` slices the materialised ``PM`` so a serve group costs
one materialisation regardless of size.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ...hin.errors import QueryError
from ...hin.metapath import PathSpec
from .base import (
    _MEASURE_QUERIES,
    _count,
    Measure,
    MeasureContext,
    PreparedMeasure,
    QueryShape,
    register_measure,
)

__all__ = ["PCRWMeasure", "ReachProbMeasure", "WalkPrepared"]


class WalkPrepared(PreparedMeasure):
    """The materialised ``PM_P`` (probabilities -- no raw mode)."""

    def __init__(self, ctx, shape, reach) -> None:
        super().__init__(ctx, shape)
        self.reach = reach

    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        return self.reach[list(rows), :].toarray()


class PCRWMeasure(Measure):
    """Path Constrained Random Walk (Lao & Cohen, 2010)."""

    name = "pcrw"
    description = (
        "PCRW: constrained-walk reach probability PM_P(s, t) "
        "(asymmetric; normalization flag is ignored)"
    )
    supports_raw = False

    def resolve(self, ctx: MeasureContext, spec: PathSpec) -> QueryShape:
        return QueryShape.of_path(ctx.path(spec))

    def _prepare(
        self, ctx: MeasureContext, spec: PathSpec
    ) -> WalkPrepared:
        meta = ctx.path(spec)
        return WalkPrepared(ctx, QueryShape.of_path(meta), ctx.reach(meta))

    def _scores(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        normalized: bool,
    ) -> Tuple[np.ndarray, str]:
        """One-hot row propagation -- never materialises the full PM."""
        _count(_MEASURE_QUERIES, self.name)
        from ..reachprob import reach_row

        meta = ctx.path(spec)
        return (
            reach_row(ctx.graph, meta, source_key),
            meta.target_type.name,
        )

    def pair(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        source_key: str,
        target_key: str,
        normalized: bool = True,
    ) -> float:
        """One reach probability, via one-hot propagation (no full PM)."""
        meta = ctx.path(spec)
        target_type = meta.target_type.name
        if not ctx.graph.has_node(target_type, target_key):
            raise QueryError(
                f"{target_key!r} is not a {target_type!r} node"
            )
        row = self.vector(ctx, spec, source_key)
        return float(row[ctx.graph.node_index(target_type, target_key)])

    def matrix(
        self,
        ctx: MeasureContext,
        spec: PathSpec,
        normalized: bool = True,
    ) -> np.ndarray:
        _count(_MEASURE_QUERIES, self.name)
        self.resolve(ctx, spec)
        return self.prepare(ctx, spec).reach.toarray()


class ReachProbMeasure(PCRWMeasure):
    """The Definition 9 reach distribution under its own name."""

    name = "reachprob"
    description = (
        "ReachProb: the Definition 9 reach-probability distribution "
        "(identical scores to pcrw; the Fig. 7 lens)"
    )


register_measure(PCRWMeasure())
register_measure(ReachProbMeasure())
