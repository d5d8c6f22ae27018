"""Constrained-walk measures: PCRW and ReachProb (Definition 9).

Both score with entries of the reachable probability matrix ``PM_P``,
materialised through
:meth:`~repro.core.measures.base.MeasureContext.reach` (cache-backed
when a cache is attached).  They are two views of one distribution:

* ``pcrw`` is the Lao & Cohen baseline the paper compares against --
  the asymmetric walker probability whose self-maximum violation
  Tables 3-4 illustrate;
* ``reachprob`` is the raw Definition 9 distribution itself (the
  Fig. 7 lens), kept as a separately named plugin so experiment
  tables can cite it without implying the PCRW framing.

Single queries and batches alike read rows of the materialised ``PM``
(:meth:`WalkPrepared.score_rows`), so a query scores the same bits
either way, and a serve group costs one materialisation regardless of
size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...hin.metapath import PathSpec
from .base import (
    _pick_rows,
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
        return _pick_rows(self.reach, list(rows)).toarray()


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


class ReachProbMeasure(PCRWMeasure):
    """The Definition 9 reach distribution under its own name."""

    name = "reachprob"
    description = (
        "ReachProb: the Definition 9 reach-probability distribution "
        "(identical scores to pcrw; the Fig. 7 lens)"
    )


register_measure(PCRWMeasure())
register_measure(ReachProbMeasure())
