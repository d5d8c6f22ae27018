"""HeteSim as a measure plugin (the paper's Definition 10 / Eq. 6).

Scoring state is a path's scoring form
(:func:`~repro.core.hetesim.scoring_form`: both halves with unit-norm
rows, the right one transposed, plus their row norms), obtained
through :meth:`~repro.core.measures.base.MeasureContext.halves` --
i.e. the engine's single-flight memo when one is attached.  That
sharing is what lets a mixed-measure batch (plain HeteSim plus a
:class:`~repro.core.measures.combined.CombinedMeasure` component on
the same path) materialise each path's form exactly once.

:class:`HeteSimPrepared` is the only code that turns the form into
HeteSim scores: every engine method, the functional API in
:mod:`repro.core.hetesim`, :mod:`repro.core.search`, batch serving and
the degradation ladder's halves rungs score through it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

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

__all__ = [
    "HeteSimMeasure",
    "HeteSimPrepared",
]


class HeteSimPrepared(PreparedMeasure):
    """A path's scoring form, with a memoised block product.

    ``score_rows`` computes ``left[rows] @ right`` once per distinct
    row set.  Both halves have unit-norm rows and ``right`` is stored
    transposed, so that CSR x CSR product is already the block of
    Def. 10 cosine scores; raw Eq. 6 scores are the same block scaled
    by ``left_norms[rows]`` and ``right_norms`` (zero-norm rows and
    columns score 0).  A group mixing ``normalized`` flags therefore
    costs one product.  CSR x CSR computes each output row on its own,
    so a row's scores never depend on the other rows in its block, and
    the inherited ``score_pair`` is bit-identical to its row entry.
    """

    def __init__(self, ctx, shape, form) -> None:
        super().__init__(ctx, shape)
        self.left, self.right, self.left_norms, self.right_norms = form
        self._blocks: Dict[Tuple[int, ...], np.ndarray] = {}
        #: Nonzeros of the most recent block product.
        self.last_block_nnz = 0

    def _unit_block(self, rows: Tuple[int, ...]) -> np.ndarray:
        block = self._blocks.get(rows)
        if block is None:
            product = _pick_rows(self.left, rows) @ self.right
            block = product.toarray()
            self.last_block_nnz = int(product.nnz)
            self._blocks[rows] = block
        return block

    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        key = tuple(rows)
        block = self._unit_block(key)
        if normalized:
            return block
        raw = np.multiply(block, self.left_norms[list(key)][:, None])
        raw *= self.right_norms
        return raw


class HeteSimMeasure(Measure):
    """Cosine of the two walkers' meeting distributions (Def. 10)."""

    name = "hetesim"
    description = (
        "HeteSim: cosine of the forward/backward reach distributions "
        "(raw mode: the Eq. 6 meeting probability)"
    )

    def resolve(self, ctx: MeasureContext, spec: PathSpec) -> QueryShape:
        return QueryShape.of_path(ctx.path(spec))

    def _prepare(
        self, ctx: MeasureContext, spec: PathSpec
    ) -> HeteSimPrepared:
        meta = ctx.path(spec)
        return HeteSimPrepared(
            ctx, QueryShape.of_path(meta), ctx.halves(meta)
        )


register_measure(HeteSimMeasure())
