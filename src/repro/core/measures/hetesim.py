"""HeteSim as a measure plugin (the paper's Definition 10 / Eq. 6).

Scoring state is the pair of half matrices ``(PM_PL, PM_{PR^-1})``
plus their row norms, obtained through
:meth:`~repro.core.measures.base.MeasureContext.halves` -- i.e. the
engine's single-flight memo when one is attached.  That sharing is
what lets a mixed-measure batch (plain HeteSim plus a
:class:`~repro.core.measures.combined.CombinedMeasure` component on
the same path) materialise each path's halves exactly once.

:class:`HeteSimPrepared` is the only code that turns halves into
HeteSim scores: every engine method, the functional API in
:mod:`repro.core.hetesim`, :mod:`repro.core.search`, the batch and
process tiers and the degradation ladder's halves rungs score through
it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ...hin.matrices import safe_reciprocal
from ...hin.metapath import PathSpec
from .base import (
    Measure,
    MeasureContext,
    PreparedMeasure,
    QueryShape,
    register_measure,
)

__all__ = [
    "HeteSimMeasure",
    "HeteSimPrepared",
    "cosine_normalise",
]


def cosine_normalise(
    raw: np.ndarray,
    rows: Sequence[int],
    left_norms: np.ndarray,
    right_norms: np.ndarray,
) -> np.ndarray:
    """Eq. 8: scale a raw ``(rows, targets)`` block to cosine scores.

    Block row ``p`` belongs to source row ``rows[p]`` of the left half
    (norms ``left_norms``); ``right_norms`` align with the block's
    columns.  A zero-norm source row scores 0, never NaN; zero-norm
    targets score 0 through :func:`~repro.hin.matrices.safe_reciprocal`.
    """
    scale = safe_reciprocal(right_norms)
    scored = np.empty_like(raw)
    for position, row in enumerate(rows):
        norm = left_norms[row]
        if norm == 0:
            scored[position] = 0.0
        else:
            np.multiply(raw[position], scale / norm, out=scored[position])
    return scored


class HeteSimPrepared(PreparedMeasure):
    """Half matrices + row norms, with a memoised raw block GEMM.

    ``score_rows`` computes the raw block ``left[rows] @ right.T``
    once per distinct row set and derives both normalisation modes
    from it, so a group mixing ``normalized`` flags still costs one
    GEMM.  ``score_pair`` dots one source row with one target row, and
    its result is bit-identical to that entry of ``score_rows``.

    The process tier's shard workers build one with ``ctx`` and
    ``shape`` set to None: scoring rows needs only the halves.
    """

    def __init__(self, ctx, shape, halves) -> None:
        super().__init__(ctx, shape)
        self.left, self.right, self.left_norms, self.right_norms = halves
        self._blocks: Dict[Tuple[int, ...], np.ndarray] = {}
        #: Nonzeros of the most recent raw block product.
        self.last_block_nnz = 0

    def _raw_block(self, rows: Tuple[int, ...]) -> np.ndarray:
        block = self._blocks.get(rows)
        if block is None:
            if len(rows) == 1:
                # Fancy indexing is markedly slower for a single row.
                picked = self.left.getrow(rows[0])
            else:
                picked = self.left[list(rows), :]
            product = picked @ self.right.T
            block = product.toarray()
            self.last_block_nnz = int(product.nnz)
            self._blocks[rows] = block
        return block

    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        key = tuple(rows)
        block = self._raw_block(key)
        if not normalized:
            return block
        return cosine_normalise(
            block, key, self.left_norms, self.right_norms
        )

    def score_pair(
        self, row: int, col: int, normalized: bool = True
    ) -> float:
        product = self.left.getrow(row) @ self.right.getrow(col).T
        raw = product.toarray()
        if normalized:
            raw = cosine_normalise(
                raw, [row], self.left_norms, self.right_norms[col:col + 1]
            )
        return float(raw[0, 0])


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
