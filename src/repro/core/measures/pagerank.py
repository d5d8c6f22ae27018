"""Personalized PageRank as a measure plugin (Jeh & Widom, 2003).

The type-blind related-work baseline: a restart walk over the
flattened global adjacency, memoised per graph signature through
:meth:`~repro.core.measures.base.MeasureContext.global_walk` so a
batch of PPR queries builds the walk operator once.  The power
iteration itself lives here (:func:`restart_walk_scores`) and is the
single implementation behind
:func:`repro.baselines.pagerank.personalized_pagerank`; it checks the
ambient :class:`~repro.runtime.limits.LimitTracker` deadline between
iterations (:mod:`repro.core.scope`), so
:class:`~repro.runtime.limits.ExecutionLimits` bound PPR the same way
they bound planned matrix chains.

PPR is path-blind: a query's meta path contributes only its endpoint
types (which node starts the walk, which type is ranked), and the
serve layer groups PPR queries by endpoint-type pair rather than by
path -- ``APC`` and ``APVC`` queries share one prepared walk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from ...hin.errors import QueryError
from ...hin.metapath import PathSpec
from .base import (
    Measure,
    MeasureContext,
    PreparedMeasure,
    QueryShape,
    register_measure,
)
from ..scope import ambient_tracker
from ..search import select_top_k

__all__ = ["PPRMeasure", "PPRPrepared", "restart_walk_scores"]

DEFAULT_DAMPING = 0.85


def restart_walk_scores(
    walk: sparse.csr_matrix,
    restart: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-10,
    max_iterations: int = 200,
) -> np.ndarray:
    """Stationary restart-walk distribution by power iteration.

    ``restart`` is the (already normalised) restart distribution; mass
    lost at dangling nodes returns to it so the result stays a
    probability distribution.  Honours the ambient execution deadline
    between iterations.
    """
    tracker = ambient_tracker()
    scores = restart.copy()
    for _ in range(max_iterations):
        if tracker is not None:
            tracker.check_deadline()
        stepped = np.asarray(scores @ walk).ravel()
        # Mass lost at dangling nodes returns to the restart vector so the
        # result stays a probability distribution.
        lost = 1.0 - stepped.sum()
        updated = damping * (stepped + lost * restart) + (1 - damping) * restart
        if np.abs(updated - scores).sum() < tol:
            scores = updated
            break
        scores = updated
    return scores


class PPRPrepared(PreparedMeasure):
    """The memoised global walk plus endpoint bookkeeping."""

    def __init__(self, ctx, shape, index, walk, damping) -> None:
        super().__init__(ctx, shape)
        self.index = index
        self.walk = walk
        self.damping = damping

    def score_rows(
        self, rows: Sequence[int], normalized: bool = True
    ) -> np.ndarray:
        n_targets = self.ctx.graph.num_nodes(self.shape.target_type)
        target = self.index.type_slice(
            self.shape.target_type, n_targets
        )
        block = np.empty((len(rows), n_targets))
        for position, row in enumerate(rows):
            restart = np.zeros(self.index.num_nodes)
            restart[self.index.index_of(self.shape.source_type, row)] = 1.0
            scores = restart_walk_scores(
                self.walk, restart, damping=self.damping
            )
            block[position] = scores[target]
        return block


class PPRMeasure(Measure):
    """Restart-walk relevance over the flattened global graph."""

    name = "ppr"
    description = (
        "Personalized PageRank: restart walk on the flattened global "
        "adjacency (path-blind: only the path's endpoint types matter)"
    )
    supports_raw = False

    def __init__(self, damping: float = DEFAULT_DAMPING) -> None:
        if not 0 <= damping < 1:
            raise QueryError(
                f"damping must be in [0, 1), got {damping}"
            )
        self.damping = damping

    def resolve(self, ctx: MeasureContext, spec: PathSpec) -> QueryShape:
        meta = ctx.path(spec)
        source = meta.source_type.name
        target = meta.target_type.name
        return QueryShape(
            # Path-blind: queries with equal endpoint types share one
            # prepared walk regardless of the path interior.
            group_key=("types", source, target),
            source_type=source,
            target_type=target,
            display=f"{source}~>{target}",
        )

    def _prepare(
        self, ctx: MeasureContext, spec: PathSpec
    ) -> PPRPrepared:
        index, walk = ctx.global_walk()
        return PPRPrepared(
            ctx, self.resolve(ctx, spec), index, walk, self.damping
        )

    def rank_types(
        self,
        ctx: MeasureContext,
        source_type: str,
        source_key: str,
        target_type: str,
        damping: float = DEFAULT_DAMPING,
    ):
        """Rank without a path: explicit endpoint types.

        The measure-level implementation behind
        :func:`repro.baselines.pagerank.ppr_rank`, using the context's
        memoised walk operator.
        """
        if not 0 <= damping < 1:
            raise QueryError(
                f"damping must be in [0, 1), got {damping}"
            )
        if not ctx.graph.has_node(source_type, source_key):
            raise QueryError(
                f"{source_key!r} is not a {source_type!r} node"
            )
        index, walk = ctx.global_walk()
        restart = np.zeros(index.num_nodes)
        restart[
            index.index_of(
                source_type,
                ctx.graph.node_index(source_type, source_key),
            )
        ] = 1.0
        scores = restart_walk_scores(walk, restart, damping=damping)
        keys = ctx.graph.node_keys(target_type)
        block = scores[index.type_slice(target_type, len(keys))]
        return select_top_k(block, keys, len(keys))


register_measure(PPRMeasure())
