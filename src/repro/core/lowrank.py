"""Low-rank approximate HeteSim (a second §4.6 "approximate algorithm").

The half matrices ``PM_PL`` and ``PM_{PR^-1}`` of a long path over a
community-structured network are close to low rank (walk distributions
concentrate on a few "topics").  Factoring each half once with a
truncated SVD turns every subsequent all-pairs or single-pair query into
rank-``r`` algebra: score lookups cost O(r) instead of touching the full
middle dimension.

The approximation error is governed by the discarded singular values;
:class:`LowRankHeteSim` reports the captured spectral energy so callers
can pick the rank empirically (the tests verify error decreases
monotonically-ish and vanishes at full rank).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy.sparse.linalg import svds

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from .hetesim import normed_halves
from .measures.hetesim import cosine_normalise
from .search import select_top_k

__all__ = ["LowRankHeteSim"]


class LowRankHeteSim:
    """Rank-``r`` approximation of HeteSim under one path.

    Parameters
    ----------
    graph, path:
        The network and relevance path.
    rank:
        Number of singular components requested per half.  Each half is
        factored at ``min(rank, min(half.shape) - 1)`` components (the
        ``svds`` ceiling), so a generous rank degrades gracefully on
        skinny matrices; the effective ranks are exposed as
        ``rank_left`` / ``rank_right``.  Use exact HeteSim when the
        matrices are tiny (ceiling < 1).
    cache:
        Optional :class:`~repro.core.cache.PathMatrixCache`; the half
        matrices are then materialised through it (planned prefix reuse
        shared with any engine using the same cache).

    Examples
    --------
    >>> approx = LowRankHeteSim(graph, path, rank=16)   # doctest: +SKIP
    >>> approx.relevance("Tom", "KDD")                  # doctest: +SKIP
    """

    def __init__(
        self, graph: HeteroGraph, path: MetaPath, rank: int, cache=None
    ) -> None:
        if rank < 1:
            raise QueryError(f"rank must be >= 1, got {rank}")
        left, right, left_norms, right_norms = normed_halves(
            graph, path, cache=cache
        )
        rank_left = min(rank, min(left.shape) - 1)
        rank_right = min(rank, min(right.shape) - 1)
        if rank_left < 1 or rank_right < 1:
            raise QueryError(
                "half matrices too small for a truncated SVD "
                f"(shapes {left.shape} and {right.shape}); "
                "use the exact measure"
            )
        self.graph = graph
        self.path = path
        self.rank = rank
        self.rank_left = rank_left
        self.rank_right = rank_right

        # ARPACK's default starting vector is drawn from a process-global
        # RNG, which made repeated factorisations of the same half drift
        # by the approximation error.  A constant start vector is both
        # deterministic and well-suited here: the halves are nonnegative,
        # so the all-ones direction cannot be orthogonal to the dominant
        # singular subspace.
        u_left, s_left, vt_left = svds(
            left, k=rank_left, v0=np.ones(min(left.shape))
        )
        u_right, s_right, vt_right = svds(
            right, k=rank_right, v0=np.ones(min(right.shape))
        )
        # left  ~= (u_left * s_left) @ vt_left
        # right ~= (u_right * s_right) @ vt_right
        # left @ right' ~= A @ C @ B'  with C = vt_left @ vt_right'.
        self._a = u_left * s_left
        self._b = u_right * s_right
        self._cross = vt_left @ vt_right.T

        # Exact row norms (cheap) so normalisation does not degrade.
        self._left_norms = left_norms
        self._right_norms = right_norms

        total_energy = float(left_norms @ left_norms)
        kept_energy = float(np.sum(s_left ** 2))
        self.captured_energy = (
            kept_energy / total_energy if total_energy > 0 else 1.0
        )

    # ------------------------------------------------------------------
    def _scores(self, rows, cols, normalized: bool) -> np.ndarray:
        """Approximate ``(rows, cols)`` block; Eq. 8 when normalised."""
        product = self._a[rows] @ self._cross @ self._b[cols].T
        if not normalized:
            return product
        # Rank truncation can push a cosine score epsilon outside [0, 1];
        # the exact value always lies inside, so clamping only shrinks
        # the approximation error.
        return np.clip(
            cosine_normalise(
                product, rows, self._left_norms, self._right_norms[cols]
            ),
            0.0,
            1.0,
        )

    def relevance_matrix(self, normalized: bool = True) -> np.ndarray:
        """Approximate all-pairs relevance matrix."""
        return self._scores(
            range(len(self._left_norms)), slice(None), normalized
        )

    def relevance(
        self, source_key: str, target_key: str, normalized: bool = True
    ) -> float:
        """Approximate relevance of one pair in O(rank^2) time."""
        i = self._resolve(self.path.source_type.name, source_key)
        j = self._resolve(self.path.target_type.name, target_key)
        return float(self._scores([i], [j], normalized)[0, 0])

    def top_k(
        self, source_key: str, k: int = 10, normalized: bool = True
    ) -> List[Tuple[str, float]]:
        """Approximate top-k targets for one source (``k`` clamps like a
        slice)."""
        if k < 1:
            return []
        i = self._resolve(self.path.source_type.name, source_key)
        scores = self._scores([i], slice(None), normalized)[0]
        keys = self.graph.node_keys(self.path.target_type.name)
        return select_top_k(scores, keys, k)

    def _resolve(self, type_name: str, key: str) -> int:
        if not self.graph.has_node(type_name, key):
            raise QueryError(f"{key!r} is not a {type_name!r} node")
        return self.graph.node_index(type_name, key)
