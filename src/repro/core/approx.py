"""Monte-Carlo approximate HeteSim (Section 4.6, item 3).

"We can also apply some approximate algorithms to fasten the search with
a small loss of accuracy."  The natural approximation for a meeting
probability is sampling: simulate ``n`` forward walks from the source and
``n`` backward walks from the target, estimate the two middle-object
distributions empirically, and combine them exactly as the exact measure
does (dot product, or cosine for the normalised variant).

The estimator is consistent: each empirical distribution converges to
its exact counterpart at the usual O(1/sqrt(n)) Monte-Carlo rate, and the
dot/cosine are continuous in both arguments.  It never touches full
matrices, so its cost is O(n * l) walk steps regardless of network size
-- the regime where it beats the exact computation is very large
networks with few queries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import math

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from ..hin.schema import RelationType

__all__ = ["monte_carlo_hetesim"]

Distribution = Dict[Hashable, float]


def _sample_step(
    graph: HeteroGraph,
    relation: RelationType,
    key: str,
    rng: np.random.Generator,
) -> Optional[str]:
    """One random-walk step along ``relation``; None at dead ends."""
    neighbors = graph.out_neighbors(relation.name, key)
    if not neighbors:
        return None
    keys = [nkey for nkey, _ in neighbors]
    weights = np.asarray([weight for _, weight in neighbors])
    probabilities = weights / weights.sum()
    return keys[int(rng.choice(len(keys), p=probabilities))]


def _sample_edge_object(
    graph: HeteroGraph,
    relation: RelationType,
    key: str,
    forward: bool,
    rng: np.random.Generator,
) -> Optional[Tuple[str, str]]:
    """Sample an edge object of ``relation`` adjacent to ``key``.

    Edge weights enter through Property 1's sqrt(w) construction, exactly
    as in the exact measure.
    """
    if forward:
        neighbors = graph.out_neighbors(relation.name, key)
    else:
        neighbors = graph.in_neighbors(relation.name, key)
    if not neighbors:
        return None
    weights = np.sqrt(np.asarray([weight for _, weight in neighbors]))
    probabilities = weights / weights.sum()
    pick = int(rng.choice(len(neighbors), p=probabilities))
    other = neighbors[pick][0]
    return (key, other) if forward else (other, key)


def _empirical_middle_distribution(
    graph: HeteroGraph,
    path: MetaPath,
    start_key: str,
    forward: bool,
    walks: int,
    rng: np.random.Generator,
) -> Distribution:
    """Empirical distribution over middle objects from sampled walks."""
    halves = path.halves()
    if forward:
        prefix = halves.left.relations if halves.left else ()
    else:
        prefix = (
            halves.right.reverse().relations if halves.right else ()
        )
    middle = halves.middle_relation

    counts: Dict[Hashable, int] = {}
    for _ in range(walks):
        position: Optional[str] = start_key
        for relation in prefix:
            position = _sample_step(graph, relation, position, rng)
            if position is None:
                break
        if position is None:
            continue
        landing: Optional[Hashable] = position
        if middle is not None:
            landing = _sample_edge_object(
                graph, middle, position, forward, rng
            )
            if landing is None:
                continue
        counts[landing] = counts.get(landing, 0) + 1
    return {obj: count / walks for obj, count in counts.items()}


def monte_carlo_hetesim(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    target_key: str,
    walks: int = 1000,
    normalized: bool = True,
    seed: Optional[int] = None,
) -> float:
    """Estimate ``HeteSim(source, target | path)`` by sampling walks.

    Parameters
    ----------
    walks:
        Number of forward walks from the source and backward walks from
        the target (each).  Error shrinks as O(1/sqrt(walks)).
    seed:
        Deterministic estimate per seed.

    Raises :class:`~repro.hin.errors.QueryError` for unknown endpoints or
    a non-positive walk count.
    """
    if walks < 1:
        raise QueryError(f"walks must be >= 1, got {walks}")
    for type_name, key in (
        (path.source_type.name, source_key),
        (path.target_type.name, target_key),
    ):
        if not graph.has_node(type_name, key):
            raise QueryError(f"{key!r} is not a {type_name!r} node")

    rng = np.random.default_rng(seed)
    forward = _empirical_middle_distribution(
        graph, path, source_key, True, walks, rng
    )
    backward = _empirical_middle_distribution(
        graph, path, target_key, False, walks, rng
    )
    dot = sum(
        prob * backward.get(obj, 0.0) for obj, prob in forward.items()
    )
    if not normalized:
        return dot
    forward_norm = math.sqrt(sum(p * p for p in forward.values()))
    backward_norm = math.sqrt(sum(p * p for p in backward.values()))
    if forward_norm == 0 or backward_norm == 0:
        return 0.0
    return dot / (forward_norm * backward_norm)
