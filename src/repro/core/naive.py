"""Reference implementations of HeteSim, independent of the matrix path.

Two deliberately-slow implementations used to cross-validate
:mod:`repro.core.hetesim`:

* :func:`naive_hetesim_raw` -- the recursive definition (Eq. 1 /
  Definitions 3, 4, 7) with memoisation.  Works neighbour-set by
  neighbour-set, using transition probabilities (which coincide with the
  paper's uniform ``1/(|O||I|)`` averaging on unit-weight graphs).
* :func:`naive_hetesim` -- dictionary-based walker propagation: push the
  two probability distributions to the middle objects by hand and take
  their cosine (Def. 10).  No scipy involved.

Both treat odd-length paths through the edge-object decomposition
(Definition 6): walkers meet on *relation instances* of the middle atomic
relation, identified by ``(source_key, target_key)`` pairs.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Tuple

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from ..hin.schema import RelationType

__all__ = ["naive_hetesim", "naive_hetesim_raw"]

Distribution = Dict[Hashable, float]


def _out_distribution(
    graph: HeteroGraph, relation: RelationType, key: str
) -> List[Tuple[str, float]]:
    """Transition probabilities from ``key`` along ``relation``."""
    neighbors = graph.out_neighbors(relation.name, key)
    total = sum(weight for _, weight in neighbors)
    if total == 0:
        return []
    return [(nkey, weight / total) for nkey, weight in neighbors]


def _edge_object_distribution(
    graph: HeteroGraph, relation: RelationType, key: str, forward: bool
) -> Distribution:
    """Distribution over edge objects of ``relation`` from ``key``.

    ``forward=True`` walks source -> edge objects (relation ``R_O``);
    ``forward=False`` walks target -> edge objects (``R_I`` backwards).
    Edge objects are identified by ``(source_key, target_key)``; weights
    enter through Property 1's ``sqrt(w)`` construction.
    """
    if forward:
        neighbors = graph.out_neighbors(relation.name, key)
        identify = lambda other: (key, other)  # noqa: E731 - tiny closure
    else:
        neighbors = graph.in_neighbors(relation.name, key)
        identify = lambda other: (other, key)  # noqa: E731 - tiny closure
    roots = [(identify(nkey), math.sqrt(weight)) for nkey, weight in neighbors]
    total = sum(weight for _, weight in roots)
    if total == 0:
        return {}
    return {edge: weight / total for edge, weight in roots}


def _propagate(
    graph: HeteroGraph,
    relations: Tuple[RelationType, ...],
    start_key: str,
) -> Distribution:
    """Walk a distribution from ``start_key`` through ``relations``."""
    current: Distribution = {start_key: 1.0}
    for relation in relations:
        nxt: Distribution = {}
        for key, prob in current.items():
            for nkey, step_prob in _out_distribution(graph, relation, key):
                nxt[nkey] = nxt.get(nkey, 0.0) + prob * step_prob
        current = nxt
        if not current:
            break
    return current


def _meeting_distributions(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    target_key: str,
) -> Tuple[Distribution, Distribution]:
    """The two walkers' distributions over the middle objects."""
    halves = path.halves()
    if not halves.needs_edge_object:
        forward = _propagate(graph, halves.left.relations, source_key)
        backward = _propagate(
            graph, halves.right.reverse().relations, target_key
        )
        return forward, backward

    middle = halves.middle_relation
    # Forward walker: source --left--> middle.source --R_O--> edge objects.
    if halves.left is None:
        at_middle_source: Distribution = {source_key: 1.0}
    else:
        at_middle_source = _propagate(
            graph, halves.left.relations, source_key
        )
    forward: Distribution = {}
    for key, prob in at_middle_source.items():
        for edge, edge_prob in _edge_object_distribution(
            graph, middle, key, forward=True
        ).items():
            forward[edge] = forward.get(edge, 0.0) + prob * edge_prob

    # Backward walker: target --right^-1--> middle.target --R_I^-1--> edges.
    if halves.right is None:
        at_middle_target: Distribution = {target_key: 1.0}
    else:
        at_middle_target = _propagate(
            graph, halves.right.reverse().relations, target_key
        )
    backward: Distribution = {}
    for key, prob in at_middle_target.items():
        for edge, edge_prob in _edge_object_distribution(
            graph, middle, key, forward=False
        ).items():
            backward[edge] = backward.get(edge, 0.0) + prob * edge_prob
    return forward, backward


def naive_hetesim(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    target_key: str,
    normalized: bool = True,
) -> float:
    """Dictionary-propagation HeteSim (reference implementation).

    Matches :func:`repro.core.hetesim.hetesim_pair` to floating-point
    accuracy; exists purely so the test suite can cross-validate the
    sparse-matrix implementation against an independent one.
    """
    _validate_endpoints(graph, path, source_key, target_key)
    forward, backward = _meeting_distributions(
        graph, path, source_key, target_key
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


def naive_hetesim_raw(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    target_key: str,
) -> float:
    """Recursive raw HeteSim per Eq. (1) with Definitions 4 and 7.

    Uses transition probabilities (equal to the paper's uniform averaging
    on unit-weight graphs).  Memoised on ``(depth, source, target)``;
    exponential without memoisation, still quadratic with it -- use for
    small graphs and tests only.
    """
    _validate_endpoints(graph, path, source_key, target_key)
    memo: Dict[Tuple[int, str, str], float] = {}
    return _recurse(graph, path.relations, source_key, target_key, memo, 0)


def _recurse(
    graph: HeteroGraph,
    relations: Tuple[RelationType, ...],
    source_key: str,
    target_key: str,
    memo: Dict[Tuple[int, str, str], float],
    depth: int,
) -> float:
    if not relations:
        # Definition 4: the self-relation I.
        return 1.0 if source_key == target_key else 0.0
    cache_key = (depth, source_key, target_key)
    if cache_key in memo:
        return memo[cache_key]

    if len(relations) == 1:
        # Definition 7: atomic relation through its edge-object split.
        relation = relations[0]
        forward = _edge_object_distribution(
            graph, relation, source_key, forward=True
        )
        backward = _edge_object_distribution(
            graph, relation, target_key, forward=False
        )
        value = sum(
            prob * backward.get(edge, 0.0)
            for edge, prob in forward.items()
        )
    else:
        first, last = relations[0], relations[-1]
        inner = relations[1:-1]
        value = 0.0
        for out_key, out_prob in _out_distribution(graph, first, source_key):
            if out_prob == 0:
                continue
            for in_key, in_prob in _out_distribution(
                graph, last.inverse(), target_key
            ):
                if in_prob == 0:
                    continue
                value += (
                    out_prob
                    * in_prob
                    * _recurse(
                        graph, inner, out_key, in_key, memo, depth + 1
                    )
                )
    memo[cache_key] = value
    return value


def _validate_endpoints(
    graph: HeteroGraph, path: MetaPath, source_key: str, target_key: str
) -> None:
    if not graph.has_node(path.source_type.name, source_key):
        raise QueryError(
            f"{source_key!r} is not a {path.source_type.name!r} node"
        )
    if not graph.has_node(path.target_type.name, target_key):
        raise QueryError(
            f"{target_key!r} is not a {path.target_type.name!r} node"
        )
