"""Random heterogeneous networks for property tests and scaling benches.

Two generators:

* :func:`make_random_hin` -- Erdos-Renyi-style edges for every relation of
  an arbitrary schema; used by the hypothesis-based property tests and the
  Section 4.6 complexity benchmarks (where network size is swept).
* :func:`make_random_bipartite` -- a single-relation ``A -R-> B`` network,
  the setting of Fig. 5 and Property 5.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..hin.errors import GraphError
from ..hin.graph import HeteroGraph
from ..hin.schema import NetworkSchema
from .schemas import bipartite_schema

__all__ = ["make_random_hin", "make_random_bipartite"]


def make_random_hin(
    schema: NetworkSchema,
    sizes: Mapping[str, int],
    edge_prob: float = 0.1,
    seed: int = 0,
    edge_probs: Optional[Mapping[str, float]] = None,
    ensure_connected_rows: bool = False,
    degree_exponent: Optional[float] = None,
) -> HeteroGraph:
    """Random network: each potential edge of each relation appears i.i.d.

    Parameters
    ----------
    schema:
        Any schema; every registered relation gets random edges.
    sizes:
        Object-type name -> node count.  Every type must be present.
    edge_prob:
        Default per-relation edge probability.
    edge_probs:
        Optional per-relation override (relation name -> probability).
    ensure_connected_rows:
        When True, every source node of every relation gets at least one
        edge (useful when dangling rows would make a test vacuous).
    degree_exponent:
        When set, target popularity follows a Zipf law with this exponent
        (column ``j`` is hit proportionally to ``(j + 1) ** -exponent``)
        instead of the uniform Erdos-Renyi pattern -- the heavy-tailed
        degree shape real bibliographic networks show.  The expected
        total edge count stays ``edge_prob * n_src * n_tgt``.
    seed:
        Deterministic output per seed.
    """
    for otype in schema.object_types:
        if otype.name not in sizes:
            raise GraphError(f"sizes missing object type {otype.name!r}")
        if sizes[otype.name] < 1:
            raise GraphError(
                f"size of {otype.name!r} must be >= 1, "
                f"got {sizes[otype.name]}"
            )
    rng = np.random.default_rng(seed)
    graph = HeteroGraph(schema)
    for otype in schema.object_types:
        graph.add_nodes(
            otype.name,
            (f"{otype.code}{i}" for i in range(sizes[otype.name])),
        )
    for relation in schema.relations:
        probability = edge_prob
        if edge_probs is not None and relation.name in edge_probs:
            probability = edge_probs[relation.name]
        n_src = sizes[relation.source.name]
        n_tgt = sizes[relation.target.name]
        if degree_exponent is None:
            cell_probability = np.full(n_tgt, probability)
        else:
            weights = (np.arange(n_tgt) + 1.0) ** -degree_exponent
            cell_probability = np.minimum(
                1.0, probability * n_tgt * weights / weights.sum()
            )
        mask = rng.random((n_src, n_tgt)) < cell_probability[None, :]
        if ensure_connected_rows:
            for row in range(n_src):
                if not mask[row].any():
                    mask[row, int(rng.integers(n_tgt))] = True
        rows, cols = np.nonzero(mask)
        src_code = relation.source.code
        tgt_code = relation.target.code
        for i, j in zip(rows, cols):
            graph.add_edge(
                relation.name, f"{src_code}{int(i)}", f"{tgt_code}{int(j)}"
            )
    return graph


def make_random_bipartite(
    n_a: int,
    n_b: int,
    edge_prob: float = 0.3,
    seed: int = 0,
    ensure_connected_rows: bool = True,
) -> HeteroGraph:
    """A random single-relation bipartite network (types ``a`` and ``b``).

    Node keys are ``A0..`` and ``B0..``; the relation is named ``r``.
    """
    return make_random_hin(
        bipartite_schema(),
        sizes={"a": n_a, "b": n_b},
        edge_prob=edge_prob,
        seed=seed,
        ensure_connected_rows=ensure_connected_rows,
    )
