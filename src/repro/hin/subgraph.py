"""Induced subgraph extraction.

Large heterogeneous networks are usually analysed through focused slices
-- one research area, one time window, one user cohort.  This module
extracts the subgraph induced by chosen node subsets (edges survive when
*both* endpoints survive) or by a subset of relations, preserving schema
and node-key identity so every measure works unchanged on the slice.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import GraphError
from .graph import HeteroGraph
from .schema import NetworkSchema

__all__ = ["induced_subgraph", "relation_subgraph"]


def induced_subgraph(
    graph: HeteroGraph,
    keep: Mapping[str, Iterable[str]],
) -> HeteroGraph:
    """Subgraph induced by per-type node subsets.

    Parameters
    ----------
    keep:
        Object-type name -> iterable of node keys to keep.  Types absent
        from the mapping keep *all* their nodes.  Unknown keys raise
        :class:`GraphError` (a typo silently shrinking the slice is worse
        than an error).

    Edges survive iff both endpoints survive.  Node insertion order (and
    therefore matrix row order) follows the original graph.
    """
    kept: dict = {}
    for type_name, keys in keep.items():
        graph.schema.object_type(type_name)  # validate type eagerly
        key_set = set(keys)
        unknown = [
            key for key in key_set if not graph.has_node(type_name, key)
        ]
        if unknown:
            raise GraphError(
                f"unknown {type_name} nodes in keep set: {sorted(unknown)}"
            )
        kept[type_name] = key_set

    result = HeteroGraph(graph.schema)
    for otype in graph.schema.object_types:
        for key in graph.node_keys(otype.name):
            if otype.name not in kept or key in kept[otype.name]:
                result.add_node(otype.name, key)

    for relation in graph.schema.relations:
        adjacency = graph.adjacency(relation.name).tocoo()
        src_type = relation.source.name
        tgt_type = relation.target.name
        for i, j, weight in zip(adjacency.row, adjacency.col, adjacency.data):
            src = graph.node_key(src_type, int(i))
            tgt = graph.node_key(tgt_type, int(j))
            if result.has_node(src_type, src) and result.has_node(
                tgt_type, tgt
            ):
                result.add_edge(relation.name, src, tgt, float(weight))
    return result


def relation_subgraph(
    graph: HeteroGraph,
    relations: Sequence[str],
    drop_untouched_types: bool = False,
) -> HeteroGraph:
    """Subgraph keeping only the named (forward) relations.

    Parameters
    ----------
    relations:
        Forward relation names to keep (inverse names resolve to their
        forward relation).  Unknown names raise :class:`SchemaError`.
    drop_untouched_types:
        When True, object types not touched by any kept relation are
        removed from the result's schema entirely; otherwise they stay
        with all their (now edge-less) nodes.
    """
    kept_relations = []
    for name in relations:
        relation = graph.schema.relation(name)
        if relation.name not in {r.name for r in graph.schema.relations}:
            relation = relation.inverse()
        kept_relations.append(relation)
    kept_names = {relation.name for relation in kept_relations}

    if drop_untouched_types:
        touched = set()
        for relation in kept_relations:
            touched.add(relation.source.name)
            touched.add(relation.target.name)
        type_specs = [
            (t.name, t.code)
            for t in graph.schema.object_types
            if t.name in touched
        ]
    else:
        type_specs = [(t.name, t.code) for t in graph.schema.object_types]

    schema = NetworkSchema.from_spec(
        types=type_specs,
        relations=[
            (r.name, r.source.name, r.target.name) for r in kept_relations
        ],
    )
    result = HeteroGraph(schema)
    for type_name, _code in type_specs:
        result.add_nodes(type_name, graph.node_keys(type_name))
    for relation in kept_relations:
        adjacency = graph.adjacency(relation.name).tocoo()
        src_type = relation.source.name
        tgt_type = relation.target.name
        for i, j, weight in zip(adjacency.row, adjacency.col, adjacency.data):
            result.add_edge(
                relation.name,
                graph.node_key(src_type, int(i)),
                graph.node_key(tgt_type, int(j)),
                float(weight),
            )
    return result
