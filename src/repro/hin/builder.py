"""Bulk construction helpers for :class:`~repro.hin.graph.HeteroGraph`.

Real loaders (and our synthetic dataset generators) usually produce flat
record streams -- e.g. ``(paper_id, author_name)`` pairs per relation.
:class:`GraphBuilder` collects such streams and materialises a graph in one
pass, validating relation names up front so a typo fails fast rather than
after minutes of loading.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .errors import GraphError
from .graph import HeteroGraph
from .schema import NetworkSchema

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulate nodes/edges and build a :class:`HeteroGraph`.

    The builder may be reused: :meth:`build` constructs a fresh graph from
    the accumulated records each time it is called.

    Examples
    --------
    >>> builder = GraphBuilder(schema)                    # doctest: +SKIP
    >>> builder.edges("writes", [("Tom", "p1")])          # doctest: +SKIP
    >>> graph = builder.build()                           # doctest: +SKIP
    """

    def __init__(self, schema: NetworkSchema) -> None:
        self.schema = schema
        self._nodes: List[Tuple[str, str]] = []
        self._edges: List[Tuple[str, str, str, float]] = []

    def nodes(self, type_name: str, keys: Iterable[str]) -> "GraphBuilder":
        """Declare nodes of a type (useful for isolated nodes); chainable."""
        self.schema.object_type(type_name)  # validate eagerly
        self._nodes.extend((type_name, key) for key in keys)
        return self

    def edges(
        self,
        relation_name: str,
        pairs: Iterable[Tuple[str, str]],
        weight: float = 1.0,
    ) -> "GraphBuilder":
        """Declare unit-or-fixed-weight edges of a relation; chainable."""
        self.schema.relation(relation_name)  # validate eagerly
        self._edges.extend(
            (relation_name, src, tgt, weight) for src, tgt in pairs
        )
        return self

    def weighted_edges(
        self,
        relation_name: str,
        triples: Iterable[Tuple[str, str, float]],
    ) -> "GraphBuilder":
        """Declare per-edge-weighted edges of a relation; chainable."""
        self.schema.relation(relation_name)  # validate eagerly
        for src, tgt, weight in triples:
            if weight < 0:
                raise GraphError(
                    f"edge weight must be non-negative, got {weight} "
                    f"for ({src!r}, {tgt!r})"
                )
            self._edges.append((relation_name, src, tgt, weight))
        return self

    def build(self) -> HeteroGraph:
        """Materialise the accumulated records into a new graph."""
        graph = HeteroGraph(self.schema)
        for type_name, key in self._nodes:
            graph.add_node(type_name, key)
        for relation_name, src, tgt, weight in self._edges:
            graph.add_edge(relation_name, src, tgt, weight)
        return graph

    @property
    def num_pending_edges(self) -> int:
        """Edges accumulated so far (across all relations)."""
        return len(self._edges)
