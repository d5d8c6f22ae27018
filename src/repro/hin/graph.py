"""The heterogeneous information network itself (Definition 1).

:class:`HeteroGraph` stores a typed, directed multigraph:

* nodes are partitioned by :class:`~repro.hin.schema.ObjectType`; within a
  type every node has a stable integer index (assigned in insertion order)
  and a user-facing string key (e.g. an author's name);
* edges are partitioned by :class:`~repro.hin.schema.RelationType`; the
  edges of one relation ``A -R-> B`` form a weighted biadjacency matrix
  ``W_AB`` (Definition 8) stored as a ``scipy.sparse.csr_matrix``.

The adjacency of an inverse relation ``R^-1`` is the transpose ``W_AB'``
and is served without duplicating storage.

Edges are buffered in COO form during construction; the CSR matrix for a
relation is (re)built lazily on first access and cached until the relation
is mutated again, so interleaved building and querying stays correct.

Concurrency contract: mutators (:meth:`HeteroGraph.add_node`,
:meth:`HeteroGraph.add_edge`) serialise on a per-graph lock, so version
counters never lose increments and every version value corresponds to
exactly one graph state.  Readers take no lock: they may briefly observe
edge data *newer* than the version they read (data is published before
the counter is bumped), which staleness checks tolerate, but never the
reverse.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .errors import GraphError, SchemaError
from .schema import NetworkSchema, ObjectType, RelationType

__all__ = ["HeteroGraph"]


class _TypedNodes:
    """Node registry for a single object type: key <-> dense index."""

    def __init__(self, otype: ObjectType) -> None:
        self.otype = otype
        self.keys: List[str] = []
        self.index: Dict[str, int] = {}

    def add(self, key: str) -> int:
        existing = self.index.get(key)
        if existing is not None:
            return existing
        idx = len(self.keys)
        self.keys.append(key)
        self.index[key] = idx
        return idx

    def __len__(self) -> int:
        return len(self.keys)


class _RelationEdges:
    """Edge buffer + cached CSR matrix for a single forward relation.

    The CSR cache is rebuilt lock-free but race-safely against
    concurrent :meth:`add` calls: the edge lists are append-only and
    appended in ``rows``/``cols``/``weights`` order, so the first
    ``len(weights)`` entries of all three lists are always a mutually
    consistent prefix; and a rebuild only *caches* its result when the
    generation counter is unchanged, so a build that raced an ``add``
    can never overwrite the invalidation the mutation just published
    (the overwrite would pin a stale matrix for every later reader).
    """

    def __init__(self, relation: RelationType) -> None:
        self.relation = relation
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.weights: List[float] = []
        self._csr: Optional[sparse.csr_matrix] = None
        self._generation = 0

    def add(self, row: int, col: int, weight: float) -> None:
        self.rows.append(row)
        self.cols.append(col)
        self.weights.append(weight)
        self._generation += 1
        self._csr = None

    def matrix(self, n_rows: int, n_cols: int) -> sparse.csr_matrix:
        cached = self._csr
        if cached is not None and cached.shape == (n_rows, n_cols):
            return cached
        generation = self._generation
        count = len(self.weights)
        coo = sparse.coo_matrix(
            (
                np.asarray(self.weights[:count], dtype=np.float64),
                (np.asarray(self.rows[:count], dtype=np.int64),
                 np.asarray(self.cols[:count], dtype=np.int64)),
            ),
            shape=(n_rows, n_cols),
        )
        # Duplicate (i, j) entries accumulate, which matches counting
        # parallel relation instances (e.g. an author with two papers
        # in the same venue).
        csr = coo.tocsr()
        if generation == self._generation:
            self._csr = csr
        return csr

    def __len__(self) -> int:
        return len(self.rows)


class HeteroGraph:
    """A heterogeneous information network over a fixed schema.

    Parameters
    ----------
    schema:
        The :class:`~repro.hin.schema.NetworkSchema` this graph instantiates.

    Examples
    --------
    >>> from repro.hin.schema import NetworkSchema
    >>> schema = NetworkSchema.from_spec(
    ...     [("author", "A"), ("paper", "P")],
    ...     [("writes", "author", "paper")],
    ... )
    >>> g = HeteroGraph(schema)
    >>> g.add_node("author", "Tom")
    0
    >>> g.add_node("paper", "p1")
    0
    >>> g.add_edge("writes", "Tom", "p1")
    >>> g.num_nodes("author"), g.num_edges("writes")
    (1, 1)
    """

    def __init__(self, schema: NetworkSchema) -> None:
        self.schema = schema
        self._nodes: Dict[str, _TypedNodes] = {
            t.name: _TypedNodes(t) for t in schema.object_types
        }
        self._edges: Dict[str, _RelationEdges] = {
            r.name: _RelationEdges(r) for r in schema.relations
        }
        self._version = 0
        self._relation_versions: Dict[str, int] = {
            r.name: 0 for r in schema.relations
        }
        # Serialises mutators: without it, concurrent ``+= 1`` bumps can
        # lose updates, letting a later mutation reuse an
        # already-observed version and defeating every staleness check
        # keyed on it.  Reentrant because add_edge nests add_node.
        self._mutation_lock = threading.RLock()
        # Relations whose matrix shape depends on each type.
        self._relations_by_type: Dict[str, List[str]] = {
            t.name: [] for t in schema.object_types
        }
        for relation in schema.relations:
            self._relations_by_type[relation.source.name].append(relation.name)
            if relation.target.name != relation.source.name:
                self._relations_by_type[relation.target.name].append(
                    relation.name
                )

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Incremented by every node or edge insertion; caches keyed on a
        graph (e.g. :class:`~repro.core.engine.HeteSimEngine`) compare it
        to detect staleness.
        """
        return self._version

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(self, type_name: str, key: str) -> int:
        """Add (or fetch) a node of the given type; return its index.

        Adding an existing ``(type, key)`` pair is idempotent and returns
        the original index, so loaders need not deduplicate.
        """
        nodes = self._typed_nodes(type_name)
        with self._mutation_lock:
            if key not in nodes.index:
                self._version += 1
                # A new node changes the matrix shape of every relation
                # touching this type.
                for relation_name in self._relations_by_type[type_name]:
                    self._relation_versions[relation_name] += 1
            return nodes.add(key)

    def add_nodes(self, type_name: str, keys: Iterable[str]) -> List[int]:
        """Bulk :meth:`add_node`; returns the indices in input order."""
        return [self.add_node(type_name, key) for key in keys]

    def node_index(self, type_name: str, key: str) -> int:
        """Index of the node with this key (raises :class:`GraphError`)."""
        nodes = self._typed_nodes(type_name)
        try:
            return nodes.index[key]
        except KeyError:
            raise GraphError(
                f"unknown {type_name} node {key!r}"
            ) from None

    def node_key(self, type_name: str, index: int) -> str:
        """Key of the node at this index (raises :class:`GraphError`)."""
        nodes = self._typed_nodes(type_name)
        if not 0 <= index < len(nodes.keys):
            raise GraphError(
                f"{type_name} index {index} out of range "
                f"(have {len(nodes.keys)} nodes)"
            )
        return nodes.keys[index]

    def node_keys(self, type_name: str) -> List[str]:
        """All keys of this type, in index order (a copy)."""
        return list(self._typed_nodes(type_name).keys)

    def has_node(self, type_name: str, key: str) -> bool:
        """True when a node ``(type, key)`` exists."""
        return key in self._typed_nodes(type_name).index

    def num_nodes(self, type_name: Optional[str] = None) -> int:
        """Node count for one type, or the total across all types."""
        if type_name is not None:
            return len(self._typed_nodes(type_name))
        return sum(len(nodes) for nodes in self._nodes.values())

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(
        self,
        relation_name: str,
        source_key: str,
        target_key: str,
        weight: float = 1.0,
    ) -> None:
        """Add a relation instance ``source -R-> target``.

        Endpoint nodes are created on demand.  Edges given under an inverse
        relation name (``"writes^-1"``) are stored under the forward
        relation with endpoints swapped.  Parallel edges accumulate their
        weights in the adjacency matrix.
        """
        if weight < 0:
            raise GraphError(
                f"edge weight must be non-negative, got {weight}"
            )
        relation = self.schema.relation(relation_name)
        if relation.name not in self._edges:
            # An inverse relation: store under the forward name, swapped.
            forward = relation.inverse()
            self.add_edge(forward.name, target_key, source_key, weight)
            return
        with self._mutation_lock:
            src_idx = self.add_node(relation.source.name, source_key)
            tgt_idx = self.add_node(relation.target.name, target_key)
            self._edges[relation.name].add(src_idx, tgt_idx, weight)
            self._version += 1
            self._relation_versions[relation.name] += 1

    def add_edges(
        self,
        relation_name: str,
        pairs: Iterable[Tuple[str, str]],
    ) -> None:
        """Bulk :meth:`add_edge` with unit weights."""
        for source_key, target_key in pairs:
            self.add_edge(relation_name, source_key, target_key)

    def num_edges(self, relation_name: Optional[str] = None) -> int:
        """Edge count for one relation, or the total across all relations.

        Inverse relation names count the forward relation's edges (the
        edge sets are the same set of relation instances).
        """
        if relation_name is not None:
            relation = self.schema.relation(relation_name)
            if relation.name in self._edges:
                return len(self._edges[relation.name])
            return len(self._edges[relation.inverse().name])
        return sum(len(edges) for edges in self._edges.values())

    def relation_version(self, relation_name: str) -> int:
        """Mutation counter of one relation (inverse names resolve to the
        forward relation).  Bumped by edge insertions into the relation
        and node insertions into either endpoint type."""
        relation = self.schema.relation(relation_name)
        name = relation.name
        if name not in self._relation_versions:
            name = relation.inverse().name
        return self._relation_versions[name]

    def relations_signature(self, relation_names) -> tuple:
        """Tuple of :meth:`relation_version` values, for cache staleness
        checks over a whole path."""
        return tuple(
            self.relation_version(name) for name in relation_names
        )

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def adjacency(self, relation_name: str) -> sparse.csr_matrix:
        """The weighted adjacency matrix ``W_AB`` of a relation (Def. 8).

        Shape is ``(|A|, |B|)`` where ``A``/``B`` are the relation's source
        and target types.  For an inverse relation the transpose of the
        forward matrix is returned (as CSR).
        """
        relation = self.schema.relation(relation_name)
        if relation.name in self._edges:
            edges = self._edges[relation.name]
            return edges.matrix(
                self.num_nodes(relation.source.name),
                self.num_nodes(relation.target.name),
            )
        forward = relation.inverse()
        return self.adjacency(forward.name).T.tocsr()

    def out_neighbors(
        self, relation_name: str, source_key: str
    ) -> List[Tuple[str, float]]:
        """Out-neighbours ``O(s | R)`` of a node with edge weights.

        Returns ``(target_key, weight)`` pairs under the given relation.
        """
        relation = self.schema.relation(relation_name)
        matrix = self.adjacency(relation_name)
        src_idx = self.node_index(relation.source.name, source_key)
        row = matrix.getrow(src_idx)
        target_type = relation.target.name
        return [
            (self.node_key(target_type, int(j)), float(w))
            for j, w in zip(row.indices, row.data)
        ]

    def in_neighbors(
        self, relation_name: str, target_key: str
    ) -> List[Tuple[str, float]]:
        """In-neighbours ``I(t | R)`` of a node with edge weights.

        Returns ``(source_key, weight)`` pairs under the given relation.
        """
        relation = self.schema.relation(relation_name)
        return self.out_neighbors(relation.inverse().name, target_key)

    def degree(self, relation_name: str, key: str) -> float:
        """Weighted out-degree of ``key`` under the relation."""
        return sum(w for _, w in self.out_neighbors(relation_name, key))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line-per-type/relation size report (human readable)."""
        lines = ["HeteroGraph:"]
        for otype in self.schema.object_types:
            lines.append(f"  {otype.name}: {self.num_nodes(otype.name)} nodes")
        for rel in self.schema.relations:
            lines.append(f"  {rel}: {self.num_edges(rel.name)} edges")
        return "\n".join(lines)

    def _typed_nodes(self, type_name: str) -> _TypedNodes:
        try:
            return self._nodes[type_name]
        except KeyError:
            raise SchemaError(f"unknown object type {type_name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeteroGraph({self.num_nodes()} nodes, "
            f"{self.num_edges()} edges, "
            f"{len(self.schema.object_types)} types)"
        )
