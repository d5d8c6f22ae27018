"""Neighbour-set similarity baselines from the related work (Section 2).

The paper's related-work section covers two families this module
represents:

* **feature-based measures** (cosine, Jaccard) applied to link vectors --
  each object's "features" are its adjacency row under one relation;
* **SCAN-style structural similarity** (Xu et al., KDD 2007): the
  normalised overlap of two objects' *immediate neighbour sets*,
  ``|N(u) ∩ N(v)| / sqrt(|N(u)| |N(v)|)``.

All three "just consider the objects with the same type" and a single
relation -- exactly the limitation (no path semantics, no cross-type
scores) that motivates HeteSim.  They are provided as honest comparison
points for the examples and benches.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import sparse

from ..core.search import select_top_k
from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.matrices import safe_reciprocal

__all__ = [
    "cosine_similarity_matrix",
    "jaccard_similarity_matrix",
    "scan_similarity_matrix",
    "neighborhood_rank",
]


def _adjacency_rows(graph: HeteroGraph, relation_name: str) -> sparse.csr_matrix:
    return graph.adjacency(relation_name)


def cosine_similarity_matrix(
    graph: HeteroGraph, relation_name: str
) -> np.ndarray:
    """Pairwise cosine of the source-type objects' weighted link vectors.

    ``S[u, v] = <w_u, w_v> / (||w_u|| ||w_v||)`` where ``w_u`` is object
    ``u``'s adjacency row under the relation.  Zero rows score 0.
    """
    rows = _adjacency_rows(graph, relation_name)
    gram = (rows @ rows.T).toarray()
    norms = np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1))).ravel()
    scale = safe_reciprocal(norms)
    return gram * scale[:, None] * scale[None, :]


def jaccard_similarity_matrix(
    graph: HeteroGraph, relation_name: str
) -> np.ndarray:
    """Pairwise Jaccard of the source-type objects' neighbour *sets*.

    ``S[u, v] = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|`` (weights ignored;
    presence only).  Objects without neighbours score 0 everywhere.
    """
    rows = _adjacency_rows(graph, relation_name)
    binary = sparse.csr_matrix(
        (np.ones_like(rows.data), rows.indices, rows.indptr),
        shape=rows.shape,
    )
    intersection = (binary @ binary.T).toarray()
    sizes = np.asarray(binary.sum(axis=1)).ravel()
    union = sizes[:, None] + sizes[None, :] - intersection
    scale = np.zeros_like(union)
    positive = union > 0
    scale[positive] = 1.0 / union[positive]
    return intersection * scale


def scan_similarity_matrix(
    graph: HeteroGraph, relation_name: str
) -> np.ndarray:
    """SCAN structural similarity over one relation's neighbour sets.

    ``S[u, v] = |N(u) ∩ N(v)| / sqrt(|N(u)| |N(v)|)``, neighbour sets
    taken as the relation's targets.  (SCAN proper includes the node
    itself in its neighbourhood on homogeneous graphs; on a bipartite
    relation the intersection form below is the direct analogue.)
    """
    rows = _adjacency_rows(graph, relation_name)
    binary = sparse.csr_matrix(
        (np.ones_like(rows.data), rows.indices, rows.indptr),
        shape=rows.shape,
    )
    intersection = (binary @ binary.T).toarray()
    sizes = np.asarray(binary.sum(axis=1)).ravel()
    scale = np.sqrt(safe_reciprocal(sizes))
    return intersection * scale[:, None] * scale[None, :]


def neighborhood_rank(
    graph: HeteroGraph,
    relation_name: str,
    source_key: str,
    measure: str = "cosine",
) -> List[Tuple[str, float]]:
    """Same-typed objects ranked by a neighbour-set measure.

    ``measure`` is one of ``"cosine"``, ``"jaccard"``, ``"scan"``.
    """
    builders = {
        "cosine": cosine_similarity_matrix,
        "jaccard": jaccard_similarity_matrix,
        "scan": scan_similarity_matrix,
    }
    if measure not in builders:
        raise QueryError(
            f"measure must be one of {sorted(builders)}, got {measure!r}"
        )
    relation = graph.schema.relation(relation_name)
    type_name = relation.source.name
    if not graph.has_node(type_name, source_key):
        raise QueryError(f"{source_key!r} is not a {type_name!r} node")
    matrix = builders[measure](graph, relation_name)
    index = graph.node_index(type_name, source_key)
    scores = matrix[index]
    keys = graph.node_keys(type_name)
    return select_top_k(scores, keys, len(keys))
