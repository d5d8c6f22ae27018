"""Transition probability matrices (Definition 8).

For a relation ``A -R-> B`` with weighted adjacency ``W_AB``:

* ``U_AB`` is ``W_AB`` normalised along each **row** -- the transition
  probabilities of a random walker stepping ``A -> B`` along ``R``;
* ``V_AB`` is ``W_AB`` normalised along each **column** -- the transition
  probabilities of walking ``B -> A`` along ``R^-1`` (read transposed).

Property 2 of the paper (``U_AB = V_BA'`` and ``V_AB = U_BA'``) falls out
of these definitions and is exercised by the test suite.

Rows (columns) that are entirely zero -- objects with no out-(in-)neighbours
under the relation -- stay zero, matching the paper's convention that the
relevance contribution through such objects is 0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from .errors import QueryError
from .graph import HeteroGraph
from .metapath import MetaPath

__all__ = [
    "row_normalize",
    "col_normalize",
    "safe_reciprocal",
    "transition_matrix",
    "factor_matrix",
    "reachable_probability_matrix",
]


def safe_reciprocal(values: np.ndarray) -> np.ndarray:
    """Element-wise ``1 / values`` with zeros mapped to zero (no warning).

    The recurring normalisation guard: dangling objects have zero degree
    or zero-norm reach distributions, and their scores are defined as 0
    rather than NaN.
    """
    return np.divide(
        1.0,
        values,
        out=np.zeros_like(values, dtype=np.float64),
        where=values > 0,
    )


def row_normalize(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """Normalise each row of a non-negative sparse matrix to sum to 1.

    All-zero rows are left as zero (no renormalisation fudge), so the
    result is row-substochastic rather than strictly stochastic when
    dangling rows exist.
    """
    csr = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
    row_sums = np.asarray(csr.sum(axis=1)).ravel()
    scale = np.zeros_like(row_sums)
    nonzero = row_sums > 0
    scale[nonzero] = 1.0 / row_sums[nonzero]
    diag = sparse.diags(scale)
    return (diag @ csr).tocsr()


def col_normalize(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """Normalise each column of a non-negative sparse matrix to sum to 1.

    The column analogue of :func:`row_normalize`; all-zero columns stay
    zero.
    """
    csc = sparse.csc_matrix(matrix, dtype=np.float64, copy=True)
    col_sums = np.asarray(csc.sum(axis=0)).ravel()
    scale = np.zeros_like(col_sums)
    nonzero = col_sums > 0
    scale[nonzero] = 1.0 / col_sums[nonzero]
    diag = sparse.diags(scale)
    return (csc @ diag).tocsr()


def transition_matrix(
    graph: HeteroGraph, relation_name: str, direction: str = "U"
) -> sparse.csr_matrix:
    """The ``U`` or ``V`` matrix of a relation (Definition 8).

    Parameters
    ----------
    graph:
        The network.
    relation_name:
        A forward or inverse relation name (e.g. ``"writes"`` or
        ``"writes^-1"``).
    direction:
        ``"U"`` for the row-normalised forward walk ``A -> B``; ``"V"``
        for the column-normalised matrix of the backward walk.
    """
    adjacency = graph.adjacency(relation_name)
    if direction == "U":
        return row_normalize(adjacency)
    if direction == "V":
        return col_normalize(adjacency)
    raise QueryError(f"direction must be 'U' or 'V', got {direction!r}")


def factor_matrix(
    graph: HeteroGraph, relation_name: str, kind: str = "U"
) -> sparse.csr_matrix:
    """One chain factor of a path-matrix product, by source kind.

    The single factor source of
    :func:`repro.core.backend.materialise`: ``"U"`` and
    ``"V"`` are the Definition 8 transition matrices (reachable
    probabilities), ``"W"`` is the raw weighted adjacency -- the
    unnormalised factor PathSim's path-count chain multiplies.
    """
    if kind == "W":
        return graph.adjacency(relation_name)
    return transition_matrix(graph, relation_name, kind)


def reachable_probability_matrix(
    graph: HeteroGraph, path: MetaPath
) -> sparse.csr_matrix:
    """The reachable probability matrix ``PM_P`` of a path (Definition 9).

    ``PM_P = U_{A1 A2} U_{A2 A3} ... U_{Al Al+1}``; entry ``(i, j)`` is the
    probability that a random walker starting at object ``i`` of type
    ``A1`` and following ``P`` ends at object ``j`` of type ``A(l+1)``.

    This is the *definitional* left-to-right product, kept as the ground
    truth the planner-equivalence tests compare against; production
    callers go through :func:`repro.core.backend.materialise`, which
    evaluates the same chain in a planned association order.
    """
    product: Optional[sparse.csr_matrix] = None
    for relation in path.relations:
        step = transition_matrix(graph, relation.name, "U")
        product = step if product is None else (product @ step).tocsr()
    assert product is not None  # path has >= 1 relation by construction
    return product
