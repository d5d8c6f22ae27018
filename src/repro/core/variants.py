"""Normalisation variants of HeteSim (design-choice ablation).

Definition 10 normalises the meeting probability by the *geometric* mean
of the two walkers' self-meeting masses (the cosine).  The natural
alternative -- PathSim transplanted to probability space -- divides by
the *arithmetic* mean instead:

    Dice(a, b | P) = 2 <f_a, b_b> / (||f_a||^2 + ||b_b||^2)

Both keep the properties that make HeteSim usable (symmetry over
P <-> P^-1, range [0, 1] with equality iff the two distributions
coincide); they differ in how they trade popularity against focus, with
Dice penalising mismatched distribution "sizes" more aggressively
(AM >= GM).  The ablation bench compares the two on the paper's queries.
"""

from __future__ import annotations

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from .hetesim import half_reach_matrices

__all__ = ["dice_hetesim_matrix", "dice_hetesim_pair"]


def dice_hetesim_matrix(graph: HeteroGraph, path: MetaPath) -> np.ndarray:
    """All-pairs Dice-normalised HeteSim.

    ``2 * raw(a, b) / (||f_a||^2 + ||b_b||^2)``; pairs where either side
    has an empty reach distribution score 0.
    """
    left, right = half_reach_matrices(graph, path)
    raw = (left @ right.T).toarray()
    left_mass = np.asarray(left.multiply(left).sum(axis=1)).ravel()
    right_mass = np.asarray(right.multiply(right).sum(axis=1)).ravel()
    denominator = left_mass[:, None] + right_mass[None, :]
    scale = np.zeros_like(denominator)
    positive = denominator > 0
    scale[positive] = 1.0 / denominator[positive]
    scores = 2.0 * raw * scale
    # A pair is only meaningful when *both* sides have reach mass.
    scores[left_mass == 0, :] = 0.0
    scores[:, right_mass == 0] = 0.0
    return scores


def dice_hetesim_pair(
    graph: HeteroGraph,
    path: MetaPath,
    source_key: str,
    target_key: str,
) -> float:
    """Dice-normalised HeteSim of one pair."""
    for type_name, key in (
        (path.source_type.name, source_key),
        (path.target_type.name, target_key),
    ):
        if not graph.has_node(type_name, key):
            raise QueryError(f"{key!r} is not a {type_name!r} node")
    left, right = half_reach_matrices(graph, path)
    i = graph.node_index(path.source_type.name, source_key)
    j = graph.node_index(path.target_type.name, target_key)
    forward = left.getrow(i)
    backward = right.getrow(j)
    raw = float((forward @ backward.T).toarray()[0, 0])
    left_mass = float(forward.multiply(forward).sum())
    right_mass = float(backward.multiply(backward).sum())
    denominator = left_mass + right_mass
    if denominator == 0 or left_mass == 0 or right_mass == 0:
        return 0.0
    return 2.0 * raw / denominator
