"""Supervised relevance-path selection (Section 5.1, option 3).

"Supervised learning can be used to automatically select relevance
paths.  We can label a small portion of similar objects, and then train
the relevance paths and their weights by some learning algorithms."

:func:`learn_path_weights` implements exactly that: given labelled
``(source, target, is_related)`` pairs and a set of candidate paths, it
builds the per-path HeteSim feature matrix and fits non-negative weights
by non-negative least squares (labels as the regression target).  NNLS
keeps the combination interpretable -- a zero weight means "this path's
semantics do not explain the labels" -- and the result's
:attr:`PathWeightResult.spec` plugs straight into the ``combined``
measure (:class:`~repro.core.measures.combined.CombinedMeasure`).

It differs from :func:`~repro.core.measures.combined.fit_combined_weights`
in both input and algorithm: labelled pairs fitted by least squares
here, ranking judgments searched over a simplex grid there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import optimize

from ..hin.errors import PathError, QueryError
from ..hin.metapath import MetaPath, PathSpec
from .engine import HeteSimEngine
from .measures.combined import weights_spec

__all__ = ["LabeledPair", "PathWeightResult", "learn_path_weights"]

#: ``(source_key, target_key, label)`` with label 1 = related, 0 = not.
LabeledPair = Tuple[str, str, int]


@dataclass
class PathWeightResult:
    """Outcome of supervised path-weight learning.

    Attributes
    ----------
    weights:
        Path code -> learned weight, normalised to sum to 1.
    raw_weights:
        The unnormalised NNLS solution (for inspecting magnitudes).
    residual:
        NNLS residual norm -- how well the weighted combination explains
        the labels.
    """

    weights: Dict[str, float]
    raw_weights: Dict[str, float]
    residual: float

    def best_path(self) -> str:
        """The path code with the largest learned weight."""
        return max(self.weights, key=self.weights.get)

    @property
    def spec(self) -> str:
        """The learned weights as a ``combined`` measure spec.

        Paths that learned weight zero are dropped: their scores cannot
        influence the combination.
        """
        return weights_spec(self.weights)


def learn_path_weights(
    engine: HeteSimEngine,
    candidate_paths: Sequence[PathSpec],
    labeled_pairs: Sequence[LabeledPair],
) -> PathWeightResult:
    """Fit non-negative path weights from labelled object pairs.

    Parameters
    ----------
    engine:
        Engine over the network being learned on.
    candidate_paths:
        Candidate relevance paths; all must share endpoint types.
    labeled_pairs:
        ``(source, target, label)`` tuples, label in {0, 1}.  Needs at
        least one pair and at least one candidate path.

    Raises
    ------
    QueryError
        For empty inputs or non-binary labels.
    PathError
        When candidate paths do not share endpoint types.
    """
    if not candidate_paths:
        raise QueryError("at least one candidate path is required")
    if not labeled_pairs:
        raise QueryError("at least one labelled pair is required")

    paths: List[MetaPath] = [engine.path(spec) for spec in candidate_paths]
    first = paths[0]
    for path in paths[1:]:
        if (
            path.source_type != first.source_type
            or path.target_type != first.target_type
        ):
            raise PathError(
                f"candidate paths {first.code()} and {path.code()} do not "
                "share endpoint types"
            )

    labels = np.empty(len(labeled_pairs))
    for row, (source, target, label) in enumerate(labeled_pairs):
        if label not in (0, 1):
            raise QueryError(
                f"labels must be 0 or 1, got {label!r} for "
                f"({source!r}, {target!r})"
            )
        labels[row] = label
    endpoint_pairs = [(s_, t_) for s_, t_, _ in labeled_pairs]
    features = np.column_stack(
        [engine.relevance_pairs(endpoint_pairs, path) for path in paths]
    )

    solution, residual = optimize.nnls(features, labels)
    raw = {
        path.code(): float(weight)
        for path, weight in zip(paths, solution)
    }
    total = sum(raw.values())
    if total > 0:
        normalised = {code: weight / total for code, weight in raw.items()}
    else:
        # Degenerate labels (e.g. all zeros): fall back to uniform, which
        # keeps the result usable as a measure.
        normalised = {code: 1.0 / len(raw) for code in raw}
    return PathWeightResult(
        weights=normalised, raw_weights=raw, residual=float(residual)
    )
