"""Cross-validated evaluation of learned path weights.

Supervised path selection (§5.1) is only trustworthy if the learned
weights generalise; this module provides the standard k-fold harness:
split the labelled pairs, fit weights on each training fold
(:func:`repro.core.pathlearn.learn_path_weights`), and score the held-out
fold's pairs with the ``combined`` measure over the fitted weights (AUC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..hin.errors import QueryError
from .auc import auc_score

__all__ = ["CrossValResult", "cross_validate_path_weights"]


@dataclass
class CrossValResult:
    """Outcome of one k-fold run.

    Attributes
    ----------
    fold_aucs:
        Held-out AUC per fold (folds whose test split lacked one of the
        classes are skipped and do not appear here).
    mean_weights:
        Per-path weights averaged over the folds' fitted models.
    """

    fold_aucs: List[float]
    mean_weights: Dict[str, float]

    @property
    def mean_auc(self) -> float:
        """Average held-out AUC across scoreable folds."""
        if not self.fold_aucs:
            return float("nan")
        return float(np.mean(self.fold_aucs))


def cross_validate_path_weights(
    engine,
    candidate_paths: Sequence,
    labeled_pairs: Sequence,
    folds: int = 5,
    seed: int = 0,
) -> CrossValResult:
    """k-fold evaluation of supervised path-weight learning.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.engine.HeteSimEngine`.
    candidate_paths / labeled_pairs:
        As for :func:`repro.core.pathlearn.learn_path_weights`.
    folds:
        Number of folds; must be >= 2 and <= number of pairs.
    seed:
        Shuffling seed (deterministic splits per seed).
    """
    from ..core.measures import get_measure
    from ..core.pathlearn import learn_path_weights

    combined = get_measure("combined")

    pairs = list(labeled_pairs)
    if folds < 2:
        raise QueryError(f"folds must be >= 2, got {folds}")
    if len(pairs) < folds:
        raise QueryError(
            f"need at least {folds} labelled pairs for {folds}-fold CV, "
            f"got {len(pairs)}"
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    splits = np.array_split(order, folds)

    fold_aucs: List[float] = []
    weight_sums: Dict[str, float] = {}
    fitted = 0
    for fold_index in range(folds):
        test_idx = set(int(i) for i in splits[fold_index])
        train = [p for i, p in enumerate(pairs) if i not in test_idx]
        test = [p for i, p in enumerate(pairs) if i in test_idx]
        if not train or not test:
            continue
        result = learn_path_weights(engine, candidate_paths, train)
        fitted += 1
        for code, weight in result.weights.items():
            weight_sums[code] = weight_sums.get(code, 0.0) + weight
        labels = [label for _, _, label in test]
        if len(set(labels)) < 2:
            continue  # AUC undefined on a single-class fold
        scores = [
            combined.pair(engine.measures, result.spec, s, t)
            for s, t, _ in test
        ]
        fold_aucs.append(auc_score(labels, scores))

    mean_weights = {
        code: total / fitted for code, total in weight_sums.items()
    } if fitted else {}
    return CrossValResult(fold_aucs=fold_aucs, mean_weights=mean_weights)
