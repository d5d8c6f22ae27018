"""Correctness gate: an independent dense-numpy reference and the checks.

The reference is built from the benchmark's own edge lists (never from
the program's graph or matrices): transition matrices are row-normalised
dense adjacency, HeteSim is the cosine of the two half-path reach
distributions (Eq. 8), PathSim is ``2 M(s,t) / (M(s,s) + M(t,t))`` over
path counts, PCRW is the left-to-right reach probability and
``combined`` the weighted sum of HeteSim scores.

A returned score must match the reference within :data:`SCORE_TOL`; a
returned ranking must equal the reference ``(-score, key)`` order except
where the two keys at a position are tied within :data:`TIE_TOL`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SCORE_TOL = 1e-9
TIE_TOL = 1e-12

_TYPE = {"A": "author", "P": "paper", "C": "conf"}


def _row_normalize(matrix: np.ndarray) -> np.ndarray:
    sums = matrix.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sums > 0, matrix / sums, 0.0)


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norms > 0, matrix / norms, 0.0)


class Reference:
    """Dense reference scores over one graph state.

    ``keys`` maps each type to its node keys in index order; ``writes``
    and ``published_in`` are ``(source index, target index)`` arrays.
    """

    def __init__(
        self,
        keys: Dict[str, List[str]],
        writes: np.ndarray,
        published_in: np.ndarray,
    ) -> None:
        self.keys = keys
        self.index = {
            t: {key: i for i, key in enumerate(ks)} for t, ks in keys.items()
        }
        n = {t: len(ks) for t, ks in keys.items()}
        w_ap = np.zeros((n["author"], n["paper"]))
        np.add.at(w_ap, (writes[:, 0], writes[:, 1]), 1.0)
        w_pc = np.zeros((n["paper"], n["conf"]))
        np.add.at(w_pc, (published_in[:, 0], published_in[:, 1]), 1.0)
        self._adj: Dict[Tuple[str, str], np.ndarray] = {
            ("A", "P"): w_ap, ("P", "A"): w_ap.T,
            ("P", "C"): w_pc, ("C", "P"): w_pc.T,
        }
        self._halves: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._cache: Dict[Tuple[str, str], np.ndarray] = {}

    # -- path algebra -------------------------------------------------
    def _walk(self, code: str) -> np.ndarray:
        """Reach probabilities along ``code`` (row-normalised steps)."""
        out = None
        for a, b in zip(code, code[1:]):
            step = _row_normalize(self._adj[(a, b)])
            out = step if out is None else out @ step
        return out

    def _counts(self, code: str) -> np.ndarray:
        out = None
        for a, b in zip(code, code[1:]):
            step = self._adj[(a, b)]
            out = step if out is None else out @ step
        return out

    def _unit_halves(self, code: str) -> Tuple[np.ndarray, np.ndarray]:
        """Unit-normalised ``(PM_PL, PM_{PR^-1})`` of an even path."""
        if code not in self._halves:
            if (len(code) - 1) % 2:
                raise ValueError(f"reference needs an even path, got {code}")
            mid = (len(code) - 1) // 2
            left = _unit_rows(self._walk(code[: mid + 1]))
            right = _unit_rows(self._walk(code[mid:][::-1]))
            self._halves[code] = (left, right)
        return self._halves[code]

    # -- scores -------------------------------------------------------
    def scores(self, measure: str, path: str, source: str) -> np.ndarray:
        """Reference scores of ``source`` against every target object."""
        if measure == "combined":
            total = None
            parts = [part.split("=") for part in path.split(",")]
            weight_sum = sum(float(w) for _, w in parts)
            for code, weight in parts:
                row = float(weight) / weight_sum * self.scores(
                    "hetesim", code, source
                )
                total = row if total is None else total + row
            return total
        row = self.index[_TYPE[path[0]]][source]
        if measure == "hetesim":
            left, right = self._unit_halves(path)
            return right @ left[row]
        key = (measure, path)
        if key not in self._cache:
            if measure == "pcrw":
                self._cache[key] = self._walk(path)
            elif measure == "pathsim":
                half = self._counts(path[: (len(path) + 1) // 2])
                counts = half @ half.T
                diag = np.diag(counts)
                denominator = diag[:, None] + diag[None, :]
                with np.errstate(divide="ignore", invalid="ignore"):
                    self._cache[key] = np.where(
                        denominator > 0, 2.0 * counts / denominator, 0.0
                    )
            else:
                raise ValueError(f"no reference for measure {measure!r}")
        return self._cache[key][row]

    def target_keys(self, path: str) -> List[str]:
        code = path.split("=")[0].split(",")[0]
        return self.keys[_TYPE[code[-1]]]

    def pair(self, path: str, source: str, target: str) -> float:
        scores = self.scores("hetesim", path, source)
        return float(scores[self.index[_TYPE[path[-1]]][target]])


def check_ranking(
    ref_scores: np.ndarray,
    keys: Sequence[str],
    ranking: Sequence[Tuple[str, float]],
    k: int,
) -> Optional[str]:
    """None when ``ranking`` is a correct top-``k``; else the first
    mismatch, described."""
    expected = sorted(range(len(keys)), key=lambda i: (-ref_scores[i], keys[i]))
    expected = expected[: max(0, min(k, len(keys)))]
    if len(ranking) != len(expected):
        return f"ranking has {len(ranking)} entries, expected {len(expected)}"
    position = {key: i for i, key in enumerate(keys)}
    seen = set()
    for rank, ((key, score), want) in enumerate(zip(ranking, expected)):
        if key not in position or key in seen:
            return f"rank {rank}: unknown or repeated key {key!r}"
        seen.add(key)
        truth = float(ref_scores[position[key]])
        if not abs(float(score) - truth) <= SCORE_TOL:
            return f"rank {rank}: {key} scored {score!r}, reference {truth!r}"
        if key != keys[want] and not (
            abs(truth - float(ref_scores[want])) <= TIE_TOL
        ):
            return (
                f"rank {rank}: {key} ({truth!r}) where reference has "
                f"{keys[want]} ({float(ref_scores[want])!r})"
            )
    return None


def check_score(truth: float, score: float) -> Optional[str]:
    if not abs(float(score) - truth) <= SCORE_TOL:
        return f"score {score!r}, reference {truth!r}"
    return None
