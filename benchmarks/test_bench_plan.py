"""Planner benchmarks: planned vs left-to-right materialisation.

A size-skewed network (two large object types flanking a tiny one) is
the regime where product ordering matters: left-to-right evaluation of
``ABCBA`` forms a large x large intermediate, while the planner pairs
each large factor with the tiny middle type first.  The measured
speedup is recorded in the bench JSON under ``extra_info``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.backend import materialise
from repro.datasets.random_hin import make_random_hin
from repro.hin.matrices import transition_matrix
from repro.hin.schema import NetworkSchema

LARGE = 900
SMALL = 6


def _skewed_schema():
    return NetworkSchema.from_spec(
        types=[("a", "A"), ("b", "B"), ("c", "C")],
        relations=[("ab", "a", "b"), ("bc", "b", "c")],
    )


@pytest.fixture(scope="module")
def skewed():
    """Two ``LARGE`` types around a ``SMALL`` middle type."""
    return make_random_hin(
        _skewed_schema(),
        sizes={"a": LARGE, "b": LARGE, "c": SMALL},
        edge_prob=6.0 / LARGE,
        edge_probs={"bc": 0.5},
        seed=0,
        ensure_connected_rows=True,
    )


def _left_to_right(graph, path):
    product = None
    for relation in path.relations:
        step = transition_matrix(graph, relation.name, "U")
        product = step if product is None else (product @ step).tocsr()
    return product


def test_planned_vs_left_to_right(benchmark, skewed):
    """PM_ABCBA on the skewed network: the planner avoids the
    large x large intermediate the left-to-right fold creates."""
    path = skewed.schema.path("ABCBA")

    start = time.perf_counter()
    baseline = _left_to_right(skewed, path)
    baseline_seconds = time.perf_counter() - start

    planned = benchmark(materialise, skewed, path)

    np.testing.assert_allclose(
        planned.toarray(), baseline.toarray(), atol=1e-10
    )
    benchmark.extra_info["left_to_right_seconds"] = baseline_seconds
    if benchmark.stats is not None:  # absent under --benchmark-disable
        planned_seconds = benchmark.stats["mean"]
        benchmark.extra_info["speedup_vs_left_to_right"] = (
            baseline_seconds / planned_seconds if planned_seconds > 0
            else None
        )


def test_planned_materialisation_only(benchmark, skewed):
    """The planner's own cost on a long skewed path (no comparison)."""
    path = skewed.schema.path("ABCBABCBA")
    planned = benchmark(materialise, skewed, path)
    assert planned.shape == (LARGE, LARGE)
