"""Ablation benchmarks for the design choices called out in DESIGN.md.

* normalisation (Def. 10) vs raw Eq. (6) -- cost of the cosine step;
* odd-length path (edge-object decomposition) vs comparable even path;
* materialised-halves reuse vs recomputation (Section 4.6, item 2);
* prefix-sharing path cache vs independent computation;
* single-row pruned search vs full-matrix search for one query.

Each bench also asserts the behavioural claim the ablation supports
(e.g. raw HeteSim violates self-maximum; normalised does not).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache import PathMatrixCache
from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_all_targets, hetesim_matrix
from repro.hin.matrices import reachable_probability_matrix


def test_ablation_normalized(benchmark, acm):
    graph = acm.graph
    path = graph.schema.path("APVCVPA")
    matrix = benchmark(hetesim_matrix, graph, path, True)
    # Normalisation restores self-maximum (Fig. 5d behaviour).
    diagonal = np.diag(matrix)
    assert ((np.isclose(diagonal, 1.0)) | (diagonal == 0.0)).all()


def test_ablation_raw(benchmark, acm):
    graph = acm.graph
    path = graph.schema.path("APVCVPA")
    matrix = benchmark(hetesim_matrix, graph, path, False)
    # Raw HeteSim violates self-maximum (the Fig. 5c anomaly): some
    # object is more related to another object than to itself.
    violations = (matrix.max(axis=1) > np.diag(matrix) + 1e-12).sum()
    assert violations > 0


def test_ablation_odd_path_edge_objects(benchmark, acm):
    """Odd path: pays for decompose_adjacency of the middle relation."""
    graph = acm.graph
    path = graph.schema.path("APVC")  # length 3, odd
    matrix = benchmark(hetesim_matrix, graph, path)
    assert matrix.shape == (
        graph.num_nodes("author"), graph.num_nodes("conference")
    )


def test_ablation_even_path_same_types(benchmark, acm):
    """Even path of comparable span, no edge objects, for contrast."""
    graph = acm.graph
    path = graph.schema.path("APVCVPA")  # length 6, even
    matrix = benchmark(hetesim_matrix, graph, path)
    assert matrix.shape == (
        graph.num_nodes("author"), graph.num_nodes("author")
    )


def test_ablation_materialized_halves(benchmark, acm):
    """Warm engine query (Section 4.6's pre-computation)."""
    engine = HeteSimEngine(acm.graph)
    engine.relevance_matrix("APVCVPA")  # warm
    matrix = benchmark(engine.relevance_matrix, "APVCVPA")
    assert matrix.shape[0] == acm.graph.num_nodes("author")


def test_ablation_path_cache_prefix_sharing(benchmark, acm):
    """Five related paths through one prefix-sharing cache."""
    graph = acm.graph
    specs = ["APVC", "APVCV", "APVCVP", "APVCVPA", "APV"]
    paths = [graph.schema.path(spec) for spec in specs]

    def with_cache():
        cache = PathMatrixCache(graph)
        return [cache.reach_prob(path) for path in paths]

    results = benchmark(with_cache)
    assert len(results) == len(specs)


def test_ablation_no_cache(benchmark, acm):
    """The same five paths computed independently."""
    graph = acm.graph
    specs = ["APVC", "APVCV", "APVCVP", "APVCVPA", "APV"]
    paths = [graph.schema.path(spec) for spec in specs]

    def without_cache():
        return [
            reachable_probability_matrix(graph, path) for path in paths
        ]

    results = benchmark(without_cache)
    assert len(results) == len(specs)


def test_ablation_single_row_search(benchmark, acm):
    """One query row only (the pruning of Section 4.6, item 3)."""
    graph = acm.graph
    path = graph.schema.path("APVCVPA")
    hub = acm.personas["hub_author"]
    row = benchmark(hetesim_all_targets, graph, path, hub)
    assert row.argmax() == graph.node_index("author", hub)


def test_ablation_full_matrix_search(benchmark, acm):
    """The exhaustive alternative: all rows for one query."""
    graph = acm.graph
    path = graph.schema.path("APVCVPA")

    def full():
        return hetesim_matrix(graph, path)

    matrix = benchmark(full)
    assert matrix.shape[0] == graph.num_nodes("author")


def test_ablation_dice_normalization(benchmark, acm):
    """The arithmetic-mean (Dice) normalisation variant, for contrast
    with the paper's cosine (Def. 10)."""
    from repro.core.variants import dice_hetesim_matrix

    graph = acm.graph
    path = graph.schema.path("APVCVPA")
    matrix = benchmark(dice_hetesim_matrix, graph, path)
    diagonal = np.diag(matrix)
    assert ((np.isclose(diagonal, 1.0)) | (diagonal == 0.0)).all()


def test_ablation_chain_order_left_to_right(benchmark, acm):
    """Baseline: PM product evaluated left to right."""
    graph = acm.graph
    path = graph.schema.path("APVCVPA")
    matrix = benchmark(reachable_probability_matrix, graph, path)
    assert matrix.shape[0] == graph.num_nodes("author")


def test_ablation_chain_order_optimal(benchmark, acm):
    """Same product through the matrix-chain-order DP."""
    from repro.core.backend import materialise

    graph = acm.graph
    path = graph.schema.path("APVCVPA")
    matrix = benchmark(materialise, graph, path)
    assert matrix.shape[0] == graph.num_nodes("author")
