"""Benchmarks for the Section 4.6 / 5.1 extension machinery:
the degradation ladder's prune rung, Monte-Carlo estimation, multi-path
combination, path-weight learning, and the neighbour-set baselines."""

from __future__ import annotations

import pytest

from repro.baselines.neighborhood import (
    cosine_similarity_matrix,
    jaccard_similarity_matrix,
    scan_similarity_matrix,
)
from repro.core.approx import monte_carlo_hetesim
from repro.core.measures import get_measure
from repro.core.pathlearn import learn_path_weights
from repro.runtime.resilience import ResilientRuntime, Strategy


def _prune_rung(graph, mass):
    return ResilientRuntime(
        graph,
        policy=(Strategy("prune", prune_mass=mass, enforced=False),),
    )


def test_pruned_topk_exact(benchmark, acm):
    graph = acm.graph
    path = graph.schema.path("APVC")
    hub = acm.personas["hub_author"]
    runtime = _prune_rung(graph, 0.0)
    result = benchmark(runtime.top_k, hub, path, 5)
    assert result.value[0][0] == "KDD"


def test_pruned_topk_with_mass_tolerance(benchmark, acm):
    graph = acm.graph
    path = graph.schema.path("APVC")
    hub = acm.personas["hub_author"]
    runtime = _prune_rung(graph, 0.05)
    result = benchmark(runtime.top_k, hub, path, 5)
    assert result.value[0][0] == "KDD"


@pytest.mark.parametrize("walks", [100, 1000])
def test_monte_carlo_estimate(benchmark, acm, walks):
    graph = acm.graph
    path = graph.schema.path("APVC")
    hub = acm.personas["hub_author"]

    def run():
        return monte_carlo_hetesim(
            graph, path, hub, "KDD", walks=walks, seed=0
        )

    estimate = benchmark(run)
    assert 0 <= estimate <= 1


def test_multipath_combination(benchmark, acm, acm_engine):
    combined = get_measure("combined")
    hub = acm.personas["hub_author"]
    ranking = benchmark(
        combined.top_k,
        acm_engine.measures,
        "APVC=0.7,APVCVPAPVC=0.3",
        hub,
        5,
    )
    assert ranking[0][0] == "KDD"


def test_path_weight_learning(benchmark, acm, acm_engine):
    hub = acm.personas["hub_author"]
    labeled = [
        (hub, "KDD", 1), (hub, "SOSP", 0),
        ("SIGIR-star", "SIGIR", 1), ("SIGIR-star", "SODA", 0),
    ]

    def run():
        return learn_path_weights(
            acm_engine, ["APVC", "APVCVPAPVC"], labeled
        )

    result = benchmark(run)
    assert sum(result.weights.values()) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "builder",
    [cosine_similarity_matrix, jaccard_similarity_matrix,
     scan_similarity_matrix],
    ids=["cosine", "jaccard", "scan"],
)
def test_neighborhood_baselines(benchmark, acm, builder):
    matrix = benchmark(builder, acm.graph, "writes")
    assert matrix.shape[0] == acm.graph.num_nodes("author")


def test_threshold_topk(benchmark, acm):
    from repro.core.search import top_k_targets

    graph = acm.graph
    path = graph.schema.path("APVC")
    hub = acm.personas["hub_author"]
    ranking = benchmark(top_k_targets, graph, path, hub, 5)
    assert ranking[0][0] == "KDD"


def test_explain_pair(benchmark, acm):
    from repro.core.explain import explain_relevance

    graph = acm.graph
    path = graph.schema.path("APVC")
    hub = acm.personas["hub_author"]
    contributions = benchmark(explain_relevance, graph, path, hub, "KDD", 5)
    assert contributions


def test_enumerate_candidate_paths(benchmark):
    from repro.datasets.schemas import acm_schema
    from repro.hin.enumerate import enumerate_paths

    schema = acm_schema()
    paths = benchmark(
        enumerate_paths, schema, "author", "conference", 5
    )
    assert len(paths) >= 5


def test_matrix_store_roundtrip(benchmark, acm, tmp_path_factory):
    from repro.core.store import MatrixStore
    from repro.core.cache import PathMatrixCache

    graph = acm.graph
    paths = [graph.schema.path("APVC").halves().left or
             graph.schema.path("AP")]
    directory = tmp_path_factory.mktemp("store-bench")
    store = MatrixStore(directory)

    def roundtrip():
        store.save(graph, paths)
        cache = PathMatrixCache(graph)
        return store.load_into(cache)

    loaded = benchmark(roundtrip)
    assert loaded == len(paths)


def test_engine_submatrix_query(benchmark, acm, acm_engine):
    sources = [acm.personas["hub_author"], "broad-author-1",
               "peer-author-1", "group-author"]
    matrix = benchmark(acm_engine.relevance_submatrix, sources, "APVC")
    assert matrix.shape == (4, 14)


def test_build_full_autoprofile(benchmark, acm, acm_engine):
    from repro.core.profiles import build_profile

    hub = acm.personas["hub_author"]
    profile = benchmark(
        build_profile, acm_engine, "author", hub, 5, 4
    )
    assert profile.section("conference").ranking[0][0] == "KDD"
