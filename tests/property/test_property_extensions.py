"""Property-based tests for the search extensions: exact top-k search,
explanations, and subgraphs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import HeteSimEngine
from repro.core.explain import explain_relevance
from repro.core.hetesim import hetesim_pair
from repro.core.search import top_k_targets
from repro.datasets.schemas import toy_apc_schema
from repro.hin.graph import HeteroGraph
from repro.hin.subgraph import induced_subgraph

MAX_N = 6


@st.composite
def apc_graphs(draw):
    n_a = draw(st.integers(2, MAX_N))
    n_p = draw(st.integers(2, MAX_N))
    n_c = draw(st.integers(2, 4))
    writes = draw(
        st.sets(
            st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)),
            min_size=2,
            max_size=n_a * n_p,
        )
    )
    published = draw(
        st.sets(
            st.tuples(st.integers(0, n_p - 1), st.integers(0, n_c - 1)),
            min_size=2,
            max_size=n_p * n_c,
        )
    )
    graph = HeteroGraph(toy_apc_schema())
    graph.add_nodes("author", (f"a{i}" for i in range(n_a)))
    graph.add_nodes("paper", (f"p{i}" for i in range(n_p)))
    graph.add_nodes("conference", (f"c{i}" for i in range(n_c)))
    for i, j in writes:
        graph.add_edge("writes", f"a{i}", f"p{j}")
    for i, j in published:
        graph.add_edge("published_in", f"p{i}", f"c{j}")
    return graph


class TestThresholdProperties:
    """``top_k_targets`` returns exactly the engine's top-k: the same
    keys, scores and tie-break."""

    @given(apc_graphs(), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_always_matches_exact_search(self, graph, k):
        engine = HeteSimEngine(graph)
        path = graph.schema.path("APC")
        for source in graph.node_keys("author")[:2]:
            assert top_k_targets(graph, path, source, k=k) == engine.top_k(
                source, path, k=k
            )

    @given(apc_graphs())
    @settings(max_examples=50, deadline=None)
    def test_raw_mode_matches_exact(self, graph):
        engine = HeteSimEngine(graph)
        path = graph.schema.path("APC")
        source = graph.node_keys("author")[0]
        assert top_k_targets(
            graph, path, source, k=3, normalized=False
        ) == engine.top_k(source, path, k=3, normalized=False)


class TestExplainProperties:
    @given(apc_graphs())
    @settings(max_examples=50, deadline=None)
    def test_contributions_sum_to_raw_score(self, graph):
        path = graph.schema.path("APC")
        source = graph.node_keys("author")[0]
        target = graph.node_keys("conference")[0]
        raw = hetesim_pair(graph, path, source, target, normalized=False)
        contributions = explain_relevance(
            graph, path, source, target, k=1000
        )
        total = sum(c.contribution for c in contributions)
        assert total == pytest.approx(raw, abs=1e-10)

    @given(apc_graphs())
    @settings(max_examples=50, deadline=None)
    def test_shares_form_distribution(self, graph):
        path = graph.schema.path("APC")
        source = graph.node_keys("author")[0]
        target = graph.node_keys("conference")[0]
        contributions = explain_relevance(
            graph, path, source, target, k=1000
        )
        if contributions:
            assert sum(c.share for c in contributions) == pytest.approx(1.0)
            assert all(c.share >= 0 for c in contributions)


class TestSubgraphProperties:
    @given(apc_graphs())
    @settings(max_examples=40, deadline=None)
    def test_full_keep_preserves_scores(self, graph):
        sub = induced_subgraph(graph, {})
        path = graph.schema.path("APC")
        sub_path = sub.schema.path("APC")
        for source in graph.node_keys("author")[:2]:
            for target in graph.node_keys("conference")[:2]:
                assert hetesim_pair(
                    graph, path, source, target
                ) == pytest.approx(
                    hetesim_pair(sub, sub_path, source, target), abs=1e-12
                )

    @given(apc_graphs())
    @settings(max_examples=40, deadline=None)
    def test_subset_never_gains_edges(self, graph):
        keep_authors = graph.node_keys("author")[:2]
        sub = induced_subgraph(graph, {"author": keep_authors})
        assert sub.num_edges("writes") <= graph.num_edges("writes")
        assert sub.num_edges("published_in") == graph.num_edges(
            "published_in"
        )
