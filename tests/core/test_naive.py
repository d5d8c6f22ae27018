"""Cross-validation: matrix HeteSim vs the two naive references."""

import pytest

from repro.core.hetesim import hetesim_pair
from repro.core.naive import naive_hetesim, naive_hetesim_raw
from repro.datasets.random_hin import make_random_hin
from repro.datasets.schemas import toy_apc_schema
from repro.hin.errors import QueryError


@pytest.fixture(scope="module")
def small_graph():
    return make_random_hin(
        toy_apc_schema(),
        sizes={"author": 8, "paper": 12, "conference": 4},
        edge_prob=0.25,
        seed=7,
        ensure_connected_rows=True,
    )


ALL_PATHS = ["AP", "APC", "APA", "CPA", "APCPA", "PAP", "PC"]


class TestNaiveMatchesMatrix:
    @pytest.mark.parametrize("spec", ALL_PATHS)
    def test_normalized_agreement(self, small_graph, spec):
        path = small_graph.schema.path(spec)
        sources = small_graph.node_keys(path.source_type.name)[:4]
        targets = small_graph.node_keys(path.target_type.name)[:4]
        for s in sources:
            for t in targets:
                fast = hetesim_pair(small_graph, path, s, t)
                slow = naive_hetesim(small_graph, path, s, t)
                assert fast == pytest.approx(slow, abs=1e-10)

    @pytest.mark.parametrize("spec", ALL_PATHS)
    def test_raw_agreement(self, small_graph, spec):
        path = small_graph.schema.path(spec)
        sources = small_graph.node_keys(path.source_type.name)[:4]
        targets = small_graph.node_keys(path.target_type.name)[:4]
        for s in sources:
            for t in targets:
                fast = hetesim_pair(
                    small_graph, path, s, t, normalized=False
                )
                slow = naive_hetesim(
                    small_graph, path, s, t, normalized=False
                )
                assert fast == pytest.approx(slow, abs=1e-10)

    @pytest.mark.parametrize("spec", ["AP", "APC", "APA", "APCPA"])
    def test_recursive_raw_agreement(self, small_graph, spec):
        """The Eq. (1) recursion itself matches the matrix form."""
        path = small_graph.schema.path(spec)
        sources = small_graph.node_keys(path.source_type.name)[:3]
        targets = small_graph.node_keys(path.target_type.name)[:3]
        for s in sources:
            for t in targets:
                fast = hetesim_pair(
                    small_graph, path, s, t, normalized=False
                )
                slow = naive_hetesim_raw(small_graph, path, s, t)
                assert fast == pytest.approx(slow, abs=1e-10)

    def test_weighted_graph_agreement(self):
        """Weighted edges flow through both implementations identically."""
        from repro.hin.graph import HeteroGraph
        from repro.datasets.schemas import bipartite_schema

        graph = HeteroGraph(bipartite_schema())
        graph.add_edge("r", "a1", "b1", weight=3.0)
        graph.add_edge("r", "a1", "b2", weight=1.0)
        graph.add_edge("r", "a2", "b2", weight=2.0)
        path = graph.schema.path("AB")
        for s in ("a1", "a2"):
            for t in ("b1", "b2"):
                fast = hetesim_pair(graph, path, s, t, normalized=False)
                slow = naive_hetesim(graph, path, s, t, normalized=False)
                recursive = naive_hetesim_raw(graph, path, s, t)
                assert fast == pytest.approx(slow, abs=1e-12)
                assert fast == pytest.approx(recursive, abs=1e-12)


class TestNaiveEdgeCases:
    def test_fig4_example(self, fig4):
        path = fig4.schema.path("APC")
        assert naive_hetesim_raw(fig4, path, "Tom", "KDD") == pytest.approx(0.5)
        assert naive_hetesim(fig4, path, "Tom", "KDD") == pytest.approx(1.0)

    def test_dangling_source_scores_zero(self, fig4):
        fig4.add_node("author", "lurker")
        path = fig4.schema.path("APC")
        assert naive_hetesim(fig4, path, "lurker", "KDD") == 0.0
        assert naive_hetesim_raw(fig4, path, "lurker", "KDD") == 0.0

    def test_unknown_nodes_rejected(self, fig4):
        path = fig4.schema.path("APC")
        with pytest.raises(QueryError):
            naive_hetesim(fig4, path, "ghost", "KDD")
        with pytest.raises(QueryError):
            naive_hetesim_raw(fig4, path, "Tom", "ghost")
