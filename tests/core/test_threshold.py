"""Exact top-k search: ``top_k_targets`` against the engine's ranking.

Both entry points score through the HeteSim plugin's prepared state
and rank with ``select_top_k``, so their answers must agree exactly --
keys, scores and the key-order tie-break -- on every graph and ``k``.
"""

import pytest

from repro.core.engine import HeteSimEngine
from repro.core.search import top_k_targets
from repro.hin.errors import QueryError


class TestExactness:
    @pytest.mark.parametrize("spec", ["APVC", "APVCVPA"])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_engine_ranking(self, acm, spec, k):
        graph = acm.graph
        engine = HeteSimEngine(graph)
        path = graph.schema.path(spec)
        hub = acm.personas["hub_author"]
        assert top_k_targets(graph, path, hub, k=k) == engine.top_k(
            hub, path, k=k
        )
        assert engine.top_k(hub, path, k=k) == engine.rank(hub, path)[:k]

    def test_raw_mode_matches(self, acm):
        graph = acm.graph
        engine = HeteSimEngine(graph)
        path = graph.schema.path("APVC")
        young = acm.personas["young_sigir"]
        assert top_k_targets(
            graph, path, young, k=5, normalized=False
        ) == engine.top_k(young, path, k=5, normalized=False)

    def test_toy_graph(self, fig4):
        path = fig4.schema.path("APC")
        ranking = top_k_targets(fig4, path, "Tom", k=2)
        assert ranking[0] == ("KDD", pytest.approx(1.0))

    def test_random_graphs(self):
        from repro.datasets.random_hin import make_random_hin
        from repro.datasets.schemas import toy_apc_schema

        for seed in range(5):
            graph = make_random_hin(
                toy_apc_schema(),
                sizes={"author": 12, "paper": 20, "conference": 6},
                edge_prob=0.2,
                seed=seed,
                ensure_connected_rows=True,
            )
            engine = HeteSimEngine(graph)
            path = graph.schema.path("APC")
            for source in graph.node_keys("author")[:3]:
                assert top_k_targets(
                    graph, path, source, k=3
                ) == engine.top_k(source, path, k=3), (
                    f"seed={seed} source={source}"
                )


class TestEdgeCases:
    def test_dangling_source(self, fig4):
        fig4.add_node("author", "lurker")
        path = fig4.schema.path("APC")
        ranking = top_k_targets(fig4, path, "lurker", k=2)
        assert len(ranking) == 2
        assert all(score == 0.0 for _, score in ranking)

    def test_k_larger_than_targets(self, fig4):
        path = fig4.schema.path("APC")
        ranking = top_k_targets(fig4, path, "Tom", k=50)
        assert len(ranking) == fig4.num_nodes("conference")

    def test_bad_k(self, fig4):
        # k clamps like a slice instead of raising.
        path = fig4.schema.path("APC")
        assert top_k_targets(fig4, path, "Tom", k=0) == []
        assert top_k_targets(fig4, path, "Tom", k=-1) == []

    def test_unknown_source(self, fig4):
        path = fig4.schema.path("APC")
        with pytest.raises(QueryError):
            top_k_targets(fig4, path, "ghost")
