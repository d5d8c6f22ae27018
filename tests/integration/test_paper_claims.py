"""The paper's headline claims, asserted as one narrative test module.

The abstract promises three attributes -- (1) path-constrained, (2) a
uniform measure over same- and different-typed objects, (3) semi-metric
-- and Section 4.5 adds that HeteSim does *not* obey the triangle
inequality.  Each claim gets a direct check here, on top of the per-module
tests elsewhere.
"""

import numpy as np
import pytest

from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_matrix
from repro.datasets.random_hin import make_random_hin
from repro.datasets.schemas import toy_apc_schema


class TestClaim1PathConstrained:
    """"The relatedness of object pairs are defined based on the search
    path" -- different paths, different scores."""

    def test_different_paths_different_relatedness(self, fig4):
        engine = HeteSimEngine(fig4)
        direct = engine.relevance("Tom", "SIGMOD", "APC")
        via_coauthors = engine.relevance("Tom", "SIGMOD", "APAPC")
        assert direct != via_coauthors

    def test_semantics_follow_the_path(self, acm):
        """APVC emphasises the author's own venues; APT his terms --
        rankings live in different target types entirely, and even two
        author-to-conference paths rank differently."""
        engine = HeteSimEngine(acm.graph)
        hub = acm.personas["hub_author"]
        own = [k for k, _ in engine.top_k(hub, "APVC", k=14)]
        via_coauthors = [
            k for k, _ in engine.top_k(hub, "APAPVC", k=14)
        ]
        assert own != via_coauthors


class TestClaim2UniformMeasure:
    """Same- and different-typed pairs under one definition."""

    def test_same_and_different_typed_queries_share_machinery(self, fig4):
        engine = HeteSimEngine(fig4)
        different_typed = engine.relevance("Tom", "KDD", "APC")
        same_typed = engine.relevance("Tom", "Mary", "APA")
        assert 0 <= different_typed <= 1
        assert 0 <= same_typed <= 1

    def test_arbitrary_odd_paths_supported(self, acm):
        """PathSim cannot handle asymmetric paths; HeteSim must."""
        from repro.baselines.pathsim import pathsim_matrix
        from repro.hin.errors import PathError

        graph = acm.graph
        path = graph.schema.path("APVC")
        scores = hetesim_matrix(graph, path)
        assert scores.max() > 0
        with pytest.raises(PathError):
            pathsim_matrix(graph, path)


class TestClaim3SemiMetric:
    """Non-negativity, identity of indiscernibles, symmetry (Section 4.5)."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_random_hin(
            toy_apc_schema(),
            sizes={"author": 12, "paper": 25, "conference": 5},
            edge_prob=0.2,
            seed=13,
            ensure_connected_rows=True,
        )

    def test_non_negativity(self, graph):
        for spec in ("APC", "APA", "APCPA"):
            assert (
                hetesim_matrix(graph, graph.schema.path(spec)) >= -1e-15
            ).all()

    def test_identity_of_indiscernibles(self, graph):
        """dis(s, s) = 1 - HeteSim(s, s) = 0 on symmetric paths."""
        matrix = hetesim_matrix(graph, graph.schema.path("APA"))
        connected = np.diag(matrix) > 0
        np.testing.assert_allclose(
            1.0 - np.diag(matrix)[connected], 0.0, atol=1e-12
        )

    def test_symmetry(self, graph):
        path = graph.schema.path("APC")
        forward = hetesim_matrix(graph, path)
        backward = hetesim_matrix(graph, path.reverse())
        np.testing.assert_allclose(forward, backward.T, atol=1e-12)

    def test_triangle_inequality_fails(self):
        """Section 4.5: "it does not obey the triangle inequality" --
        exhibit a violating triple on a concrete network."""
        found = False
        for seed in range(30):
            graph = make_random_hin(
                toy_apc_schema(),
                sizes={"author": 8, "paper": 12, "conference": 3},
                edge_prob=0.25,
                seed=seed,
                ensure_connected_rows=True,
            )
            matrix = hetesim_matrix(graph, graph.schema.path("APA"))
            distance = 1.0 - matrix
            n = matrix.shape[0]
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if distance[a, c] > (
                            distance[a, b] + distance[b, c] + 1e-9
                        ):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        assert found, (
            "expected at least one triangle-inequality violation across "
            "30 random networks (the paper states HeteSim is not a metric)"
        )


class TestHeadlineTasks:
    """"HeteSim can effectively evaluate the relatedness of heterogeneous
    objects" -- the three case-study tasks run end to end."""

    def test_profiling_query_clustering_pipeline(self, acm):
        from repro.core.profiles import build_profile
        from repro.learning.ncut import normalized_cut

        engine = HeteSimEngine(acm.graph)
        hub = acm.personas["hub_author"]

        # Task 1: profiling.
        profile = build_profile(engine, "author", hub, k=3)
        assert profile.section("conference").ranking[0][0] == "KDD"

        # Task 2 flavour: relative importance is comparable across areas.
        kdd_score = engine.relevance(hub, "KDD", "APVC")
        sosp_score = engine.relevance("SOSP-star", "SOSP", "APVC")
        assert 0 < kdd_score <= 1 and 0 < sosp_score <= 1

        # Clustering: the symmetric matrix clusters directly.
        similarity = engine.relevance_matrix("CVPAPVC")
        labels = normalized_cut(similarity, 4, seed=0)
        assert len(set(labels.tolist())) == 4
