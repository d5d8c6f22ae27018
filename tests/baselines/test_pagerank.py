"""Unit tests for Personalized PageRank."""

import pytest

from repro.baselines.pagerank import personalized_pagerank, ppr_rank
from repro.hin.errors import QueryError


class TestPersonalizedPagerank:
    def test_scores_are_distribution(self, fig4):
        scores, _ = personalized_pagerank(fig4, "author", "Tom")
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert (scores >= 0).all()

    def test_query_node_has_high_mass(self, fig4):
        scores, index = personalized_pagerank(fig4, "author", "Tom")
        tom = index.index_of("author", fig4.node_index("author", "Tom"))
        assert scores[tom] == scores.max()

    def test_damping_zero_is_pure_restart(self, fig4):
        scores, index = personalized_pagerank(
            fig4, "author", "Tom", damping=0.0
        )
        tom = index.index_of("author", fig4.node_index("author", "Tom"))
        assert scores[tom] == pytest.approx(1.0)

    def test_bad_parameters(self, fig4):
        with pytest.raises(QueryError):
            personalized_pagerank(fig4, "author", "Tom", damping=1.0)
        with pytest.raises(QueryError):
            personalized_pagerank(fig4, "author", "ghost")

    def test_nearby_conference_scores_higher(self, fig4):
        ranking = ppr_rank(fig4, "author", "Tom", "conference")
        assert ranking[0][0] == "KDD"

    def test_rank_covers_target_type(self, fig4):
        ranking = ppr_rank(fig4, "author", "Tom", "conference")
        assert len(ranking) == fig4.num_nodes("conference")

    def test_deterministic(self, fig4):
        first = ppr_rank(fig4, "author", "Mary", "conference")
        second = ppr_rank(fig4, "author", "Mary", "conference")
        assert first == second

    def test_index_reuse(self, fig4):
        from repro.baselines.globalgraph import build_global_index

        index = build_global_index(fig4)
        scores, returned = personalized_pagerank(
            fig4, "author", "Tom", index=index
        )
        assert returned is index
        assert scores.shape == (index.num_nodes,)
