"""Unit tests for the low-rank approximate measure."""

import numpy as np
import pytest

from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_matrix
from repro.core.lowrank import LowRankHeteSim
from repro.hin.errors import QueryError


@pytest.fixture(scope="module")
def acm_path(acm):
    return acm.graph.schema.path("APVCVPA")


class TestApproximationQuality:
    def test_error_shrinks_with_rank(self, acm, acm_path):
        graph = acm.graph
        exact = hetesim_matrix(graph, acm_path)

        def error(rank):
            approx = LowRankHeteSim(graph, acm_path, rank=rank)
            return float(
                np.abs(approx.relevance_matrix() - exact).mean()
            )

        assert error(12) <= error(2) + 1e-12

    def test_near_full_rank_is_accurate(self):
        from repro.datasets.random_hin import make_random_hin
        from repro.datasets.schemas import toy_apc_schema

        graph = make_random_hin(
            toy_apc_schema(),
            sizes={"author": 15, "paper": 25, "conference": 8},
            edge_prob=0.2,
            seed=4,
            ensure_connected_rows=True,
        )
        path = graph.schema.path("APC")
        # Per-half clamping: left factors at 14/15, right at its svds
        # ceiling of 7/8 -- nearly all the spectral energy.
        approx = LowRankHeteSim(graph, path, rank=14)
        assert (approx.rank_left, approx.rank_right) == (14, 7)
        assert approx.captured_energy > 0.99
        exact = hetesim_matrix(graph, path)
        error = np.abs(approx.relevance_matrix() - exact)
        assert error.mean() < 0.05
        assert error.max() < 0.15

    def test_captured_energy_reported(self, acm, acm_path):
        approx = LowRankHeteSim(acm.graph, acm_path, rank=8)
        assert 0 < approx.captured_energy <= 1 + 1e-9

    def test_more_rank_more_energy(self, acm, acm_path):
        low = LowRankHeteSim(acm.graph, acm_path, rank=2)
        high = LowRankHeteSim(acm.graph, acm_path, rank=10)
        assert high.captured_energy >= low.captured_energy - 1e-12


class TestQueries:
    def test_pair_matches_matrix_entry(self, acm, acm_path):
        graph = acm.graph
        approx = LowRankHeteSim(graph, acm_path, rank=8)
        matrix = approx.relevance_matrix()
        hub = acm.personas["hub_author"]
        i = graph.node_index("author", hub)
        j = graph.node_index("author", "peer-author-1")
        assert approx.relevance(hub, "peer-author-1") == pytest.approx(
            matrix[i, j], abs=1e-10
        )

    def test_top_k_finds_planted_structure(self, acm, acm_path):
        """Even a modest rank keeps the planted top neighbourhood."""
        graph = acm.graph
        engine = HeteSimEngine(graph)
        hub = acm.personas["hub_author"]
        exact_top = {k for k, _ in engine.top_k(hub, acm_path, k=5)}
        approx = LowRankHeteSim(graph, acm_path, rank=12)
        approx_top = {k for k, _ in approx.top_k(hub, k=5)}
        assert len(exact_top & approx_top) >= 3

    def test_raw_mode(self, acm, acm_path):
        graph = acm.graph
        approx = LowRankHeteSim(graph, acm_path, rank=8)
        raw = approx.relevance_matrix(normalized=False)
        exact_raw = hetesim_matrix(graph, acm_path, normalized=False)
        assert np.abs(raw - exact_raw).mean() < 0.05


class TestValidation:
    def test_bad_rank(self, acm, acm_path):
        with pytest.raises(QueryError):
            LowRankHeteSim(acm.graph, acm_path, rank=0)

    def test_generous_rank_clamped_per_half(self, fig4):
        path = fig4.schema.path("APC")
        approx = LowRankHeteSim(fig4, path, rank=100)
        # Halves are 3x4 and 2x4: ceilings 2 and 1.
        assert (approx.rank_left, approx.rank_right) == (2, 1)

    def test_tiny_half_rejected(self):
        from repro.datasets.schemas import bipartite_schema
        from repro.hin.graph import HeteroGraph

        graph = HeteroGraph(bipartite_schema())
        graph.add_edge("r", "a1", "b1")
        path = graph.schema.path("ABA")  # halves have a 1-sized dim
        with pytest.raises(QueryError):
            LowRankHeteSim(graph, path, rank=3)

    def test_unknown_keys(self, acm, acm_path):
        approx = LowRankHeteSim(acm.graph, acm_path, rank=4)
        with pytest.raises(QueryError):
            approx.relevance("ghost", "peer-author-1")
        with pytest.raises(QueryError):
            approx.top_k("ghost")
        # k clamps like a slice instead of raising.
        assert approx.top_k("KDD-star", k=0) == []
        assert len(approx.top_k("KDD-star", k=10_000)) == len(
            acm.graph.node_keys(acm_path.target_type.name)
        )
