"""Consistency tests among the matrix-level HeteSim entry points."""

import numpy as np
import pytest

from repro.core.hetesim import (
    half_reach_matrices,
    hetesim_all_sources,
    hetesim_all_targets,
    hetesim_matrix,
    hetesim_pair,
)


PATHS = ["APC", "AP", "APA", "APAPC"]


class TestEntryPointConsistency:
    @pytest.mark.parametrize("spec", PATHS)
    def test_pair_matches_matrix(self, fig4, spec):
        path = fig4.schema.path(spec)
        matrix = hetesim_matrix(fig4, path)
        sources = fig4.node_keys(path.source_type.name)
        targets = fig4.node_keys(path.target_type.name)
        for i, s in enumerate(sources):
            for j, t in enumerate(targets):
                assert hetesim_pair(fig4, path, s, t) == pytest.approx(
                    matrix[i, j], abs=1e-12
                )

    @pytest.mark.parametrize("spec", PATHS)
    def test_all_targets_matches_matrix_row(self, fig4, spec):
        path = fig4.schema.path(spec)
        matrix = hetesim_matrix(fig4, path)
        sources = fig4.node_keys(path.source_type.name)
        for i, s in enumerate(sources):
            row = hetesim_all_targets(fig4, path, s)
            np.testing.assert_allclose(row, matrix[i], atol=1e-12)

    @pytest.mark.parametrize("spec", PATHS)
    def test_all_sources_matches_matrix_column(self, fig4, spec):
        path = fig4.schema.path(spec)
        matrix = hetesim_matrix(fig4, path)
        targets = fig4.node_keys(path.target_type.name)
        for j, t in enumerate(targets):
            column = hetesim_all_sources(fig4, path, t)
            np.testing.assert_allclose(column, matrix[:, j], atol=1e-12)

    def test_raw_variants_consistent(self, fig4):
        path = fig4.schema.path("APC")
        matrix = hetesim_matrix(fig4, path, normalized=False)
        tom = fig4.node_index("author", "Tom")
        kdd = fig4.node_index("conference", "KDD")
        assert hetesim_pair(
            fig4, path, "Tom", "KDD", normalized=False
        ) == pytest.approx(matrix[tom, kdd])
        row = hetesim_all_targets(fig4, path, "Tom", normalized=False)
        np.testing.assert_allclose(row, matrix[tom], atol=1e-12)


class TestHalfReachMatrices:
    def test_even_path_shapes(self, fig4):
        path = fig4.schema.path("APA")
        left, right = half_reach_matrices(fig4, path)
        n_authors = fig4.num_nodes("author")
        n_papers = fig4.num_nodes("paper")
        assert left.shape == (n_authors, n_papers)
        assert right.shape == (n_authors, n_papers)

    def test_odd_path_shapes(self, fig4):
        path = fig4.schema.path("APC")  # even (length 2)
        odd = fig4.schema.path("AP")    # length 1, odd
        left, right = half_reach_matrices(fig4, odd)
        n_edges = fig4.adjacency("writes").nnz
        assert left.shape == (fig4.num_nodes("author"), n_edges)
        assert right.shape == (fig4.num_nodes("paper"), n_edges)
        # even case for contrast
        left2, right2 = half_reach_matrices(fig4, path)
        assert left2.shape[1] == fig4.num_nodes("paper")

    def test_odd_longer_path_shapes(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVC")  # length 3, odd, middle P->V
        left, right = half_reach_matrices(graph, path)
        n_edges = graph.adjacency("published_in").nnz
        assert left.shape == (graph.num_nodes("author"), n_edges)
        assert right.shape == (graph.num_nodes("conference"), n_edges)

    def test_product_is_raw_matrix(self, fig4):
        path = fig4.schema.path("APC")
        left, right = half_reach_matrices(fig4, path)
        raw = hetesim_matrix(fig4, path, normalized=False)
        np.testing.assert_allclose((left @ right.T).toarray(), raw)

    def test_half_rows_are_distributions(self, fig4):
        path = fig4.schema.path("APC")
        left, right = half_reach_matrices(fig4, path)
        np.testing.assert_allclose(
            np.asarray(left.sum(axis=1)).ravel(), 1.0
        )
        np.testing.assert_allclose(
            np.asarray(right.sum(axis=1)).ravel(), 1.0
        )


class TestZeroHandling:
    def test_isolated_source_row_is_zero(self, fig4):
        fig4.add_node("author", "lurker")
        path = fig4.schema.path("APC")
        row = hetesim_all_targets(fig4, path, "lurker")
        np.testing.assert_array_equal(row, 0.0)

    def test_isolated_target_column_is_zero(self, fig4):
        fig4.add_node("conference", "NIPS")
        path = fig4.schema.path("APC")
        matrix = hetesim_matrix(fig4, path)
        nips = fig4.node_index("conference", "NIPS")
        np.testing.assert_array_equal(matrix[:, nips], 0.0)

    def test_no_nan_anywhere(self, fig4):
        fig4.add_node("author", "lurker")
        fig4.add_node("conference", "NIPS")
        for spec in PATHS:
            matrix = hetesim_matrix(fig4, fig4.schema.path(spec))
            assert not np.isnan(matrix).any()
