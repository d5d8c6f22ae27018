"""The paper's Properties 1-5, verified numerically.

Property 1 (unique atomic decomposition) is covered in
``tests/hin/test_decomposition.py`` and Property 2 (U/V transposition) in
``tests/hin/test_matrices.py``; this module covers the measure-level
Properties 3-5 plus the semi-metric axioms of Section 4.5.
"""

import numpy as np
import pytest

from repro.baselines.simrank import simrank_meeting_iterations
from repro.core.hetesim import hetesim_matrix
from repro.datasets.random_hin import make_random_bipartite, make_random_hin
from repro.datasets.schemas import toy_apc_schema


@pytest.fixture(scope="module")
def apc_graph():
    return make_random_hin(
        toy_apc_schema(),
        sizes={"author": 15, "paper": 30, "conference": 5},
        edge_prob=0.15,
        seed=11,
        ensure_connected_rows=True,
    )


PATHS_TO_CHECK = ["APC", "AP", "APA", "APCPA", "CPA", "PC", "CPAPC"]


class TestProperty3Symmetry:
    """HeteSim(a, b | P) == HeteSim(b, a | P^-1) for arbitrary paths."""

    @pytest.mark.parametrize("spec", PATHS_TO_CHECK)
    def test_matrix_symmetry(self, apc_graph, spec):
        path = apc_graph.schema.path(spec)
        forward = hetesim_matrix(apc_graph, path)
        backward = hetesim_matrix(apc_graph, path.reverse())
        np.testing.assert_allclose(forward, backward.T, atol=1e-12)

    @pytest.mark.parametrize("spec", PATHS_TO_CHECK)
    def test_raw_matrix_symmetry(self, apc_graph, spec):
        path = apc_graph.schema.path(spec)
        forward = hetesim_matrix(apc_graph, path, normalized=False)
        backward = hetesim_matrix(
            apc_graph, path.reverse(), normalized=False
        )
        np.testing.assert_allclose(forward, backward.T, atol=1e-12)

    def test_symmetric_path_gives_symmetric_matrix(self, apc_graph):
        path = apc_graph.schema.path("APA")
        matrix = hetesim_matrix(apc_graph, path)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)


class TestProperty4SelfMaximum:
    """HeteSim in [0, 1]; 1 exactly when the half-distributions match."""

    @pytest.mark.parametrize("spec", PATHS_TO_CHECK)
    def test_unit_interval(self, apc_graph, spec):
        path = apc_graph.schema.path(spec)
        matrix = hetesim_matrix(apc_graph, path)
        assert (matrix >= -1e-12).all()
        assert (matrix <= 1 + 1e-12).all()

    @pytest.mark.parametrize("spec", ["APA", "APCPA", "CPAPC"])
    def test_self_relevance_is_one_on_symmetric_paths(self, apc_graph, spec):
        path = apc_graph.schema.path(spec)
        matrix = hetesim_matrix(apc_graph, path)
        diagonal = np.diag(matrix)
        # Objects with a live half-distribution score exactly 1 against
        # themselves; isolated objects score 0 by convention.
        assert ((np.isclose(diagonal, 1.0)) | (diagonal == 0.0)).all()

    def test_self_is_row_maximum_on_symmetric_paths(self, apc_graph):
        path = apc_graph.schema.path("APA")
        matrix = hetesim_matrix(apc_graph, path)
        for i in range(matrix.shape[0]):
            if matrix[i, i] > 0:
                assert matrix[i, i] >= matrix[i].max() - 1e-12

    def test_identity_of_indiscernibles_distance(self, apc_graph):
        """dis(s, s) = 1 - HeteSim(s, s) = 0 on symmetric paths."""
        path = apc_graph.schema.path("APA")
        matrix = hetesim_matrix(apc_graph, path)
        connected = np.diag(matrix) > 0
        distances = 1.0 - np.diag(matrix)[connected]
        np.testing.assert_allclose(distances, 0.0, atol=1e-12)

    def test_non_negativity(self, apc_graph):
        for spec in PATHS_TO_CHECK:
            matrix = hetesim_matrix(apc_graph, apc_graph.schema.path(spec))
            assert (matrix >= -1e-15).all()


class TestProperty5SimRankConnection:
    """On a bipartite graph with C = 1, the k-hop SimRank recursion equals
    raw HeteSim along (R R^-1)^k (the appendix's induction)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_source_side(self, seed, hops):
        graph = make_random_bipartite(8, 6, edge_prob=0.4, seed=seed)
        iterations = simrank_meeting_iterations(graph, "r", hops, side="source")
        # (R R^-1)^k as a meta path: ABAB...A with 2k relations.
        spec = "A" + "BA" * hops
        meta = graph.schema.path(spec)
        hetesim_raw = hetesim_matrix(graph, meta, normalized=False)
        np.testing.assert_allclose(
            iterations[hops - 1], hetesim_raw, atol=1e-10
        )

    @pytest.mark.parametrize("hops", [1, 2])
    def test_target_side(self, hops):
        graph = make_random_bipartite(7, 9, edge_prob=0.4, seed=5)
        iterations = simrank_meeting_iterations(graph, "r", hops, side="target")
        spec = "B" + "AB" * hops
        meta = graph.schema.path(spec)
        hetesim_raw = hetesim_matrix(graph, meta, normalized=False)
        np.testing.assert_allclose(
            iterations[hops - 1], hetesim_raw, atol=1e-10
        )


class TestAcmPaths:
    """Properties hold on the richer ACM schema, including odd paths."""

    @pytest.mark.parametrize("spec", ["APVC", "CVPA", "APT", "CVPAF", "APVCVPA"])
    def test_symmetry_and_range(self, acm, spec):
        graph = acm.graph
        path = graph.schema.path(spec)
        forward = hetesim_matrix(graph, path)
        backward = hetesim_matrix(graph, path.reverse())
        np.testing.assert_allclose(forward, backward.T, atol=1e-12)
        assert (forward >= -1e-12).all() and (forward <= 1 + 1e-9).all()
