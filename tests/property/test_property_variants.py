"""Property-based tests for the Dice variant and chain ordering."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.backend import sparse_chain_order
from repro.core.hetesim import hetesim_matrix
from repro.core.variants import dice_hetesim_matrix
from repro.datasets.schemas import bipartite_schema
from repro.hin.graph import HeteroGraph

MAX_N = 6


@st.composite
def bipartite_graphs(draw):
    n_a = draw(st.integers(1, MAX_N))
    n_b = draw(st.integers(1, MAX_N))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n_a - 1), st.integers(0, n_b - 1)),
            min_size=1,
            max_size=n_a * n_b,
        )
    )
    graph = HeteroGraph(bipartite_schema())
    graph.add_nodes("a", (f"a{i}" for i in range(n_a)))
    graph.add_nodes("b", (f"b{i}" for i in range(n_b)))
    for i, j in edges:
        graph.add_edge("r", f"a{i}", f"b{j}")
    return graph


class TestDiceInvariants:
    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_range_and_symmetry(self, graph):
        path = graph.schema.path("AB")
        forward = dice_hetesim_matrix(graph, path)
        backward = dice_hetesim_matrix(graph, path.reverse())
        assert (forward >= -1e-12).all()
        assert (forward <= 1 + 1e-12).all()
        np.testing.assert_allclose(forward, backward.T, atol=1e-12)

    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_dominated_by_cosine(self, graph):
        """AM-GM: Dice <= cosine everywhere, equality on identical
        distributions."""
        for spec in ("AB", "ABA"):
            path = graph.schema.path(spec)
            dice = dice_hetesim_matrix(graph, path)
            cosine = hetesim_matrix(graph, path)
            assert (dice <= cosine + 1e-10).all()

    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_self_maximum_on_round_trip(self, graph):
        path = graph.schema.path("ABA")
        matrix = dice_hetesim_matrix(graph, path)
        diagonal = np.diag(matrix)
        assert ((np.isclose(diagonal, 1.0)) | (diagonal == 0.0)).all()


@st.composite
def matrix_chains(draw):
    n = draw(st.integers(1, 5))
    dims = draw(
        st.lists(st.integers(1, 8), min_size=n + 1, max_size=n + 1)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrices = [
        rng.random((dims[i], dims[i + 1])) for i in range(n)
    ]
    return dims, matrices


def _dense_order(dims):
    """The chain-order DP over fully dense factors."""
    shapes = [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    return sparse_chain_order(shapes, [rows * cols for rows, cols in shapes])[0]


def _evaluate(split, matrices, i, j, products):
    """The chain product by recursion over ``split``, logging products."""
    if i == j:
        return matrices[i]
    k = split[i][j]
    left = _evaluate(split, matrices, i, k, products)
    right = _evaluate(split, matrices, k + 1, j, products)
    products.append((i, j))
    return left @ right


class TestChainOrderInvariants:
    @given(matrix_chains())
    @settings(max_examples=80, deadline=None)
    def test_schedule_reproduces_product(self, chain):
        dims, matrices = chain
        expected = matrices[0]
        for matrix in matrices[1:]:
            expected = expected @ matrix
        result = _evaluate(
            _dense_order(dims), matrices, 0, len(matrices) - 1, []
        )
        np.testing.assert_allclose(result, expected, atol=1e-9)

    @given(matrix_chains())
    @settings(max_examples=80, deadline=None)
    def test_schedule_length(self, chain):
        dims, matrices = chain
        products = []
        _evaluate(_dense_order(dims), matrices, 0, len(matrices) - 1, products)
        assert len(products) == len(matrices) - 1
