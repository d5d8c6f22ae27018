"""Property-based tests for the materialisation planner (hypothesis).

The planner may reorder products, substitute cached prefixes, densify
intermediates and evict under a byte budget -- none of which may change
the numbers.  The ground truth everywhere is the strict left-to-right
definitional product (:func:`reachable_probability_matrix` for ``U``
chains, a fold over adjacencies for ``W`` chains, and the Definition 6
edge-object decomposition for odd-path halves).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.backend import materialise
from repro.core.cache import PathMatrixCache
from repro.core.hetesim import half_reach_matrices
from repro.datasets.random_hin import make_random_hin
from repro.datasets.schemas import toy_apc_schema
from repro.hin.decomposition import decompose_adjacency
from repro.hin.matrices import reachable_probability_matrix, row_normalize

MAX_PATH_LENGTH = 6

#: Schema walk graph of the A-P-C toy schema (type code -> successors).
NEXT_TYPE = {"A": "P", "P": "AC", "C": "P"}


@st.composite
def random_hins(draw):
    """A random A-P-C network (Erdos-Renyi edges per relation)."""
    sizes = {
        "author": draw(st.integers(1, 5)),
        "paper": draw(st.integers(1, 5)),
        "conference": draw(st.integers(1, 3)),
    }
    edge_prob = draw(st.sampled_from([0.15, 0.35, 0.7]))
    seed = draw(st.integers(0, 2**16))
    return make_random_hin(
        toy_apc_schema(), sizes, edge_prob=edge_prob, seed=seed
    )


@st.composite
def path_specs(draw, min_length=1, max_length=MAX_PATH_LENGTH):
    """A random schema-valid path spec with 1..max_length relations."""
    length = draw(st.integers(min_length, max_length))
    spec = draw(st.sampled_from("APC"))
    for _ in range(length):
        spec += draw(st.sampled_from(NEXT_TYPE[spec[-1]]))
    return spec


def _legacy_halves(graph, path):
    """Left-to-right reference for :func:`half_reach_matrices`.

    Even paths: the two definitional half products.  Odd paths: the
    Definition 6 edge-object decomposition applied after the plain
    half products.
    """
    halves = path.halves()
    if not halves.needs_edge_object:
        return (
            reachable_probability_matrix(graph, halves.left),
            reachable_probability_matrix(graph, halves.right.reverse()),
        )
    middle = halves.middle_relation
    w_ae, w_eb = decompose_adjacency(graph.adjacency(middle.name))
    forward = row_normalize(w_ae)
    backward = row_normalize(w_eb.T)
    left = (
        forward
        if halves.left is None
        else reachable_probability_matrix(graph, halves.left) @ forward
    )
    right = (
        backward
        if halves.right is None
        else reachable_probability_matrix(graph, halves.right.reverse())
        @ backward
    )
    return left, right


class TestPlannerEquivalence:
    @given(random_hins(), path_specs())
    @settings(max_examples=40, deadline=None)
    def test_planned_matches_left_to_right(self, graph, spec):
        path = graph.schema.path(spec)
        planned = materialise(graph, path)
        direct = reachable_probability_matrix(graph, path)
        np.testing.assert_allclose(
            planned.toarray(), direct.toarray(), atol=1e-12
        )
        assert planned.shape == direct.shape

    @given(random_hins(), path_specs())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_plan_matches_left_to_right(self, graph, spec):
        path = graph.schema.path(spec)
        planned = materialise(graph, path, weights="adjacency")
        product = None
        for relation in path.relations:
            step = graph.adjacency(relation.name)
            product = step if product is None else (product @ step).tocsr()
        np.testing.assert_allclose(
            planned.toarray(), product.toarray(), atol=1e-9
        )

    @given(random_hins(), path_specs())
    @settings(max_examples=40, deadline=None)
    def test_halves_match_edge_object_reference(self, graph, spec):
        """Odd paths go through the Definition 6 edge-object split;
        even paths through the plain half products.  Both must match
        the left-to-right reference, cached or not."""
        path = graph.schema.path(spec)
        expected_left, expected_right = _legacy_halves(graph, path)
        for cache in (None, PathMatrixCache(graph, byte_budget=512)):
            left, right = half_reach_matrices(graph, path, cache=cache)
            np.testing.assert_allclose(
                left.toarray(), expected_left.toarray(), atol=1e-12
            )
            np.testing.assert_allclose(
                right.toarray(), expected_right.toarray(), atol=1e-12
            )


class TestEvictionInvariance:
    @given(
        random_hins(),
        st.lists(path_specs(), min_size=2, max_size=6),
        st.sampled_from([0, 256, 1024, 4096]),
    )
    @settings(max_examples=30, deadline=None)
    def test_budgeted_cache_is_bounded_and_exact(self, graph, specs, budget):
        """Under any byte budget the cache never exceeds it and every
        query still returns the definitional left-to-right product."""
        cache = PathMatrixCache(graph, byte_budget=budget)
        for spec in specs:
            path = graph.schema.path(spec)
            result = cache.reach_prob(path)
            assert cache.nbytes <= budget
            np.testing.assert_allclose(
                result.toarray(),
                reachable_probability_matrix(graph, path).toarray(),
                atol=1e-12,
            )
