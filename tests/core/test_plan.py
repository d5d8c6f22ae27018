"""Unit tests for path-matrix materialisation (chain order + evaluation)."""

import numpy as np
import pytest

from repro.core.backend import (
    estimate_product,
    materialise,
    sparse_chain_order,
)
from repro.core.measures import MeasureContext, get_measure
from repro.hin.errors import QueryError
from repro.hin.matrices import reachable_probability_matrix


def _dense_order(dims):
    """The DP over fully dense factors: the classic dense cost model."""
    shapes = [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    return sparse_chain_order(shapes, [rows * cols for rows, cols in shapes])


def _parenthesise(split, i, j):
    if i == j:
        return f"A{i + 1}"
    k = split[i][j]
    return f"({_parenthesise(split, i, k)} {_parenthesise(split, k + 1, j)})"


def _evaluate(split, matrices, i, j):
    """The chain product by recursion over the split table."""
    if i == j:
        return matrices[i]
    k = split[i][j]
    return _evaluate(split, matrices, i, k) @ _evaluate(
        split, matrices, k + 1, j
    )


def _steps(tracer):
    """Products of the most recent traced materialisation."""
    return [
        child for child in tracer.roots[-1].children
        if child.name == "plan.step"
    ]


class TestOptimalChainOrder:
    def test_single_matrix_no_steps(self):
        split, _ = _dense_order([3, 4])
        assert split.shape == (1, 1)

    def test_two_matrices_one_step(self):
        split, _ = _dense_order([3, 4, 5])
        assert split[0][1] == 0

    def test_clrs_textbook_example(self):
        """CLRS 15.2: dims (30,35,15,5,10,20,25) -> optimal
        ((A1 (A2 A3)) ((A4 A5) A6)); dense factors reduce the sparse
        cost to the classic one."""
        split, _ = _dense_order([30, 35, 15, 5, 10, 20, 25])
        assert _parenthesise(split, 0, 5) == "((A1 (A2 A3)) ((A4 A5) A6))"

    def test_schedule_is_executable(self):
        rng = np.random.default_rng(0)
        dims = [4, 7, 2, 9, 3]
        matrices = [
            rng.random((dims[i], dims[i + 1]))
            for i in range(len(dims) - 1)
        ]
        expected = matrices[0] @ matrices[1] @ matrices[2] @ matrices[3]
        split, _ = _dense_order(dims)
        np.testing.assert_allclose(
            _evaluate(split, matrices, 0, 3), expected, atol=1e-10
        )

    def test_skewed_dims_prefer_small_middle(self):
        """(100x100)(100x2)(2x100): multiplying the right pair first
        costs 100*2*100 + 100*100*100; left-first costs 100*100*2 +
        100*2*100 -- the DP must pick left-first."""
        split, _ = _dense_order([100, 100, 2, 100])
        assert split[0][2] == 1

    def test_empty_chain_rejected(self):
        with pytest.raises(QueryError):
            _dense_order([5])


class TestSparseChainSchedule:
    def test_single_factor_empty_schedule(self):
        split, nnz = sparse_chain_order([(3, 4)], [5.0])
        assert split.shape == (1, 1)
        assert nnz[0][0] == 5.0

    def test_two_factors_one_step(self):
        split, nnz = sparse_chain_order([(3, 4), (4, 5)], [6.0, 8.0])
        assert split[0][1] == 0
        assert nnz[0][1] > 0

    def test_very_sparse_factor_multiplied_first(self):
        """Equal shapes but one near-empty factor: starting from the
        sparse end keeps every intermediate tiny, so the DP must break
        the left-to-right default."""
        shapes = [(100, 100), (100, 100), (100, 100)]
        nnzs = [10000.0, 10000.0, 10.0]
        split, nnz = sparse_chain_order(shapes, nnzs)
        assert split[0][2] == 0
        # The first product's estimated fill reflects the sparse factor.
        assert nnz[1][2] < nnz[0][1]

    def test_near_ties_stay_left_associative(self):
        """Uniform chains keep the prefix-friendly left-to-right order."""
        split, _ = sparse_chain_order([(50, 50)] * 4, [250.0] * 4)
        assert split[0][3] == 2 and split[0][2] == 1 and split[0][1] == 0

    def test_estimate_product_zero_inputs(self):
        assert estimate_product((0, 5), 0.0, (5, 3), 4.0) == (0.0, 0.0)

    def test_estimate_product_dense_inputs_predict_dense_output(self):
        flops, nnz = estimate_product((10, 10), 100.0, (10, 10), 100.0)
        assert flops == pytest.approx(1000.0)
        assert nnz == pytest.approx(100.0, rel=1e-6)


class TestPlanPath:
    @pytest.mark.parametrize("spec", ["AP", "APC", "APAPC"])
    def test_planned_equals_left_to_right(self, fig4, spec):
        path = fig4.schema.path(spec)
        planned = materialise(fig4, path)
        direct = reachable_probability_matrix(fig4, path).toarray()
        np.testing.assert_allclose(planned.toarray(), direct, atol=1e-12)

    @pytest.mark.parametrize("spec", ["APVC", "APVCVPA", "CVPAPA"])
    def test_planned_equals_on_acm(self, acm, spec):
        graph = acm.graph
        path = graph.schema.path(spec)
        planned = materialise(graph, path).toarray()
        direct = reachable_probability_matrix(graph, path).toarray()
        np.testing.assert_allclose(planned, direct, atol=1e-10)

    def test_plan_records_steps_and_describe(self, acm, traced):
        """The ``plan.execute`` span counts its products; each
        ``plan.step`` child names the two operands it multiplied."""
        graph = acm.graph
        materialise(graph, graph.schema.path("APVCVPA"))
        root = traced.roots[-1]
        assert root.name == "plan.execute"
        steps = _steps(traced)
        assert root.attributes["steps"] == len(steps) == 5
        for step in steps:
            assert " @ " in step.attributes["product"]

    def test_adjacency_weights_plan_uses_mirror(self, acm, traced):
        """Symmetric count chains compute the shared half only once:
        APVPA's four factors take two products, not three."""
        graph = acm.graph
        materialise(graph, graph.schema.path("APVPA"), weights="adjacency")
        products = [step.attributes["product"] for step in _steps(traced)]
        assert len(products) == 2
        assert products[-1] == "shared @ shared'"

    def test_adjacency_mirror_matches_direct_product(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVPA")
        planned = materialise(graph, path, weights="adjacency")
        product = None
        for relation in path.relations:
            step = graph.adjacency(relation.name)
            product = step if product is None else (product @ step).tocsr()
        np.testing.assert_allclose(
            planned.toarray(), product.toarray(), atol=1e-9
        )

    def test_nested_mirror_count_chain(self, fig4):
        """A symmetric half that is itself symmetric collapses to two
        factors; its size estimate is read from its own chain's root."""
        spec = "APCPAPCPA"
        path = fig4.schema.path(spec)
        planned = materialise(fig4, path, weights="adjacency")
        product = None
        for relation in path.relations:
            step = fig4.adjacency(relation.name)
            product = step if product is None else (product @ step).tocsr()
        np.testing.assert_array_equal(planned.toarray(), product.toarray())
        ranking = get_measure("pathsim").top_k(
            MeasureContext(graph=fig4), spec, "Tom", k=3
        )
        assert ranking[0] == ("Tom", 1.0)

    def test_bad_weights_rejected(self, fig4):
        with pytest.raises(QueryError):
            materialise(fig4, fig4.schema.path("APC"), weights="bogus")

    def test_extra_right_factor_joins_chain(self, fig4):
        path = fig4.schema.path("AP")
        extra = reachable_probability_matrix(fig4, fig4.schema.path("PC"))
        planned = materialise(fig4, path, extra_right=extra)
        direct = (
            reachable_probability_matrix(fig4, path) @ extra
        ).toarray()
        np.testing.assert_allclose(planned.toarray(), direct, atol=1e-12)

    def test_densified_steps_still_exact(self, fig4, traced):
        """Tiny toy products fill in past the threshold and go dense;
        the result must be identical CSR either way."""
        path = fig4.schema.path("APAPA")
        planned = materialise(fig4, path)
        direct = reachable_probability_matrix(fig4, path).toarray()
        np.testing.assert_allclose(planned.toarray(), direct, atol=1e-12)
        assert any(step.attributes.get("dense") for step in _steps(traced))

    def test_execute_plan_stats_shapes(self, fig4, traced):
        path = fig4.schema.path("APC")
        matrix = materialise(fig4, path)
        root = traced.roots[-1]
        assert root.attributes["path"] == "writes.published_in"
        assert root.attributes["output_nnz"] == matrix.nnz
        assert root.attributes["ms"] >= 0
        for step in _steps(traced):
            assert step.attributes["nnz"] >= 0 and step.attributes["ms"] >= 0
