"""Each plugin's matrix/pair/vector/rank against an independent reference.

The legacy baseline functions now delegate to the plugins, so the
references here are computed a different way: the core HeteSim
functions (:mod:`repro.core.hetesim`), raw adjacency-chain products,
and one-hot walk propagation -- never through the measures package.
"""

import numpy as np
import pytest

from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_all_targets, hetesim_matrix
from repro.core.measures import MeasureContext, get_measure
from repro.core.reachprob import reach_prob, reach_row
from repro.datasets.random_hin import make_random_hin
from repro.datasets.schemas import toy_apc_schema
from repro.hin.errors import PathError, QueryError


@pytest.fixture(scope="module")
def hin():
    return make_random_hin(
        toy_apc_schema(),
        sizes={"author": 15, "paper": 25, "conference": 6},
        edge_prob=0.25,
        seed=11,
    )


@pytest.fixture(scope="module")
def ctx(hin):
    return MeasureContext(graph=hin)


def adjacency_counts(graph, path):
    """Independent count-matrix reference: plain adjacency products."""
    matrix = graph.adjacency(path.relations[0].name)
    for relation in path.relations[1:]:
        matrix = matrix @ graph.adjacency(relation.name)
    return matrix.toarray()


class TestHeteSimPlugin:
    def test_vector_matches_core(self, hin, ctx):
        measure = get_measure("hetesim")
        path = hin.schema.path("APC")
        for source in hin.node_keys("author")[:5]:
            expected = hetesim_all_targets(hin, path, source)
            got = measure.vector(ctx, "APC", source)
            assert np.allclose(got, expected, rtol=1e-12, atol=0)

    def test_matrix_matches_core(self, hin, ctx):
        expected = hetesim_matrix(hin, hin.schema.path("APCPA"))
        got = get_measure("hetesim").matrix(ctx, "APCPA")
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    def test_raw_vector_matches_core(self, hin, ctx):
        path = hin.schema.path("APC")
        source = hin.node_keys("author")[0]
        expected = hetesim_all_targets(hin, path, source, normalized=False)
        got = get_measure("hetesim").vector(
            ctx, "APC", source, normalized=False
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    def test_rank_and_top_k_consistent(self, hin, ctx):
        measure = get_measure("hetesim")
        source = hin.node_keys("author")[1]
        ranking = measure.rank(ctx, "APC", source)
        assert measure.top_k(ctx, "APC", source, k=3) == ranking[:3]

    def test_engine_rank_agrees(self, hin):
        engine = HeteSimEngine(hin)
        source = hin.node_keys("author")[2]
        plugin = get_measure("hetesim").rank(engine.measures, "APC", source)
        native = engine.rank(source, "APC")
        assert [key for key, _ in plugin] == [key for key, _ in native]
        assert np.allclose(
            [s for _, s in plugin], [s for _, s in native], rtol=1e-12
        )

    def test_unknown_source_rejected(self, ctx):
        with pytest.raises(QueryError, match="ghost"):
            get_measure("hetesim").vector(ctx, "APC", "ghost")


class TestPathSimPlugin:
    def test_matrix_matches_adjacency_chain(self, hin, ctx):
        path = hin.schema.path("APCPA")
        counts = adjacency_counts(hin, path)
        diagonal = np.diag(counts)
        denominator = diagonal[:, None] + diagonal[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.where(
                denominator > 0, 2.0 * counts / denominator, 0.0
            )
        got = get_measure("pathsim").matrix(ctx, "APCPA")
        assert np.array_equal(got, expected)

    def test_raw_matrix_is_counts(self, hin, ctx):
        path = hin.schema.path("APCPA")
        got = get_measure("pathsim").matrix(ctx, "APCPA", normalized=False)
        assert np.array_equal(got, adjacency_counts(hin, path))

    def test_pair_vector_rank_agree_with_matrix(self, hin, ctx):
        measure = get_measure("pathsim")
        matrix = measure.matrix(ctx, "APCPA")
        keys = hin.node_keys("author")
        source = keys[3]
        i = hin.node_index("author", source)
        vector = measure.vector(ctx, "APCPA", source)
        assert np.array_equal(vector, matrix[i])
        assert measure.pair(ctx, "APCPA", source, keys[5]) == matrix[i, 5]
        ranking = measure.rank(ctx, "APCPA", source)
        assert ranking[0][1] == matrix[i].max()

    def test_asymmetric_path_rejected(self, ctx):
        measure = get_measure("pathsim")
        with pytest.raises(PathError, match="symmetric"):
            measure.resolve(ctx, "APC")
        with pytest.raises(PathError, match="symmetric"):
            measure.matrix(ctx, "APC")

    def test_mutation_refreshes_counts_and_diagonal(self, fig4):
        """The diagonal is cached with the count matrix, so a relation
        mutation must invalidate both: the next block is PathSim over
        the new counts."""
        engine = HeteSimEngine(fig4)
        measure = get_measure("pathsim")
        path = fig4.schema.path("APCPA")
        rows = list(range(fig4.num_nodes("author")))
        before = measure.prepare(engine.measures, path).score_rows(rows)
        fig4.add_edge("writes", "Tom", "p3")
        block = measure.prepare(engine.measures, path).score_rows(rows)
        counts = adjacency_counts(fig4, path)
        diagonal = np.diag(counts)
        denominator = diagonal[:, None] + diagonal[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.where(
                denominator > 0, 2.0 * counts / denominator, 0.0
            )
        np.testing.assert_allclose(block, expected, rtol=0, atol=1e-12)
        assert not np.array_equal(block, before)


class TestWalkPlugins:
    def test_vector_is_one_hot_propagation(self, hin, ctx):
        path = hin.schema.path("APC")
        for source in hin.node_keys("author")[:5]:
            expected = reach_row(hin, path, source)
            got = get_measure("pcrw").vector(ctx, "APC", source)
            assert np.array_equal(got, expected)

    def test_matrix_is_reach_prob(self, hin, ctx):
        expected = reach_prob(hin, hin.schema.path("APCPA")).toarray()
        got = get_measure("pcrw").matrix(ctx, "APCPA")
        assert np.array_equal(got, expected)

    def test_pair_matches_vector_entry(self, hin, ctx):
        source = hin.node_keys("author")[0]
        target = hin.node_keys("conference")[2]
        vector = get_measure("pcrw").vector(ctx, "APC", source)
        pair = get_measure("pcrw").pair(ctx, "APC", source, target)
        assert pair == vector[hin.node_index("conference", target)]

    def test_reachprob_scores_identical_to_pcrw(self, hin, ctx):
        source = hin.node_keys("author")[4]
        assert np.array_equal(
            get_measure("reachprob").vector(ctx, "APC", source),
            get_measure("pcrw").vector(ctx, "APC", source),
        )

    def test_block_rows_match_single_vectors(self, hin, ctx):
        prepared = get_measure("pcrw").prepare(ctx, "APC")
        block = prepared.score_rows([0, 3, 7])
        path = hin.schema.path("APC")
        keys = hin.node_keys("author")
        for position, row in enumerate([0, 3, 7]):
            assert np.allclose(
                block[position],
                reach_row(hin, path, keys[row]),
                rtol=1e-12,
                atol=0,
            )


def _bits(array):
    return array.shape, array.dtype, array.tobytes()


class TestRowGather:
    """PathSim and PCRW gather block rows with the shared numpy row
    gather: bit for bit what scipy's fancy row indexing gives, for
    unsorted and repeated row lists."""

    ROWS = ([4], [9, 2, 7, 0], [3, 3, 1, 3, 14], [])

    @pytest.mark.parametrize("rows", ROWS)
    def test_pathsim_equals_fancy_indexing(self, ctx, rows):
        prepared = get_measure("pathsim").prepare(ctx, "APCPA")
        counts = prepared.counts[rows, :].toarray()
        diagonal = prepared.diagonal
        denominator = diagonal[rows][:, None] + diagonal[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            normalised = np.where(
                denominator > 0, 2.0 * counts / denominator, 0.0
            )
        raw = prepared.score_rows(rows, normalized=False)
        assert _bits(raw) == _bits(counts)
        assert _bits(prepared.score_rows(rows)) == _bits(normalised)

    @pytest.mark.parametrize("rows", ROWS)
    def test_pcrw_equals_fancy_indexing(self, ctx, rows):
        prepared = get_measure("pcrw").prepare(ctx, "APCPA")
        expected = prepared.reach[rows, :].toarray()
        assert _bits(prepared.score_rows(rows)) == _bits(expected)


class TestPPRPlugin:
    def test_rank_types_matches_manual_walk(self, hin, ctx):
        from repro.baselines.globalgraph import build_global_index
        from repro.core.measures.pagerank import restart_walk_scores
        from repro.hin.matrices import row_normalize

        source = hin.node_keys("author")[0]
        index = build_global_index(hin)
        adjacency = index.adjacency
        walk = row_normalize((adjacency + adjacency.T).tocsr())
        restart = np.zeros(index.num_nodes)
        restart[
            index.index_of("author", hin.node_index("author", source))
        ] = 1.0
        scores = restart_walk_scores(walk, restart)
        keys = hin.node_keys("conference")
        block = scores[index.type_slice("conference", len(keys))]
        expected = sorted(
            zip(keys, block), key=lambda kv: (-kv[1], kv[0])
        )
        got = get_measure("ppr").rank_types(
            ctx, "author", source, "conference"
        )
        assert [k for k, _ in got] == [k for k, _ in expected]
        assert np.allclose(
            [s for _, s in got], [s for _, s in expected], rtol=1e-12
        )

    def test_path_blind_grouping(self, ctx):
        measure = get_measure("ppr")
        shape_a = measure.resolve(ctx, "APC")
        shape_b = measure.resolve(ctx, "APCPAPC")
        assert shape_a.group_key == shape_b.group_key
        assert shape_a.display == "author~>conference"

    def test_bad_damping_rejected(self):
        from repro.core.measures.pagerank import PPRMeasure

        with pytest.raises(QueryError, match="damping"):
            PPRMeasure(damping=1.0)

    def test_scores_sum_to_one(self, hin, ctx):
        source = hin.node_keys("author")[0]
        prepared = get_measure("ppr").prepare(ctx, "APC")
        index, walk = ctx.global_walk()
        row = hin.node_index("author", source)
        block = prepared.score_rows([row])
        # The full distribution sums to 1; the conference slice is a part.
        assert 0 < block.sum() <= 1 + 1e-9
