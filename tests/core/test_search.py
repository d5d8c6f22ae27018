"""Unit tests for ranked relevance search."""

import numpy as np
import pytest

from repro.core.hetesim import hetesim_matrix
from repro.core.search import (
    rank_targets,
    select_top_k,
    top_k_pairs,
    top_k_targets,
)
from repro.hin.errors import QueryError


class TestSelectTopK:
    """The argpartition selection helper: identical to a full sort."""

    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        scores = rng.random(200)
        keys = [f"n{i:03d}" for i in range(200)]
        full = sorted(
            range(200), key=lambda i: (-scores[i], keys[i])
        )
        for k in (1, 5, 50, 199, 200, 1000):
            expected = [(keys[i], float(scores[i])) for i in full[:k]]
            assert select_top_k(scores, keys, k) == expected

    def test_boundary_ties_break_by_key(self):
        # Three candidates tied at the k-th score: the smallest keys
        # win, exactly as the documented full-sort tie-break.
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.1])
        keys = ["e", "d", "b", "c", "a"]
        assert select_top_k(scores, keys, 2) == [
            ("e", 0.9),
            ("b", 0.5),
        ]
        assert select_top_k(scores, keys, 3) == [
            ("e", 0.9),
            ("b", 0.5),
            ("c", 0.5),
        ]

    def test_all_zero_scores(self):
        scores = np.zeros(6)
        keys = ["f", "e", "d", "c", "b", "a"]
        assert select_top_k(scores, keys, 2) == [
            ("a", 0.0),
            ("b", 0.0),
        ]

    def test_nonpositive_k_clamps_to_empty(self):
        assert select_top_k(np.array([1.0]), ["a"], 0) == []
        assert select_top_k(np.array([1.0]), ["a"], -5) == []

    def test_oversized_k_clamps_to_full_ranking(self):
        scores = np.array([0.5, 1.0, 0.5])
        keys = ["b", "a", "c"]
        assert select_top_k(scores, keys, 99) == [
            ("a", 1.0),
            ("b", 0.5),
            ("c", 0.5),
        ]

    def test_mismatched_lengths(self):
        with pytest.raises(QueryError):
            select_top_k(np.array([1.0, 2.0]), ["a"], 3)


class TestRankTargets:
    def test_full_ranking_covers_target_type(self, fig4):
        path = fig4.schema.path("APC")
        ranking = rank_targets(fig4, path, "Tom")
        assert len(ranking) == fig4.num_nodes("conference")

    def test_descending_scores(self, fig4):
        path = fig4.schema.path("APC")
        scores = [s for _, s in rank_targets(fig4, path, "Tom")]
        assert scores == sorted(scores, reverse=True)

    def test_tom_ranks_kdd_first(self, fig4):
        path = fig4.schema.path("APC")
        assert rank_targets(fig4, path, "Tom")[0][0] == "KDD"

    def test_raw_mode(self, fig4):
        path = fig4.schema.path("APC")
        ranking = rank_targets(fig4, path, "Tom", normalized=False)
        assert ranking[0] == ("KDD", pytest.approx(0.5))


class TestTopKTargets:
    def test_k_limits_results(self, fig4):
        path = fig4.schema.path("APC")
        assert len(top_k_targets(fig4, path, "Tom", k=1)) == 1

    def test_k_larger_than_type(self, fig4):
        path = fig4.schema.path("APC")
        results = top_k_targets(fig4, path, "Tom", k=100)
        assert len(results) == fig4.num_nodes("conference")

    def test_invalid_k(self, fig4):
        # k clamps like a slice: nothing for k <= 0.
        path = fig4.schema.path("APC")
        assert top_k_targets(fig4, path, "Tom", k=0) == []
        assert top_k_targets(fig4, path, "Tom", k=-2) == []

    def test_unknown_source(self, fig4):
        path = fig4.schema.path("APC")
        with pytest.raises(QueryError):
            top_k_targets(fig4, path, "ghost", k=1)

    def test_equals_rank_prefix(self, fig4):
        """Selection-based top-k is element-wise the full ranking's
        prefix, tie-break included."""
        path = fig4.schema.path("APC")
        for k in (1, 2, 3):
            assert (
                top_k_targets(fig4, path, "Mary", k=k)
                == rank_targets(fig4, path, "Mary")[:k]
            )


class TestSearchCacheThreading:
    """The ``cache=`` satellite: repeated single-source queries stop
    rebuilding both halves every call."""

    def test_rank_targets_reuses_cache(self, fig4):
        from repro.core.cache import PathMatrixCache

        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("APC")
        first = rank_targets(fig4, path, "Tom", cache=cache)
        misses = cache.stats().misses
        assert misses > 0
        second = rank_targets(fig4, path, "Tom", cache=cache)
        assert cache.stats().misses == misses
        assert cache.stats().hits > 0
        assert second == first

    def test_top_k_targets_reuses_cache(self, fig4):
        from repro.core.cache import PathMatrixCache

        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("APC")
        first = top_k_targets(fig4, path, "Tom", k=2, cache=cache)
        misses = cache.stats().misses
        second = top_k_targets(fig4, path, "Tom", k=2, cache=cache)
        assert cache.stats().misses == misses
        assert second == first

    def test_cached_equals_uncached(self, fig4):
        from repro.core.cache import PathMatrixCache
        from repro.core.hetesim import hetesim_all_targets

        cache = PathMatrixCache(fig4)
        for spec in ("APC", "APCP"):
            path = fig4.schema.path(spec)
            np.testing.assert_allclose(
                hetesim_all_targets(fig4, path, "Tom", cache=cache),
                hetesim_all_targets(fig4, path, "Tom"),
                rtol=1e-12,
                atol=1e-15,
            )


class TestTopKPairs:
    def test_strongest_pairs_sorted(self, fig4):
        path = fig4.schema.path("APC")
        triples = top_k_pairs(fig4, path, k=5)
        scores = [score for _, _, score in triples]
        assert scores == sorted(scores, reverse=True)

    def test_contains_expected_best_pair(self, fig4):
        path = fig4.schema.path("APC")
        triples = top_k_pairs(fig4, path, k=3)
        pairs = {(s, t) for s, t, _ in triples}
        assert ("Tom", "KDD") in pairs or ("Jim", "SIGMOD") in pairs

    def test_k_capped_at_matrix_size(self, fig4):
        path = fig4.schema.path("APC")
        total = fig4.num_nodes("author") * fig4.num_nodes("conference")
        assert len(top_k_pairs(fig4, path, k=10_000)) == total

    def test_invalid_k(self, fig4):
        # k clamps like a slice: nothing for k <= 0.
        path = fig4.schema.path("APC")
        assert top_k_pairs(fig4, path, k=-1) == []
        assert top_k_pairs(fig4, path, k=0) == []

    def test_deterministic(self, fig4):
        path = fig4.schema.path("APC")
        assert top_k_pairs(fig4, path, k=6) == top_k_pairs(fig4, path, k=6)


def full_pair_order(graph, path, normalized=True):
    """Every (source, target, score) triple in (-score, source, target)
    order, from the dense relevance matrix."""
    matrix = hetesim_matrix(graph, path, normalized=normalized)
    triples = [
        (source, target, float(matrix[i, j]))
        for i, source in enumerate(graph.node_keys(path.source_type.name))
        for j, target in enumerate(graph.node_keys(path.target_type.name))
    ]
    return sorted(triples, key=lambda item: (-item[2], item[0], item[1]))


class TestTopKPairsTies:
    """Pairs tied at the k-th score resolve by (source, target), so every
    answer is a prefix of the documented full order."""

    @pytest.mark.parametrize("spec", ["APC", "APA", "CPAPC", "APCPA"])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_every_k_is_a_prefix_of_the_full_sort(
        self, fig4, spec, normalized
    ):
        path = fig4.schema.path(spec)
        full = full_pair_order(fig4, path, normalized=normalized)
        for k in range(1, len(full) + 2):
            assert top_k_pairs(
                fig4, path, k=k, normalized=normalized
            ) == full[:k], f"k={k}"


class TestTopKPairsSparse:
    """top_k_pairs when few pairs connect: the zero-score tail must not
    disturb the connected head."""

    def test_matches_dense_variant(self, fig4):
        path = fig4.schema.path("APC")
        assert top_k_pairs(fig4, path, k=4) == full_pair_order(fig4, path)[:4]

    def test_matches_dense_on_acm(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVC")
        assert top_k_pairs(graph, path, k=10) == full_pair_order(
            graph, path
        )[:10]

    def test_raw_mode(self, fig4):
        path = fig4.schema.path("APC")
        triples = top_k_pairs(fig4, path, k=2, normalized=False)
        assert all(score > 0 for _, _, score in triples)

    def test_fewer_connected_pairs_than_k(self, fig4):
        path = fig4.schema.path("APC")
        triples = top_k_pairs(fig4, path, k=1000)
        # An oversized k returns every pair, connected pairs first.
        total = fig4.num_nodes("author") * fig4.num_nodes("conference")
        assert len(triples) == total
        scores = [score for _, _, score in triples]
        connected = sum(1 for score in scores if score > 0)
        assert 0 < connected < total
        assert all(score > 0 for score in scores[:connected])

    def test_bad_k(self, fig4):
        path = fig4.schema.path("APC")
        assert top_k_pairs(fig4, path, k=0) == []
