"""Unit tests for ranked relevance search."""

import numpy as np
import pytest

from repro.core.hetesim import hetesim_matrix
from repro.core.search import (
    rank_targets,
    select_top_k,
    select_top_k_rows,
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


class _CountingKeys:
    """A lazy key sequence that counts how often it is read."""

    def __init__(self, keys):
        self.keys = keys
        self.read = []

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, index):
        self.read.append(int(index))
        return self.keys[index]


def _key_ranks(keys):
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(
        len(keys)
    )
    return ranks


def _full_sort(row, keys, k):
    order = sorted(range(len(keys)), key=lambda j: (-row[j], keys[j]))
    return [(keys[j], float(row[j])) for j in order[: max(k, 0)]]


class TestSelectTopKRows:
    """The block selector: every row equals a full sort of that row."""

    def _tied_block(self, seed, rows=6, n=40):
        rng = np.random.default_rng(seed)
        # Three score levels plus zeros: most rows tie at the k-th score.
        block = rng.integers(0, 3, size=(rows, n)) / 3.0
        block[rng.random((rows, n)) < 0.4] = 0.0
        # Keys whose sorted order differs from their index order.
        keys = [f"n{int(i)}" for i in rng.permutation(n)]
        return block, keys

    def _ks(self, row, n):
        """k in {-1, 0, 1, the tie boundary, n-1, n, n+5}."""
        boundary = int(np.sum(row > np.sort(row)[::-1][n // 3])) + 1
        return (-1, 0, 1, boundary, n - 1, n, n + 5)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("with_ranks", [False, True])
    def test_rows_equal_full_sort(self, seed, with_ranks):
        block, keys = self._tied_block(seed)
        assert sorted(keys) != keys
        ranks = _key_ranks(keys) if with_ranks else None
        n = len(keys)
        for k in sorted({k for row in block for k in self._ks(row, n)}):
            ranked = select_top_k_rows(block, keys, k, ranks=ranks)
            assert len(ranked) == len(block)
            for row, ranking in zip(block, ranked):
                assert ranking == _full_sort(row, keys, k), k
                assert ranking == select_top_k(row, keys, k), k

    def test_repeated_rows_and_empty_block(self):
        block, keys = self._tied_block(7, rows=2)
        doubled = np.vstack([block, block[::-1]])
        ranked = select_top_k_rows(doubled, keys, 5)
        assert ranked[0] == ranked[3] and ranked[1] == ranked[2]
        assert select_top_k_rows(np.zeros((0, len(keys))), keys, 3) == []

    def test_wrong_length_ranks_rejected(self):
        block, keys = self._tied_block(1)
        with pytest.raises(QueryError, match="ranks"):
            select_top_k_rows(block, keys, 3, ranks=_key_ranks(keys)[:-1])
        with pytest.raises(QueryError):
            select_top_k_rows(block[:, :-1], keys, 3)

    @pytest.mark.parametrize("k", [1, 3, 10, 39])
    def test_lazy_keys_read_only_for_candidates(self, k):
        block, keys = self._tied_block(3, rows=1)
        row = block[0]
        counting = _CountingKeys(keys)
        assert select_top_k_rows(block, counting, k) == [
            _full_sort(row, keys, k)
        ]
        candidates = np.flatnonzero(row >= np.sort(row)[::-1][k - 1])
        assert set(counting.read) <= set(candidates.tolist())
        assert len(counting.read) <= candidates.size + k


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
