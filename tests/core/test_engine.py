"""Unit tests for the high-level HeteSimEngine."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_matrix
from repro.datasets.random_hin import make_random_hin
from repro.datasets.schemas import toy_apc_schema
from repro.hin.errors import QueryError


class TestRelevance:
    def test_matches_functional_layer(self, fig4_engine, fig4):
        for spec in ("APC", "APA", "AP", "APAPC"):
            path = fig4.schema.path(spec)
            engine_matrix = fig4_engine.relevance_matrix(path)
            functional = hetesim_matrix(fig4, path)
            np.testing.assert_allclose(engine_matrix, functional, atol=1e-12)

    def test_pair_query(self, fig4_engine):
        assert fig4_engine.relevance(
            "Tom", "KDD", "APC", normalized=False
        ) == pytest.approx(0.5)
        assert fig4_engine.relevance("Tom", "KDD", "APC") == pytest.approx(1.0)

    def test_accepts_path_specs(self, fig4_engine, fig4):
        by_string = fig4_engine.relevance("Tom", "KDD", "APC")
        by_object = fig4_engine.relevance(
            "Tom", "KDD", fig4.schema.path("APC")
        )
        by_names = fig4_engine.relevance(
            "Tom", "KDD", ["author", "paper", "conference"]
        )
        assert by_string == by_object == by_names

    def test_vector_matches_matrix_row(self, fig4_engine):
        matrix = fig4_engine.relevance_matrix("APC")
        vector = fig4_engine.relevance_vector("Tom", "APC")
        np.testing.assert_allclose(vector, matrix[0], atol=1e-12)

    def test_unknown_object_rejected(self, fig4_engine):
        with pytest.raises(QueryError):
            fig4_engine.relevance("ghost", "KDD", "APC")

    def test_raw_mode(self, fig4_engine):
        raw = fig4_engine.relevance_matrix("APC", normalized=False)
        assert raw.max() <= 1.0 + 1e-12
        tom_kdd = raw[0, 0]
        assert tom_kdd == pytest.approx(0.5)


class TestCaching:
    def test_halves_cached_per_path(self, fig4_engine):
        path = fig4_engine.path("APC")
        first = fig4_engine.halves(path)
        second = fig4_engine.halves(path)
        assert first[0] is second[0]

    def test_shared_prefixes_across_paths(self, fig4_engine):
        fig4_engine.relevance_matrix("APAPC")
        # The underlying PM cache holds prefixes reused by shorter paths.
        assert fig4_engine.cache.num_cached > 0

    def test_clear_cache(self, fig4_engine):
        fig4_engine.relevance_matrix("APC")
        fig4_engine.clear_cache()
        assert fig4_engine.cache.num_cached == 0

    def test_results_unchanged_after_cache_warm(self, fig4_engine):
        cold = fig4_engine.relevance_matrix("APAPC")
        warm = fig4_engine.relevance_matrix("APAPC")
        np.testing.assert_array_equal(cold, warm)


class TestRanking:
    def test_rank_order_descending(self, fig4_engine):
        ranking = fig4_engine.rank("Tom", "APC")
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_prefix_of_rank(self, fig4_engine):
        assert fig4_engine.top_k("Tom", "APC", k=1) == fig4_engine.rank(
            "Tom", "APC"
        )[:1]

    def test_top_k_nonpositive_k_is_empty(self, fig4_engine):
        assert fig4_engine.top_k("Tom", "APC", k=0) == []
        assert fig4_engine.top_k("Tom", "APC", k=-3) == []

    def test_deterministic_tie_break(self, fig4_engine):
        first = fig4_engine.rank("Tom", "APC")
        second = fig4_engine.rank("Tom", "APC")
        assert first == second

    def test_tom_top_conference_is_kdd(self, fig4_engine):
        assert fig4_engine.top_k("Tom", "APC", k=1)[0][0] == "KDD"


class TestProfile:
    def test_profile_shape(self, fig4_engine):
        profile = fig4_engine.profile(
            "Tom",
            {"conferences": "APC", "co-authors": "APA"},
            k=2,
        )
        assert set(profile) == {"conferences", "co-authors"}
        assert len(profile["conferences"]) == 2

    def test_profile_self_first_on_symmetric_path(self, fig4_engine):
        profile = fig4_engine.profile("Tom", {"coauthors": "APA"}, k=3)
        assert profile["coauthors"][0][0] == "Tom"
        assert profile["coauthors"][0][1] == pytest.approx(1.0)


class TestRelevanceSubmatrix:
    def test_rows_match_full_matrix(self, fig4_engine, fig4):
        full = fig4_engine.relevance_matrix("APC")
        sub = fig4_engine.relevance_submatrix(["Mary", "Tom"], "APC")
        mary = fig4.node_index("author", "Mary")
        tom = fig4.node_index("author", "Tom")
        np.testing.assert_allclose(sub[0], full[mary], atol=1e-12)
        np.testing.assert_allclose(sub[1], full[tom], atol=1e-12)

    def test_raw_mode(self, fig4_engine, fig4):
        full = fig4_engine.relevance_matrix("APC", normalized=False)
        sub = fig4_engine.relevance_submatrix(
            ["Tom"], "APC", normalized=False
        )
        tom = fig4.node_index("author", "Tom")
        np.testing.assert_allclose(sub[0], full[tom], atol=1e-12)

    def test_empty_subset_rejected(self, fig4_engine):
        with pytest.raises(QueryError):
            fig4_engine.relevance_submatrix([], "APC")

    def test_unknown_source_rejected(self, fig4_engine):
        with pytest.raises(QueryError):
            fig4_engine.relevance_submatrix(["ghost"], "APC")

    def test_duplicate_sources_allowed(self, fig4_engine):
        sub = fig4_engine.relevance_submatrix(["Tom", "Tom"], "APC")
        np.testing.assert_allclose(sub[0], sub[1])


class TestMutationSafety:
    def test_mutation_invalidates_caches(self, fig4):
        engine = HeteSimEngine(fig4)
        before = engine.relevance("Tom", "SIGMOD", "APC")
        assert before == 0.0
        # Tom publishes in SIGMOD: scores must change on the next query.
        fig4.add_edge("writes", "Tom", "p3")
        after = engine.relevance("Tom", "SIGMOD", "APC")
        assert after > 0.0

    def test_symmetric_path_shares_half_matrix(self, fig4_engine):
        """A symmetric path materialises one half; its scoring form
        stores it unit-scaled twice, once transposed, with one norm
        vector."""
        path = fig4_engine.path("APA")
        left, right, left_norms, right_norms = fig4_engine.halves(path)
        assert left_norms is right_norms
        assert right.shape == left.shape[::-1]
        assert (right != left.T).nnz == 0

    def test_version_counter_visible(self, fig4):
        engine = HeteSimEngine(fig4)
        engine.relevance_matrix("APC")
        cached = engine.cache.num_cached
        assert cached > 0
        fig4.add_node("author", "newcomer")
        engine.relevance_matrix("APC")  # triggers rebuild
        assert engine.graph.version == fig4.version

    def test_unrelated_relation_mutation_keeps_halves(self, fig4):
        """Selective invalidation: adding an affiliation-style edge to a
        relation outside the path must not discard its half matrices."""
        engine = HeteSimEngine(fig4)
        path = engine.path("PC")  # only published_in
        before = engine.halves(path)
        # Mutate writes with existing endpoints: published_in untouched.
        fig4.add_edge("writes", "Tom", "p3")
        after = engine.halves(path)
        assert before[0] is after[0]

    def test_touched_relation_mutation_refreshes_halves(self, fig4):
        engine = HeteSimEngine(fig4)
        path = engine.path("APC")
        before = engine.halves(path)
        fig4.add_edge("writes", "Tom", "p3")
        after = engine.halves(path)
        assert before[0] is not after[0]


class TestMemoByteBudget:
    """Scoring forms share the engine's byte budget with the cache."""

    BUDGET = 1 << 20
    #: What the engine holds besides matrix data: its locks, counters,
    #: plan log and path memo (about 20 KiB in practice).
    SLACK = 256 << 10
    #: Distinct paths of growing length; APCPAPCPA's A x A halves alone
    #: are about 4 MB, several times the budget.
    PATHS = ("APCPA", "APCPAPCPA", "CPAPC", "CPAPCPAPC")

    @staticmethod
    def _graph():
        return make_random_hin(
            toy_apc_schema(),
            {"author": 600, "paper": 1200, "conference": 100},
            edge_probs={"writes": 8 / 1200, "published_in": 3 / 100},
            seed=1,
        )

    def test_path_flood_stays_within_budget(self):
        graph = self._graph()

        def source(spec):
            type_name = graph.schema.path(spec).source_type.name
            return graph.node_keys(type_name)[0]

        # The graph's own adjacency matrices are outside any budget:
        # build them before measuring.
        for spec in self.PATHS:
            HeteSimEngine(graph).top_k(source(spec), spec, k=5)
        gc.collect()
        tracemalloc.start()
        try:
            engine = HeteSimEngine(graph, byte_budget=self.BUDGET)
            first = {
                spec: engine.top_k(source(spec), spec, k=5)
                for spec in self.PATHS
            }
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= self.BUDGET + self.SLACK
        assert engine.cache.nbytes <= self.BUDGET
        assert engine.cache.evictions > 0
        evicted = [
            spec for spec in self.PATHS
            if not engine.has_halves(engine.path(spec))
        ]
        assert evicted
        for spec in self.PATHS:
            assert engine.top_k(source(spec), spec, k=5) == first[spec]

    def test_form_over_budget_is_served_not_memoised(self, fig4):
        engine = HeteSimEngine(fig4, byte_budget=64)
        path = engine.path("APCPA")
        expected = HeteSimEngine(fig4).top_k("Tom", path, k=3)
        assert engine.top_k("Tom", path, k=3) == expected
        assert not engine.has_halves(path)
        assert engine.cache.nbytes <= 64

    def test_unbudgeted_memo_keeps_every_form(self, fig4):
        engine = HeteSimEngine(fig4)
        queries = [("Tom", "APC"), ("Tom", "APCPA"), ("KDD", "CPAPC")]
        for source, spec in queries:
            engine.top_k(source, spec, k=2)
        for _, spec in queries:
            assert engine.has_halves(engine.path(spec))
        assert engine.cache.evictions == 0


class _RacyEntries(dict):
    """Cache entry dict that re-enacts the stale-read interleaving.

    The first ``get`` that finds an entry captures it, lets a *fresh*
    build land (by calling ``engine.halves`` inline, exactly what a
    concurrent warmer would do between a reader's lookup and its
    freshness check), then hands the reader the captured stale value.
    With the signature stored beside the form in one entry the reader
    rejects the stale value; with the signature in a second dict the
    reader would pair it with the freshly written signature and serve
    pre-mutation matrices.
    """

    def __init__(self, engine, path, mapping):
        super().__init__(mapping)
        self._engine = engine
        self._path = path
        self._armed = True

    def get(self, key, default=None):
        stale = super().get(key, default)
        if self._armed and stale is not None:
            self._armed = False  # disarm before nesting: no recursion
            self._engine.halves(self._path)
        return stale


class TestStaleHalvesRace:
    def test_stale_tuple_cannot_pair_with_fresh_signature(self, fig4):
        engine = HeteSimEngine(fig4)
        path = engine.path("APC")
        engine.halves(path)  # memoise at the pre-mutation signature
        fig4.add_edge("writes", "Tom", "p3")  # invalidates the form
        cache = engine.cache
        cache._entries = _RacyEntries(engine, path, cache._entries)

        left, _, _, _ = engine.halves(path)

        fresh_left, _, _, _ = HeteSimEngine(fig4).halves(path)
        np.testing.assert_array_equal(
            left.toarray(), fresh_left.toarray()
        )


class TestRelevancePairs:
    def test_matches_individual_queries(self, fig4_engine):
        pairs = [("Tom", "KDD"), ("Mary", "SIGMOD"), ("Jim", "KDD")]
        batched = fig4_engine.relevance_pairs(pairs, "APC")
        individual = [
            fig4_engine.relevance(s, t, "APC") for s, t in pairs
        ]
        assert batched == pytest.approx(individual)

    def test_raw_mode(self, fig4_engine):
        scores = fig4_engine.relevance_pairs(
            [("Tom", "KDD")], "APC", normalized=False
        )
        assert scores == [pytest.approx(0.5)]

    def test_empty_rejected(self, fig4_engine):
        with pytest.raises(QueryError):
            fig4_engine.relevance_pairs([], "APC")

    def test_unknown_pair_rejected(self, fig4_engine):
        with pytest.raises(QueryError):
            fig4_engine.relevance_pairs([("ghost", "KDD")], "APC")


class TestWarm:
    """`engine.warm`: the §4.6 off-line stage as an API."""

    def test_warm_memoises_halves(self, fig4):
        engine = HeteSimEngine(fig4)
        report = engine.warm(["APC", "APCPA"], workers=2)
        assert set(report.paths) == {"APC", "APCPA"}
        for spec in ("APC", "APCPA"):
            assert engine.has_halves(engine.path(spec))
        # Warmed queries trigger no further materialisation.
        misses = engine.cache.stats().misses
        engine.top_k("Tom", "APC", k=2)
        engine.top_k("Tom", "APCPA", k=2)
        assert engine.cache.stats().misses == misses

    def test_warm_deduplicates_specs(self, fig4):
        engine = HeteSimEngine(fig4)
        report = engine.warm(["APC", "APC", "APC"])
        assert report.paths == ("APC",)

    def test_warm_persists_through_store(self, fig4, tmp_path):
        from repro.core.cache import PathMatrixCache
        from repro.core.store import MatrixStore

        engine = HeteSimEngine(fig4)
        store = MatrixStore(tmp_path / "store")
        report = engine.warm(["APC"], store=store)
        assert report.persisted
        assert store.stored_paths()

        # A fresh process reloads the halves instead of recomputing.
        cache = PathMatrixCache(fig4)
        assert store.load_into(cache) == len(report.persisted)
        fresh = HeteSimEngine(fig4)
        fresh.cache = cache
        misses_before = cache.stats().misses
        fresh.halves(fresh.path("APC"))
        assert cache.stats().misses == misses_before
        assert fresh.relevance("Tom", "KDD", "APC") == pytest.approx(
            HeteSimEngine(fig4).relevance("Tom", "KDD", "APC")
        )

    def test_warm_report_summary(self, fig4):
        engine = HeteSimEngine(fig4)
        summary = engine.warm(["APC"], workers=3).summary()
        assert "APC" in summary and "3 worker(s)" in summary

    def test_warm_reports_skipped_odd_paths(self, fig4, tmp_path):
        from repro.core.store import MatrixStore

        engine = HeteSimEngine(fig4)
        store = MatrixStore(tmp_path / "store")
        report = engine.warm(["AP", "APC"], store=store)
        # The odd path is memoised in process...
        assert engine.has_halves(engine.path("AP"))
        # ...but its edge-object transition halves cannot persist, and
        # the report must say so instead of implying full coverage.
        assert report.skipped == ("AP",)
        assert "skipped" in report.summary()
        assert "AP" in report.summary()

    def test_warm_without_store_skips_nothing(self, fig4):
        engine = HeteSimEngine(fig4)
        report = engine.warm(["AP"])
        assert report.skipped == ()
        assert "skipped" not in report.summary()
