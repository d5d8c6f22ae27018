"""Registry behaviour and the shared MeasureContext services."""

import pytest

from repro.core.cache import PathMatrixCache
from repro.core.engine import HeteSimEngine
from repro.core.measures import (
    Measure,
    MeasureContext,
    available_measures,
    get_measure,
    register_measure,
)
from repro.hin.errors import QueryError

BUILTINS = {
    "combined", "hetesim", "pathsim", "pcrw", "ppr", "reachprob",
}


class TestRegistry:
    def test_all_builtin_measures_registered(self):
        assert BUILTINS <= set(available_measures())

    def test_descriptions_nonempty_and_sorted(self):
        listed = available_measures()
        assert list(listed) == sorted(listed)
        assert all(listed.values())

    def test_unknown_measure_names_available(self):
        with pytest.raises(QueryError, match="hetesim"):
            get_measure("simrankish")

    def test_duplicate_registration_rejected(self):
        class Dup(Measure):
            name = "hetesim"

            def resolve(self, ctx, spec):  # pragma: no cover
                raise NotImplementedError

            def _prepare(self, ctx, spec):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(QueryError, match="duplicate"):
            register_measure(Dup())

    def test_unnamed_measure_rejected(self):
        class NoName(Measure):
            def resolve(self, ctx, spec):  # pragma: no cover
                raise NotImplementedError

            def _prepare(self, ctx, spec):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(QueryError, match="name"):
            register_measure(NoName())


class TestMeasureContext:
    def test_needs_graph_or_engine(self):
        with pytest.raises(QueryError):
            MeasureContext()

    def test_of_coerces_graph_engine_and_context(self, fig4):
        engine = HeteSimEngine(fig4)
        from_graph = MeasureContext.of(fig4)
        from_engine = MeasureContext.of(engine)
        assert from_graph.graph is fig4
        assert from_graph.engine is None
        assert from_engine.engine is engine
        assert from_engine.cache is engine.cache
        assert MeasureContext.of(from_graph) is from_graph

    def test_engine_context_uses_half_memo(self, fig4):
        engine = HeteSimEngine(fig4)
        ctx = engine.measures
        path = engine.path("APC")
        before = engine.materialisation_count
        ctx.halves(path)
        ctx.halves(path)
        assert engine.materialisation_count == before + 1

    def test_engine_measures_property_is_memoised(self, fig4):
        engine = HeteSimEngine(fig4)
        assert engine.measures is engine.measures

    def test_global_walk_memoised_until_mutation(self, fig4):
        """The walk operator is a cache entry: memoised per direction
        and accounted under the cache's byte volume."""
        ctx = MeasureContext(graph=fig4, cache=PathMatrixCache(fig4))
        index_a, walk_a = ctx.global_walk()
        index_b, walk_b = ctx.global_walk()
        assert index_a is index_b and walk_a is walk_b
        assert ctx.global_walk(undirected=False)[1] is not walk_a
        assert ctx.cache.num_cached == 2
        assert ctx.cache.nbytes >= walk_a.data.nbytes
        fig4.add_edge("writes", "Tom", "p1")
        index_c, _ = ctx.global_walk()
        assert index_c is not index_a


class TestCountMatrixCache:
    """Satellite 1: adjacency counts live under the cache byte budget."""

    def test_count_matrix_cached_and_counted(self, fig4):
        cache = PathMatrixCache(fig4)
        ctx = MeasureContext(graph=fig4, cache=cache)
        path = fig4.schema.path("APCPA")
        misses = cache.stats().misses
        first = ctx.count_matrix(path)
        second = ctx.count_matrix(path)
        stats = cache.stats()
        assert stats.misses == misses + 1
        assert stats.hits >= 1
        assert (first != second).nnz == 0

    def test_count_entries_distinct_from_transition_entries(self, fig4):
        cache = PathMatrixCache(fig4)
        ctx = MeasureContext(graph=fig4, cache=cache)
        path = fig4.schema.path("APC")
        counts = ctx.count_matrix(path)
        reach = ctx.reach(path)
        # Counts are raw instance counts, reach rows are probabilities:
        # the namespaced cache entry must never shadow the PM entry.
        assert counts.sum() >= reach.sum()
        assert (ctx.count_matrix(path) != counts).nnz == 0
        assert (ctx.reach(path) != reach).nnz == 0

    def test_count_matrix_invalidated_by_mutation(self, fig4):
        cache = PathMatrixCache(fig4)
        ctx = MeasureContext(graph=fig4, cache=cache)
        path = fig4.schema.path("APC")
        before = ctx.count_matrix(path).sum()
        fig4.add_edge("writes", "Tom", "p3")
        after = ctx.count_matrix(path).sum()
        assert after != before

    def test_count_matrix_matches_uncached(self, fig4):
        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("APCPA")
        cached = MeasureContext(graph=fig4, cache=cache).count_matrix(path)
        plain = MeasureContext(graph=fig4).count_matrix(path)
        assert (cached != plain).nnz == 0

    def test_path_count_matrix_routes_through_cache(self, fig4):
        from repro.baselines.pathsim import path_count_matrix

        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("APCPA")
        first = path_count_matrix(fig4, path, cache=cache)
        hits = cache.stats().hits
        second = path_count_matrix(fig4, path, cache=cache)
        assert cache.stats().hits > hits
        assert (first != second).nnz == 0


class TestMeasureMetrics:
    def test_prepare_and_query_counters_carry_measure_label(self, fig4):
        from repro.obs.metrics import REGISTRY

        prepares = REGISTRY.counter(
            "repro_measure_prepares_total", ""
        ).labels(measure="pathsim")
        queries = REGISTRY.counter(
            "repro_measure_queries_total", ""
        ).labels(measure="pathsim")
        p0, q0 = prepares.value, queries.value
        get_measure("pathsim").rank(
            MeasureContext(graph=fig4), "APCPA", "Tom"
        )
        assert prepares.value == p0 + 1
        assert queries.value == q0 + 1
