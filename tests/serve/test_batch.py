"""Batch serving: equality with the sequential API, grouping, stats.

The contract under test: a batch answer is element-wise identical to
running ``hetesim_all_targets`` / ``hetesim_pair`` per query, across
even and odd (edge-object) paths and both normalisation modes, while
materialising each distinct path's halves exactly once per request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_all_targets, hetesim_pair
from repro.core.search import rank_targets, select_top_k
from repro.datasets.random_hin import make_random_hin
from repro.hin.errors import QueryError
from repro.hin.schema import NetworkSchema
from repro.serve import BatchRequest, Query, QueryServer, serve_batch


def _apc_schema():
    return NetworkSchema.from_spec(
        types=[("author", "A"), ("paper", "P"), ("conf", "C")],
        relations=[
            ("writes", "author", "paper"),
            ("published_in", "paper", "conf"),
        ],
    )


@pytest.fixture(scope="module")
def hin():
    return make_random_hin(
        _apc_schema(),
        sizes={"author": 40, "paper": 60, "conf": 8},
        edge_prob=0.08,
        seed=7,
        ensure_connected_rows=True,
    )


@pytest.fixture()
def server(hin):
    return QueryServer(HeteSimEngine(hin))


# Even (APC, APCPA), odd with edge object (AP length-1, APCP length-3).
PATHS = ["APC", "APCPA", "AP", "APCP"]


class TestBatchEquality:
    @pytest.mark.parametrize("spec", PATHS)
    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_sequential_all_targets(
        self, hin, server, spec, normalized
    ):
        path = hin.schema.path(spec)
        sources = hin.node_keys("author")[:12]
        queries = [
            Query(s, spec, k=None, normalized=normalized)
            for s in sources
        ]
        result = server.run(BatchRequest(queries))
        keys = hin.node_keys(path.target_type.name)
        for query, answer in zip(queries, result.results):
            scores = hetesim_all_targets(
                hin, path, query.source, normalized=normalized
            )
            expected = select_top_k(scores, keys, len(keys))
            assert [k for k, _ in answer.ranking] == [
                k for k, _ in expected
            ]
            np.testing.assert_allclose(
                [s for _, s in answer.ranking],
                [s for _, s in expected],
                rtol=1e-12,
                atol=1e-15,
            )

    @pytest.mark.parametrize("spec", ["APC", "APCP"])
    def test_matches_pair_scores(self, hin, server, spec):
        path = hin.schema.path(spec)
        queries = [
            Query(s, spec, k=3) for s in hin.node_keys("author")[:6]
        ]
        result = server.run(BatchRequest(queries))
        for query, answer in zip(queries, result.results):
            for target, score in answer.ranking:
                np.testing.assert_allclose(
                    score,
                    hetesim_pair(hin, path, query.source, target),
                    rtol=1e-10,
                    atol=1e-12,
                )

    def test_matches_rank_targets_prefix(self, hin, server):
        path = hin.schema.path("APC")
        query = Query("A3", "APC", k=4)
        result = server.run(BatchRequest([query]))
        expected = rank_targets(hin, path, "A3")[:4]
        assert [k for k, _ in result.results[0].ranking] == [
            k for k, _ in expected
        ]


def _count_spans(spans, name):
    """Spans called ``name`` in the given trees."""
    return sum(
        (span.name == name) + _count_spans(span.children, name)
        for span in spans
    )


class TestGrouping:
    def test_each_path_materialised_exactly_once(self, hin, traced):
        engine = HeteSimEngine(hin)
        server = QueryServer(engine)
        sources = hin.node_keys("author")[:16]
        queries = [Query(s, "APC", k=5) for s in sources] + [
            Query(s, "APCPA", k=5) for s in sources
        ]
        result = server.run(BatchRequest(queries))
        assert result.stats.num_groups == 2
        assert result.stats.halves_materialised == 2
        batch_executions = _count_spans(traced.roots, "plan.execute")
        traced.reset()

        # CacheStats: the big batch triggered exactly the misses a
        # single halves() materialisation per distinct path would.
        reference = HeteSimEngine(hin)
        for spec in ("APC", "APCPA"):
            reference.halves(reference.path(spec))
        assert (
            engine.cache.stats().misses
            == reference.cache.stats().misses
        )
        # Traced plan.execute spans: one materialisation per distinct
        # path matrix, not one per query.
        assert batch_executions == _count_spans(
            traced.roots, "plan.execute"
        ) > 0

    def test_warm_engine_materialises_nothing(self, hin):
        engine = HeteSimEngine(hin)
        server = QueryServer(engine)
        request = BatchRequest(
            [Query(s, "APC", k=5) for s in hin.node_keys("author")]
        )
        first = server.run(request)
        misses = engine.cache.stats().misses
        second = server.run(request)
        assert first.stats.halves_materialised == 1
        assert second.stats.halves_materialised == 0
        assert engine.cache.stats().misses == misses
        assert second.results == first.results

    def test_request_order_preserved(self, hin, server):
        queries = [
            Query("A0", "APCPA", k=2),
            Query("A1", "APC", k=2),
            Query("A2", "APCPA", k=2),
            Query("A0", "APC", k=2),
        ]
        result = server.run(BatchRequest(queries, workers=4))
        assert [r.query for r in result.results] == queries

    def test_duplicate_sources_share_rows(self, hin, server):
        queries = [Query("A1", "APC", k=3)] * 4
        result = server.run(BatchRequest(queries))
        assert len(result.results) == 4
        assert len({r.ranking for r in result.results}) == 1

    def test_stats_shape(self, hin, server):
        result = server.run(
            BatchRequest(
                [Query("A0", "APC"), Query("A1", "APC")], workers=2
            )
        )
        stats = result.stats
        assert stats.num_queries == 2
        assert stats.group_sizes == (2,)
        assert stats.workers == 2
        assert stats.seconds >= 0
        assert "2 queries" in stats.summary()


class TestValidation:
    def test_empty_batch_answers_empty(self, server):
        result = server.run(BatchRequest([]))
        assert result.results == ()
        assert result.rankings() == []
        assert result.stats.num_queries == 0
        assert result.stats.num_groups == 0
        assert result.stats.group_sizes == ()

    def test_bad_workers_rejected(self, hin):
        with pytest.raises(QueryError):
            BatchRequest([Query("A0", "APC")], workers=0)

    def test_nonpositive_k_yields_empty_ranking(self, server):
        result = server.run(
            BatchRequest(
                [
                    Query("A0", "APC", k=0),
                    Query("A0", "APC", k=2),
                    Query("A0", "APC", k=-1),
                ]
            )
        )
        assert result.results[0].ranking == ()
        assert len(result.results[1].ranking) == 2
        assert result.results[2].ranking == ()

    def test_unknown_source_names_position(self, hin, server):
        with pytest.raises(QueryError, match="#1"):
            server.run(
                BatchRequest(
                    [Query("A0", "APC"), Query("ghost", "APC")]
                )
            )

    def test_each_distinct_spec_resolves_once(self, server, monkeypatch):
        """Hashable specs resolve once per batch, an unhashable one (a
        mapping of combined weights) once per query, and a malformed
        spec still fails the batch at its first position."""
        from repro.core.measures import get_measure

        calls = []
        for name in ("hetesim", "combined"):
            measure = get_measure(name)

            def counting(ctx, spec, _resolve=measure.resolve, _name=name):
                calls.append(_name)
                return _resolve(ctx, spec)

            monkeypatch.setattr(measure, "resolve", counting)
        weights = {"APC": 0.7, "APCPAPC": 0.3}
        result = server.run(BatchRequest(
            [Query(s, "APC", k=3) for s in ("A0", "A1", "A0")]
            + [Query(s, "APCPA", k=3) for s in ("A2", "A3")]
            + [Query(s, dict(weights), k=3, measure="combined")
               for s in ("A0", "A1")]
            + [Query("A1", "APC=0.7,APCPAPC=0.3", k=3, measure="combined")]
        ))
        assert calls.count("hetesim") == 2
        assert calls.count("combined") == 3
        assert result.results[6].ranking == result.results[7].ranking
        with pytest.raises(QueryError, match="#1 "):
            server.run(BatchRequest(
                [Query("A0", "APC"), Query("A0", "APX"), Query("A1", "APX")]
            ))

    def test_fails_before_materialising(self, hin):
        engine = HeteSimEngine(hin)
        with pytest.raises(QueryError):
            QueryServer(engine).run(
                BatchRequest(
                    [Query("A0", "APC"), Query("ghost", "APC")]
                )
            )
        assert engine.cache.stats().misses == 0


def test_serve_batch_function(hin):
    engine = HeteSimEngine(hin)
    result = serve_batch(
        engine, BatchRequest([Query("A0", "APC", k=2)])
    )
    assert len(result.results[0].ranking) == 2


def test_for_graph_constructor(hin):
    server = QueryServer.for_graph(hin)
    result = server.run(BatchRequest([Query("A0", "APC", k=1)]))
    assert len(result.results) == 1


class TestHistoryIndependentAnswers:
    def test_rankings_same_bits_after_a_prefix_was_cached(self, skewed):
        """A batch answers with the same bits whatever the engine's
        cache held: here, after ABCB (a prefix of the queried paths)
        was materialised first.  Re-planning ABCBA's chain around that
        cached prefix changed every PCRW ranking below in its last
        bits."""
        queries = [
            Query(key, spec, k=10, measure=measure)
            for key in skewed.node_keys("a")[:40]
            for measure, spec in (
                ("pcrw", "ABCBA"), ("pcrw", "ABCBABC"), ("hetesim", "ABCBA"),
            )
        ]
        fresh = QueryServer(HeteSimEngine(skewed)).run(BatchRequest(queries))
        primed = HeteSimEngine(skewed)
        primed.cache.reach_prob(skewed.schema.path("ABCB"))
        answers = QueryServer(primed).run(BatchRequest(queries))
        for expected, answer in zip(fresh.results, answers.results):
            assert answer.ranking == expected.ranking, answer.query
