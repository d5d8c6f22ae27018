"""Property-based tests for search, pruning, multi-path, and the store."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cache import PathMatrixCache
from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_pair
from repro.core.measures import MeasureContext, get_measure
from repro.core.search import rank_targets, top_k_targets
from repro.datasets.schemas import toy_apc_schema
from repro.hin.graph import HeteroGraph
from repro.runtime.limits import ExecutionLimits
from repro.runtime.resilience import ResilientRuntime, Strategy
from repro.serve.batch import BatchRequest, Query, QueryServer

MAX_N = 6


@st.composite
def apc_graphs(draw, max_n=MAX_N):
    """A random author-paper-conference graph with no isolated papers."""
    n_a = draw(st.integers(2, max_n))
    n_p = draw(st.integers(2, max_n))
    n_c = draw(st.integers(2, 4))
    writes = draw(
        st.sets(
            st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)),
            min_size=2,
            max_size=n_a * n_p,
        )
    )
    published = draw(
        st.sets(
            st.tuples(st.integers(0, n_p - 1), st.integers(0, n_c - 1)),
            min_size=2,
            max_size=n_p * n_c,
        )
    )
    graph = HeteroGraph(toy_apc_schema())
    graph.add_nodes("author", (f"a{i}" for i in range(n_a)))
    graph.add_nodes("paper", (f"p{i}" for i in range(n_p)))
    graph.add_nodes("conference", (f"c{i}" for i in range(n_c)))
    for i, j in writes:
        graph.add_edge("writes", f"a{i}", f"p{j}")
    for i, j in published:
        graph.add_edge("published_in", f"p{i}", f"c{j}")
    return graph


#: Even (APC, APA, CPAPC) and odd (AP, APCP) paths; odd ones split
#: their middle relation through edge objects.
PATHS = st.sampled_from(["APC", "APA", "CPAPC", "AP", "APCP"])


class TestEveryEntryPointAgrees:
    """Every HeteSim entry point scores through the plugin's prepared
    state and ranks with select_top_k, so for one ``(source, path, k)``
    they all return the identical ``(key, score)`` list, and every pair
    scorer returns exactly the score row's entry."""

    @given(apc_graphs(max_n=16), PATHS, st.integers(1, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_top_k_lists_identical(self, graph, spec, k, normalized):
        engine = HeteSimEngine(graph)
        path = graph.schema.path(spec)
        hetesim = get_measure("hetesim")
        for source in graph.node_keys(path.source_type.name)[:2]:
            expected = engine.top_k(source, spec, k=k, normalized=normalized)
            assert len(expected) == min(
                k, graph.num_nodes(path.target_type.name)
            )
            candidates = {
                "engine.rank": engine.rank(
                    source, spec, normalized=normalized
                )[:k],
                "top_k_targets": top_k_targets(
                    graph, path, source, k=k, normalized=normalized
                ),
                "top_k_targets(cache)": top_k_targets(
                    graph, path, source, k=k, normalized=normalized,
                    cache=PathMatrixCache(graph),
                ),
                "rank_targets": rank_targets(
                    graph, path, source, normalized=normalized
                )[:k],
                "Measure.top_k": hetesim.top_k(
                    MeasureContext(graph=graph), path, source, k=k,
                    normalized=normalized,
                ),
                "QueryServer.run": list(
                    QueryServer(HeteSimEngine(graph))
                    .run(BatchRequest(
                        [Query(source, spec, k=k, normalized=normalized)]
                    ))
                    .results[0]
                    .ranking
                ),
            }
            exact = HeteSimEngine(graph).runtime().top_k(
                source, spec, k=k, normalized=normalized
            )
            assert exact.strategy == "exact"
            candidates["ResilientRuntime.top_k"] = exact.value
            for name, ranking in candidates.items():
                assert ranking == expected, name

    @given(apc_graphs(max_n=16), PATHS, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_rows_equal_single_rows(
        self, graph, spec, normalized, data
    ):
        """A row's scores do not depend on its block: every row of a
        random multi-row block equals that row scored alone, and every
        pair score equals its entry, bit for bit."""
        engine = HeteSimEngine(graph)
        path = graph.schema.path(spec)
        hetesim = get_measure("hetesim")
        n_sources = graph.num_nodes(path.source_type.name)
        rows = data.draw(
            st.lists(
                st.integers(0, n_sources - 1),
                min_size=2,
                max_size=2 * n_sources,
            )
        )
        block = hetesim.prepare(engine.measures, spec).score_rows(
            rows, normalized=normalized
        )
        for position, row in enumerate(rows):
            alone = hetesim.prepare(engine.measures, spec)
            single = alone.score_rows([row], normalized=normalized)[0]
            assert block[position].tobytes() == single.tobytes(), row
            for col, score in enumerate(block[position]):
                pair = alone.score_pair(row, col, normalized=normalized)
                assert pair == score, (row, col)

    @given(apc_graphs(max_n=16), PATHS, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pair_scores_equal_row_entries(self, graph, spec, normalized):
        engine = HeteSimEngine(graph)
        runtime = engine.runtime()
        path = graph.schema.path(spec)
        hetesim = get_measure("hetesim")
        ctx = MeasureContext(graph=graph)
        targets = graph.node_keys(path.target_type.name)
        for source in graph.node_keys(path.source_type.name)[:2]:
            row = engine.relevance_vector(source, spec, normalized=normalized)
            for j, target in enumerate(targets):
                scores = {
                    "engine.relevance": engine.relevance(
                        source, target, spec, normalized=normalized
                    ),
                    "hetesim_pair": hetesim_pair(
                        graph, path, source, target, normalized=normalized
                    ),
                    "Measure.pair": hetesim.pair(
                        ctx, path, source, target, normalized=normalized
                    ),
                    "runtime.relevance": runtime.relevance(
                        source, target, spec, normalized=normalized
                    ).value,
                }
                for name, score in scores.items():
                    assert score == row[j], (name, target)


def prune_rung(graph, mass=0.0):
    """A runtime whose only strategy is an unenforced prune rung."""
    return ResilientRuntime(
        graph,
        policy=(Strategy("prune", prune_mass=mass, enforced=False),),
    )


#: ``(measure, spec)`` pairs of the multi-query batch property: every
#: measure the batch ranks with the block selector, on paths whose
#: target types are authors, papers or conferences.
BATCH_SPECS = (
    ("hetesim", "APC"),
    ("hetesim", "APA"),
    ("hetesim", "CPAPC"),
    ("hetesim", "APCP"),
    ("pathsim", "APA"),
    ("pathsim", "APCPA"),
    ("pcrw", "APC"),
    ("pcrw", "APA"),
    ("combined", "APC=0.7,APCPAPC=0.3"),
)


class TestBatchRankingsPerQuery:
    """A batch ranks each group's block in one pass, breaking ties on
    the graph's key ranks; every query's ranking must still equal a
    full ``(-score, key)`` sort of that query's own score row.
    ``apc_graphs`` keys sort ``a10`` before ``a2``, so key order
    differs from index order.

    The reference row is the plugin's prepared ``score_rows`` for the
    one source, on the server's own engine.  That row is also what
    ``Measure.top_k`` ranks for every measure, so the single query's
    ranking must equal the batch's too."""

    @staticmethod
    def _check(graph, server, queries):
        result = server.run(BatchRequest(queries))
        ctx = server.engine.measures
        for query, answer in zip(queries, result.results):
            measure = get_measure(query.measure)
            prepared = measure.prepare(ctx, query.path)
            keys = prepared.target_keys()
            row = graph.node_index(prepared.shape.source_type, query.source)
            scores = prepared.score_rows([row], query.normalized)[0]
            order = sorted(
                range(len(keys)), key=lambda j: (-scores[j], keys[j])
            )
            k = len(keys) if query.k is None else max(query.k, 0)
            expected = [(keys[j], float(scores[j])) for j in order[:k]]
            assert list(answer.ranking) == expected, query
            single = measure.top_k(
                ctx, query.path, query.source, k=k,
                normalized=query.normalized,
            )
            assert single == expected, query

    @given(apc_graphs(max_n=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_query_equals_its_single_ranking(self, graph, data):
        queries = []
        for _ in range(data.draw(st.integers(2, 12))):
            measure, spec = data.draw(st.sampled_from(BATCH_SPECS))
            path = graph.schema.path(spec.split("=")[0])
            sources = graph.node_keys(path.source_type.name)
            n_targets = graph.num_nodes(path.target_type.name)
            queries.append(Query(
                data.draw(st.sampled_from(sources[:3])),
                spec,
                k=data.draw(
                    st.one_of(st.none(), st.integers(-3, n_targets + 2))
                ),
                normalized=data.draw(st.booleans()),
                measure=measure,
            ))
        queries.append(queries[0])
        server = QueryServer(HeteSimEngine(graph))
        self._check(graph, server, queries)
        # New keys that sort before every existing one shift every rank.
        graph.add_node("author", "a")
        graph.add_node("paper", "p")
        graph.add_node("conference", "c")
        self._check(graph, server, queries)


class TestPruningProperties:
    @given(apc_graphs())
    @settings(max_examples=40, deadline=None)
    def test_exact_mode_matches_engine(self, graph):
        """prune_mass=0 must reproduce the engine ranking exactly."""
        engine = HeteSimEngine(graph)
        path = graph.schema.path("APC")
        for source in graph.node_keys("author")[:2]:
            pruned = prune_rung(graph).top_k(source, path, k=4)
            assert "dropped_forward_mass" not in pruned.accuracy
            assert pruned.value == engine.top_k(source, path, k=4)

    @given(apc_graphs(), st.floats(0.0, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_dropped_mass_stays_under_tolerance(self, graph, tolerance):
        path = graph.schema.path("APC")
        source = graph.node_keys("author")[0]
        result = prune_rung(graph, mass=tolerance).top_k(source, path, k=3)
        assert 0 <= result.accuracy.get("dropped_forward_mass", 0.0) <= (
            tolerance
        )

    @given(
        apc_graphs(),
        st.floats(0.01, 0.3),
        st.sampled_from([0.0, 0.05, 0.2]),
        st.sampled_from(["APC", "APCPA", "APCP"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_raw_error_bounded(self, graph, tolerance, eps, spec):
        """Raw scores stay within dropped_forward_mass + truncated_mass
        of exact, for every rung configuration on a cold engine."""
        path = graph.schema.path(spec)
        source = graph.node_keys("author")[0]
        exact = dict(
            HeteSimEngine(graph).top_k(source, path, k=10, normalized=False)
        )
        runtime = ResilientRuntime(
            graph,
            policy=(
                Strategy(
                    "prune", truncate_eps=eps, prune_mass=tolerance,
                    enforced=False,
                ),
            ),
        )
        approx = runtime.top_k(source, path, k=10, normalized=False)
        bound = approx.accuracy.get(
            "dropped_forward_mass", 0.0
        ) + approx.accuracy.get("truncated_mass", 0.0)
        for key, score in approx.value:
            assert abs(score - exact[key]) <= bound + 1e-10


class TestDefaultLadderBound:
    @given(
        apc_graphs(),
        st.sampled_from(["AP", "APC", "APA", "APCPA", "CPAPC", "APCP"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_reported_mass_bounds_raw_error(self, graph, spec):
        """The shipped ladder on a cold engine under a zero deadline:
        the exact rung trips, and every raw score the answering rung
        returns lies within dropped_forward_mass + truncated_mass of
        the exact score."""
        path = graph.schema.path(spec)
        n_targets = graph.num_nodes(path.target_type.name)
        for source in graph.node_keys(path.source_type.name)[:2]:
            exact = dict(
                HeteSimEngine(graph).top_k(
                    source, spec, k=n_targets, normalized=False
                )
            )
            result = HeteSimEngine(graph).runtime(
                ExecutionLimits(deadline_ms=0)
            ).top_k(source, spec, k=n_targets, normalized=False)
            assert result.degraded
            bound = result.accuracy.get(
                "dropped_forward_mass", 0.0
            ) + result.accuracy.get("truncated_mass", 0.0)
            for key, score in result.value:
                assert abs(score - exact[key]) <= bound + 1e-10, (
                    result.strategy, key, score, exact[key], bound
                )


class TestMultiPathProperties:
    @given(apc_graphs(), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_combination_between_components(self, graph, weight):
        """A convex combination lies between the per-path scores."""
        engine = HeteSimEngine(graph)
        source = graph.node_keys("author")[0]
        target = graph.node_keys("conference")[0]
        combined = get_measure("combined").pair(
            engine.measures,
            {"APC": weight, "APAPC": 1.0 - weight},
            source,
            target,
        )
        first = engine.relevance(source, target, "APC")
        second = engine.relevance(source, target, "APAPC")
        assert min(first, second) - 1e-12 <= combined <= max(
            first, second
        ) + 1e-12

    @given(apc_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matrix_in_unit_interval(self, graph):
        engine = HeteSimEngine(graph)
        matrix = get_measure("combined").matrix(
            engine.measures, {"APC": 1.0, "APAPC": 1.0}
        )
        assert (matrix >= -1e-12).all() and (matrix <= 1 + 1e-9).all()


class TestStoreProperties:
    @given(apc_graphs())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_preserves_matrix(self, tmp_path_factory, graph):
        from repro.core.store import MatrixStore
        from repro.hin.matrices import reachable_probability_matrix

        directory = tmp_path_factory.mktemp("store")
        store = MatrixStore(directory)
        path = graph.schema.path("APC")
        store.save(graph, [path])
        np.testing.assert_allclose(
            store.load(path).toarray(),
            reachable_probability_matrix(graph, path).toarray(),
            atol=1e-12,
        )
