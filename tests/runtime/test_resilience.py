"""Tests for the degradation policy chain (ResilientRuntime).

All breach scenarios are deterministic: ``deadline_ms=0`` trips on the
first cooperative check of a cold engine, and one-byte budgets trip on
the first charge.  Warm caches legitimately skip enforcement (a fully
cached query does no bounded work), so every test builds a cold engine.
"""

import dataclasses

import pytest

from repro.core.engine import HeteSimEngine
from repro.hin.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    QueryError,
)
from repro.runtime.limits import ExecutionLimits, execution_scope
from repro.runtime.resilience import (
    DEFAULT_POLICY,
    DegradedResult,
    ResilientRuntime,
    Strategy,
)

PAIR = ("Tom", "KDD", "APC")
LONG_PATH = "APCPA"


class TestConstruction:
    def test_accepts_engine_and_graph(self, fig4):
        engine = HeteSimEngine(fig4)
        assert ResilientRuntime(engine).engine is engine
        assert ResilientRuntime(fig4).graph is fig4

    def test_rejects_other_inputs(self):
        with pytest.raises(QueryError):
            ResilientRuntime("not a graph")

    def test_rejects_bad_on_limit(self, fig4):
        with pytest.raises(QueryError):
            ResilientRuntime(fig4, on_limit="retry")

    def test_rejects_empty_policy(self, fig4):
        with pytest.raises(QueryError):
            ResilientRuntime(fig4, policy=())

    def test_degrade_mode_requires_unenforced_floor(self, fig4):
        with pytest.raises(QueryError):
            ResilientRuntime(
                fig4,
                limits=ExecutionLimits(deadline_ms=10),
                policy=(Strategy("exact"),),
            )

    def test_fail_mode_allows_fully_enforced_policy(self, fig4):
        runtime = ResilientRuntime(
            fig4,
            limits=ExecutionLimits(deadline_ms=10),
            on_limit="fail",
            policy=(Strategy("exact"),),
        )
        assert runtime.policy == (Strategy("exact"),)

    def test_engine_runtime_factory(self, fig4):
        engine = HeteSimEngine(fig4)
        runtime = engine.runtime(ExecutionLimits(deadline_ms=10))
        assert isinstance(runtime, ResilientRuntime)
        assert runtime.engine is engine


class TestUnlimited:
    def test_relevance_matches_engine_exactly(self, fig4):
        engine = HeteSimEngine(fig4)
        expected = engine.relevance(*PAIR)
        result = ResilientRuntime(HeteSimEngine(fig4)).relevance(*PAIR)
        assert isinstance(result, DegradedResult)
        assert result.value == pytest.approx(expected)
        assert result.strategy == "exact"
        assert not result.degraded
        assert result.tripped is None
        assert [a.strategy for a in result.attempts] == ["exact"]
        assert result.summary() == "exact (no limits tripped)"

    def test_top_k_matches_engine_exactly(self, fig4):
        expected = HeteSimEngine(fig4).top_k("Tom", "APC", k=3)
        result = ResilientRuntime(HeteSimEngine(fig4)).top_k(
            "Tom", "APC", k=3
        )
        assert result.value == expected
        assert not result.degraded

    def test_top_k_clamps_nonpositive_k(self, fig4):
        result = ResilientRuntime(fig4).top_k("Tom", "APC", k=0)
        assert result.value == []
        assert result.strategy == "exact"
        assert not result.degraded

    def test_unknown_object_raises_query_error(self, fig4):
        with pytest.raises(QueryError):
            ResilientRuntime(fig4).relevance("Nobody", "KDD", "APC")


class TestDeadlineDegradation:
    def test_zero_deadline_degrades_and_names_limit(self, fig4):
        runtime = ResilientRuntime(
            HeteSimEngine(fig4), limits=ExecutionLimits(deadline_ms=0)
        )
        result = runtime.relevance(*PAIR)
        assert result.degraded
        assert result.tripped == "deadline"
        assert result.attempts[0].strategy == "exact"
        assert result.attempts[0].tripped == "deadline"
        assert result.attempts[0].error == "DeadlineExceededError"
        assert not result.attempts[0].succeeded
        assert result.attempts[-1].succeeded
        # The unenforced floor answers; the answer is an approximation,
        # but it is a valid normalized relevance.
        assert result.strategy == "truncate-final"
        assert 0.0 <= result.value <= 1.0 + 1e-9
        assert "degraded: tripped deadline" in result.summary()

    def test_lossless_floor_preserves_the_exact_value(self, fig4):
        """A truncation floor with a negligible eps reproduces the exact
        answer, so degradation provenance and accuracy can both hold."""
        exact = HeteSimEngine(fig4).relevance(*PAIR)
        runtime = ResilientRuntime(
            HeteSimEngine(fig4),
            limits=ExecutionLimits(deadline_ms=0),
            policy=(
                Strategy("exact"),
                Strategy("floor", truncate_eps=1e-12, enforced=False),
            ),
        )
        result = runtime.relevance(*PAIR)
        assert result.degraded
        assert result.strategy == "floor"
        assert result.tripped == "deadline"
        assert result.value == pytest.approx(exact, abs=1e-9)

    def test_zero_deadline_fail_mode_raises_typed_error(self, fig4):
        runtime = ResilientRuntime(
            HeteSimEngine(fig4),
            limits=ExecutionLimits(deadline_ms=0),
            on_limit="fail",
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            runtime.relevance(*PAIR)
        assert excinfo.value.limit == "deadline"


class TestBudgetDegradation:
    def test_one_byte_budget_degrades_top_k(self, fig4):
        runtime = ResilientRuntime(
            HeteSimEngine(fig4), limits=ExecutionLimits(max_bytes=1)
        )
        result = runtime.top_k("Tom", LONG_PATH, k=3)
        assert result.degraded
        assert result.tripped == "max_bytes"
        assert result.attempts[0].strategy == "exact"
        assert result.attempts[0].error == "BudgetExceededError"
        # The fallback still produces a well-formed descending ranking
        # over the path's target type.
        authors = set(fig4.node_keys("author"))
        assert len(result.value) == 3
        assert all(key in authors for key, _ in result.value)
        scores = [score for _, score in result.value]
        assert scores == sorted(scores, reverse=True)

    def test_lossless_floor_preserves_the_exact_ranking(self, fig4):
        expected = HeteSimEngine(fig4).top_k("Tom", LONG_PATH, k=3)
        runtime = ResilientRuntime(
            HeteSimEngine(fig4),
            limits=ExecutionLimits(max_bytes=1),
            policy=(
                Strategy("exact"),
                Strategy("floor", truncate_eps=1e-12, enforced=False),
            ),
        )
        result = runtime.top_k("Tom", LONG_PATH, k=3)
        assert result.degraded
        assert result.strategy == "floor"
        assert [key for key, _ in result.value] == [
            key for key, _ in expected
        ]
        for (_, got), (_, want) in zip(result.value, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_one_byte_budget_fail_mode_raises_typed_error(self, fig4):
        runtime = ResilientRuntime(
            HeteSimEngine(fig4),
            limits=ExecutionLimits(max_bytes=1),
            on_limit="fail",
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            runtime.relevance("Tom", "Tom", LONG_PATH)
        assert excinfo.value.limit == "max_bytes"
        assert excinfo.value.allowed == 1


class TestHalvesWithoutChainProduct:
    """Halves that need no chain product -- single factors (APC's AP
    and CP) or the edge-object split (AP, PC) -- are still bounded:
    the scoring form checks the deadline and is charged its bytes."""

    def test_one_byte_budget_trips_single_factor_halves(self, fig4):
        result = HeteSimEngine(fig4).runtime(
            ExecutionLimits(max_bytes=1)
        ).top_k("Tom", "APC")
        assert result.degraded
        assert result.tripped == "max_bytes"
        assert result.strategy == "truncate-final"

    @pytest.mark.parametrize(
        "source, path", [("Tom", "AP"), ("p1", "PC")]
    )
    def test_zero_deadline_trips_edge_object_halves(
        self, fig4, source, path
    ):
        result = HeteSimEngine(fig4).runtime(
            ExecutionLimits(deadline_ms=0)
        ).top_k(source, path)
        assert result.degraded
        assert result.tripped == "deadline"
        assert result.strategy == "truncate-final"


class TestAccuracyMetadata:
    def test_truncation_floor_reports_truncated_mass(self, fig4):
        policy = (
            Strategy("exact"),
            # eps > 1 drops every entry: the dropped mass is certainly
            # positive without depending on the toy network's values.
            Strategy("floor", truncate_eps=1.5, enforced=False),
        )
        runtime = ResilientRuntime(
            HeteSimEngine(fig4),
            limits=ExecutionLimits(max_bytes=1),
            policy=policy,
        )
        result = runtime.relevance("Tom", "Tom", LONG_PATH)
        assert result.strategy == "floor"
        assert result.tripped == "max_bytes"
        assert "truncated_mass" in result.accuracy
        assert result.accuracy["truncated_mass"] > 0.0

    def test_pruning_floor_reports_dropped_forward_mass(self, fig4):
        policy = (
            Strategy("exact"),
            Strategy(
                "floor", truncate_eps=1e-9, prune_mass=0.3, enforced=False
            ),
        )
        runtime = ResilientRuntime(
            HeteSimEngine(fig4),
            limits=ExecutionLimits(max_bytes=1),
            policy=policy,
        )
        result = runtime.top_k("Tom", LONG_PATH, k=3)
        assert result.strategy == "floor"
        assert "dropped_forward_mass" in result.accuracy

    def test_summary_renders_attempt_chain(self, fig4):
        runtime = ResilientRuntime(
            HeteSimEngine(fig4), limits=ExecutionLimits(max_bytes=1)
        )
        result = runtime.top_k("Tom", LONG_PATH, k=2)
        summary = result.summary()
        assert "exact[max_bytes]" in summary
        assert result.strategy in summary


class TestPolicyShape:
    def test_default_policy_starts_exact_ends_unenforced(self):
        assert DEFAULT_POLICY[0].name == "exact"
        assert DEFAULT_POLICY[0].enforced
        assert not DEFAULT_POLICY[-1].enforced

    def test_every_rung_is_a_hetesim_rung(self):
        """The ladder's rungs differ only in truncation, pruning and
        enforcement: each one scores the one HeteSim prepared state."""
        assert [s.name for s in DEFAULT_POLICY] == [
            "exact", "truncate", "prune", "truncate-final",
        ]
        assert [f.name for f in dataclasses.fields(Strategy)] == [
            "name", "truncate_eps", "prune_mass", "enforced",
        ]
        with pytest.raises(TypeError):
            Strategy("lr", kind="lowrank", rank=4, enforced=False)

    def test_every_attempt_recorded_in_order(self, fig4):
        runtime = ResilientRuntime(
            HeteSimEngine(fig4), limits=ExecutionLimits(deadline_ms=0)
        )
        result = runtime.relevance(*PAIR)
        names = [attempt.strategy for attempt in result.attempts]
        expected_prefix = [s.name for s in DEFAULT_POLICY[: len(names)]]
        assert names == expected_prefix
        assert all(a.elapsed_ms >= 0 for a in result.attempts)


class TestTruncatedProductsNeverStored:
    """A cold query computed under a truncation scope (a degraded rung,
    or the HTTP batch floor) must not leave truncated halves in the
    engine memo or the path cache: every later exact query would serve
    them and the ladder would label the answer ``exact``.

    On the toy network ``CPAPC`` at ``truncate_eps=0.3`` drops half the
    mass, which zeroes KDD->SIGMOD (exactly 0.1)."""

    SPEC = "CPAPC"

    def exact(self, graph):
        return HeteSimEngine(graph).top_k("KDD", self.SPEC, k=2)

    def test_engine_query_under_truncation(self, fig4):
        engine = HeteSimEngine(fig4)
        with execution_scope(truncate_eps=0.3) as context:
            truncated = engine.top_k("KDD", self.SPEC, k=2)
        assert context.truncated_mass == pytest.approx(0.5)
        assert truncated != self.exact(fig4)
        assert not engine.has_halves(engine.path(self.SPEC))
        assert engine.top_k("KDD", self.SPEC, k=2) == self.exact(fig4)
        result = engine.runtime().top_k("KDD", self.SPEC, k=2)
        assert (result.strategy, result.degraded) == ("exact", False)
        assert result.value == self.exact(fig4)

    def test_batch_rerun_under_truncation_floor(self, fig4):
        from repro.serve.batch import BatchRequest, Query, QueryServer

        engine = HeteSimEngine(fig4)
        request = BatchRequest([Query("KDD", self.SPEC, k=2)])
        with execution_scope(truncate_eps=0.3):
            QueryServer(engine).run(request)
        ranking = QueryServer(engine).run(request).results[0].ranking
        assert list(ranking) == self.exact(fig4)

    def test_cache_neither_stores_nor_seeds(self, fig4):
        from repro.core.cache import PathMatrixCache

        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("CPAPC")
        with execution_scope(truncate_eps=0.3):
            cache.reach_prob(path)
        assert cache.num_cached == 0
        fresh = PathMatrixCache(fig4).reach_prob(path)
        assert (cache.reach_prob(path) != fresh).nnz == 0
