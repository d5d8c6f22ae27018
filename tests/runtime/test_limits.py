"""Unit tests for ExecutionLimits / LimitTracker / execution scopes.

The tracker is driven with a fake clock so every deadline assertion is
deterministic; the backend-integration tests use a cold engine (warm
caches legitimately skip enforcement because no bounded work happens).
"""

import pytest

from repro.core.backend import materialise
from repro.hin.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    QueryError,
)
from repro.runtime.limits import (
    ExecutionLimits,
    current_context,
    execution_scope,
)


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestExecutionLimits:
    def test_defaults_are_unlimited(self):
        assert ExecutionLimits().unlimited

    def test_any_field_clears_unlimited(self):
        assert not ExecutionLimits(deadline_ms=10).unlimited
        assert not ExecutionLimits(max_nnz=10).unlimited
        assert not ExecutionLimits(max_bytes=10).unlimited
        assert not ExecutionLimits(max_densified_cells=10).unlimited

    @pytest.mark.parametrize(
        "field", ["deadline_ms", "max_nnz", "max_bytes", "max_densified_cells"]
    )
    def test_negative_values_rejected(self, field):
        with pytest.raises(QueryError):
            ExecutionLimits(**{field: -1})

    def test_zero_deadline_is_legal(self):
        assert ExecutionLimits(deadline_ms=0).deadline_ms == 0


class TestLimitTracker:
    def test_deadline_trips_once_elapsed(self):
        clock = FakeClock()
        tracker = ExecutionLimits(deadline_ms=50).tracker(clock=clock)
        tracker.check_deadline()  # 0 ms elapsed: fine
        clock.advance(0.049)
        tracker.check_deadline()  # 49 ms: still fine
        clock.advance(0.002)
        with pytest.raises(DeadlineExceededError) as excinfo:
            tracker.check_deadline()
        assert excinfo.value.limit == "deadline"
        assert excinfo.value.observed == pytest.approx(51.0)
        assert excinfo.value.allowed == 50

    def test_no_deadline_never_trips(self):
        clock = FakeClock()
        tracker = ExecutionLimits(max_nnz=10).tracker(clock=clock)
        clock.advance(1e6)
        tracker.check_deadline()  # no deadline configured

    def test_nnz_budget_is_cumulative(self):
        tracker = ExecutionLimits(max_nnz=100).tracker()
        tracker.charge(nnz=60, nbytes=0)
        with pytest.raises(BudgetExceededError) as excinfo:
            tracker.charge(nnz=41, nbytes=0)
        assert excinfo.value.limit == "max_nnz"
        assert excinfo.value.observed == 101
        assert excinfo.value.allowed == 100

    def test_byte_budget_is_cumulative(self):
        tracker = ExecutionLimits(max_bytes=1000).tracker()
        tracker.charge(nnz=0, nbytes=999)
        tracker.charge(nnz=0, nbytes=1)  # exactly at the cap: fine
        with pytest.raises(BudgetExceededError) as excinfo:
            tracker.charge(nnz=0, nbytes=1)
        assert excinfo.value.limit == "max_bytes"

    def test_densify_veto(self):
        tracker = ExecutionLimits(max_densified_cells=10_000).tracker()
        tracker.check_densify(10_000)  # at the cap: fine
        with pytest.raises(BudgetExceededError) as excinfo:
            tracker.check_densify(10_001)
        assert excinfo.value.limit == "max_densified_cells"

    def test_counters_accumulate(self):
        tracker = ExecutionLimits().tracker()
        tracker.charge(nnz=3, nbytes=24)
        tracker.charge(nnz=5, nbytes=40)
        assert tracker.nnz_charged == 8
        assert tracker.bytes_charged == 64
        assert tracker.steps_executed == 2


class TestExecutionScope:
    def test_no_ambient_context_by_default(self):
        assert current_context() is None

    def test_scope_installs_and_restores(self):
        tracker = ExecutionLimits(max_nnz=5).tracker()
        with execution_scope(tracker=tracker) as context:
            assert current_context() is context
            assert context.tracker is tracker
        assert current_context() is None

    def test_scopes_nest(self):
        outer_tracker = ExecutionLimits(max_nnz=1).tracker()
        inner_tracker = ExecutionLimits(max_nnz=2).tracker()
        with execution_scope(tracker=outer_tracker) as outer:
            with execution_scope(tracker=inner_tracker) as inner:
                assert current_context() is inner
            assert current_context() is outer

    def test_scope_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with execution_scope():
                raise RuntimeError("boom")
        assert current_context() is None

    def test_negative_truncate_eps_rejected(self):
        with pytest.raises(QueryError):
            with execution_scope(truncate_eps=-0.1):
                pass  # pragma: no cover


class TestBackendEnforcement:
    def test_tiny_nnz_budget_trips_materialise(self, fig4):
        path = fig4.schema.path("APCPA")
        tracker = ExecutionLimits(max_nnz=1).tracker()
        with execution_scope(tracker=tracker):
            with pytest.raises(BudgetExceededError) as excinfo:
                materialise(fig4, path)
        assert excinfo.value.limit == "max_nnz"

    def test_tiny_byte_budget_trips_materialise(self, fig4):
        path = fig4.schema.path("APCPA")
        tracker = ExecutionLimits(max_bytes=1).tracker()
        with execution_scope(tracker=tracker):
            with pytest.raises(BudgetExceededError):
                materialise(fig4, path)

    def test_zero_deadline_trips_materialise(self, fig4):
        path = fig4.schema.path("APC")
        tracker = ExecutionLimits(deadline_ms=0).tracker()
        with execution_scope(tracker=tracker):
            with pytest.raises(DeadlineExceededError):
                materialise(fig4, path)

    def test_generous_limits_leave_result_identical(self, fig4):
        path = fig4.schema.path("APCPA")
        plain = materialise(fig4, path)
        tracker = ExecutionLimits(
            deadline_ms=60_000, max_nnz=10**9, max_bytes=10**12
        ).tracker()
        with execution_scope(tracker=tracker):
            bounded = materialise(fig4, path)
        assert (plain != bounded).nnz == 0
        assert tracker.steps_executed > 0
        assert tracker.nnz_charged > 0
        assert tracker.bytes_charged > 0

    def test_truncation_accumulates_dropped_mass(self, fig4):
        path = fig4.schema.path("APCPA")
        exact = materialise(fig4, path)
        # eps > 1 drops every entry of the first product, so the dropped
        # mass is positive regardless of the toy network's values.
        with execution_scope(truncate_eps=1.5) as context:
            truncated = materialise(fig4, path)
        assert context.truncated_mass > 0.0
        assert truncated.nnz < exact.nnz


class TestIntersect:
    def test_none_other_returns_self(self):
        limits = ExecutionLimits(deadline_ms=10)
        assert limits.intersect(None) is limits

    def test_strictest_value_wins_per_field(self):
        mine = ExecutionLimits(deadline_ms=10, max_nnz=100)
        theirs = ExecutionLimits(deadline_ms=50, max_nnz=20)
        merged = mine.intersect(theirs)
        assert merged.deadline_ms == 10
        assert merged.max_nnz == 20

    def test_disjoint_fields_union(self):
        mine = ExecutionLimits(deadline_ms=10)
        theirs = ExecutionLimits(max_bytes=4096, max_densified_cells=9)
        merged = mine.intersect(theirs)
        assert merged.deadline_ms == 10
        assert merged.max_bytes == 4096
        assert merged.max_densified_cells == 9
        assert merged.max_nnz is None

    def test_unlimited_intersect_unlimited(self):
        assert ExecutionLimits().intersect(ExecutionLimits()).unlimited
