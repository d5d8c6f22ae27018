"""The ambient execution scope and its one thread fan-out.

``repro.core.scope`` is the one definition of the scope that limits,
fault plans and truncation travel in; ``repro.runtime`` re-exports it.
The properties pinned here: :func:`fan_out` keeps order, carries the
calling thread's context and span into its workers and propagates
exceptions; and every re-exported name *is* the core object, because
a second ``ContextVar`` would let a scope installed through one name
go unseen by the enforcement points reading the other.
"""

from __future__ import annotations

import threading

import pytest

import repro.runtime
from repro.core import scope
from repro.core.backend import materialise
from repro.core.scope import current_context, execution_scope, fan_out
from repro.hin.errors import DeadlineExceededError, QueryError
from repro.obs.trace import Tracer


class TestFanOut:
    def test_rejects_bad_workers(self):
        with pytest.raises(QueryError):
            fan_out(lambda item: item, [], 0)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_map_preserves_order(self, workers):
        items = list(range(20))
        assert fan_out(lambda item: item * item, items, workers) == [
            item * item for item in items
        ]

    def test_map_empty(self):
        assert fan_out(lambda item: item, [], 4) == []

    def test_context_propagates_into_workers(self):
        seen = []

        def task(_):
            seen.append(current_context())
            return threading.current_thread().name

        with execution_scope() as context:
            names = fan_out(task, range(8), 4)
        assert all(ctx is context for ctx in seen)
        # The pool really ran tasks off the calling thread.
        assert any(
            name != threading.main_thread().name for name in names
        )

    def test_no_ambient_context_is_fine(self):
        def task(_):
            return current_context()

        assert fan_out(task, range(4), 4) == [None] * 4

    def test_exception_propagates(self):
        def task(item):
            if item == 3:
                raise ValueError("boom")
            return item

        with pytest.raises(ValueError, match="boom"):
            fan_out(task, range(8), 4)

    def test_attaches_worker_spans_to_submitting_tree(self):
        # The RPR005 discipline, applied to spans: fan_out captures
        # current_span() in the calling thread and adopts it inside
        # every pooled worker, so spans started on worker threads nest
        # under the submitting request's tree.
        tracer = Tracer(enabled=True)

        def task(item):
            with tracer.span("worker", item=item):
                return item

        with tracer.span("request") as root:
            fan_out(task, list(range(8)), 4)
        assert sorted(
            child.attributes["item"] for child in root.children
        ) == list(range(8))
        assert all(child.name == "worker" for child in root.children)
        # Worker spans were adopted as children, never retained as
        # roots of their own.
        assert tracer.roots == [root]


class TestOneDefinition:
    @pytest.mark.parametrize(
        "name",
        [
            "execution_scope",
            "current_context",
            "adopt_context",
            "ExecutionContext",
            "ambient_faults",
            "SITE_EXECUTOR_STEP",
            "SITE_STORE_READ",
            "SITE_STORE_WRITE",
        ],
    )
    def test_runtime_reexports_the_core_object(self, name):
        assert getattr(repro.runtime, name) is getattr(scope, name)

    def test_runtime_scope_trips_core_materialise(self, fig4):
        limits = repro.runtime.ExecutionLimits(deadline_ms=0)
        path = fig4.schema.path("APCPA")
        with repro.runtime.execution_scope(tracker=limits.tracker()):
            with pytest.raises(DeadlineExceededError):
                materialise(fig4, path)
