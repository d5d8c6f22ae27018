"""Dispatcher unit tests.

The properties the batch layer builds on: ordered results, ambient
execution-context propagation into worker threads, and exception
propagation.  Also the host CPU count that worker counts are compared
against.  One build per key under concurrency is the cache's job
(``tests/core/test_cache.py::TestGetOrBuild``).
"""

from __future__ import annotations

import threading

import pytest

from repro.hin.errors import QueryError
from repro.runtime.limits import current_context, execution_scope
from repro.serve import Dispatcher, usable_cpus


def test_usable_cpus_positive():
    assert usable_cpus() >= 1


class TestDispatcher:
    def test_rejects_bad_workers(self):
        with pytest.raises(QueryError):
            Dispatcher(0)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_map_preserves_order(self, workers):
        items = list(range(20))
        assert Dispatcher(workers).map(
            lambda item: item * item, items
        ) == [item * item for item in items]

    def test_map_empty(self):
        assert Dispatcher(4).map(lambda item: item, []) == []

    def test_context_propagates_into_workers(self):
        seen = []

        def task(_):
            seen.append(current_context())
            return threading.current_thread().name

        with execution_scope() as context:
            names = Dispatcher(4).map(task, range(8))
        assert all(ctx is context for ctx in seen)
        # The pool really ran tasks off the calling thread.
        assert any(
            name != threading.main_thread().name for name in names
        )

    def test_no_ambient_context_is_fine(self):
        def task(_):
            return current_context()

        assert Dispatcher(4).map(task, range(4)) == [None] * 4

    def test_exception_propagates(self):
        def task(item):
            if item == 3:
                raise ValueError("boom")
            return item

        with pytest.raises(ValueError, match="boom"):
            Dispatcher(4).map(task, range(8))
