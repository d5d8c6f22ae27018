"""Dispatcher and SingleFlight unit tests.

The properties the batch layer builds on: ordered results, ambient
execution-context propagation into worker threads, exception
propagation, and one-computation-per-key under concurrency.  Also the
host CPU count that worker counts are compared against.
"""

from __future__ import annotations

import threading

import pytest

from repro.hin.errors import QueryError
from repro.runtime.limits import current_context, execution_scope
from repro.serve import Dispatcher, SingleFlight, usable_cpus


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


class TestSingleFlight:
    def test_sequential_calls_compute_each_time(self):
        flight = SingleFlight()
        calls = []
        for _ in range(3):
            flight.do("key", lambda: calls.append(1))
        assert len(calls) == 3

    def test_concurrent_calls_share_one_computation(self):
        flight = SingleFlight()
        calls = []
        release = threading.Event()
        started = threading.Event()

        def slow():
            calls.append(1)
            started.set()
            release.wait(timeout=5)
            return "value"

        results = {}

        def leader():
            results["leader"] = flight.do("key", slow)

        def follower():
            started.wait(timeout=5)
            results["follower"] = flight.do(
                "key", lambda: pytest.fail("follower computed")
            )

        threads = [
            threading.Thread(target=leader),
            threading.Thread(target=follower),
        ]
        for thread in threads:
            thread.start()
        started.wait(timeout=5)
        # Give the follower a moment to block on the in-flight future.
        import time

        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert calls == [1]
        assert results["leader"] == results["follower"] == "value"

    def test_exception_shared_with_waiters(self):
        flight = SingleFlight()

        def failing():
            raise RuntimeError("shared failure")

        with pytest.raises(RuntimeError, match="shared failure"):
            flight.do("key", failing)
        # The key is released: a later call computes fresh.
        assert flight.do("key", lambda: 42) == 42

    def test_distinct_keys_do_not_block(self):
        flight = SingleFlight()
        assert flight.do("a", lambda: 1) == 1
        assert flight.do("b", lambda: 2) == 2


class TestSingleFlightTimeout:
    """Regression: a leader that dies without resolving its future must
    not park followers forever -- a bounded wait re-elects a leader."""

    def test_follower_reelects_after_dead_leader(self):
        flight = SingleFlight()
        from concurrent.futures import Future

        stale = Future()  # a leader registered this, then died
        with flight._lock:
            flight._inflight["key"] = stale
        assert flight.do("key", lambda: "fresh", timeout=0.05) == "fresh"
        # The stale future was evicted; the key is free again.
        assert "key" not in flight._inflight

    def test_timeout_unused_when_leader_resolves_in_time(self):
        flight = SingleFlight()
        started = threading.Event()
        release = threading.Event()
        results = {}

        def slow():
            started.set()
            release.wait(timeout=5)
            return "value"

        leader = threading.Thread(
            target=lambda: results.update(leader=flight.do("key", slow))
        )
        leader.start()
        started.wait(timeout=5)
        follower = threading.Thread(
            target=lambda: results.update(
                follower=flight.do(
                    "key",
                    lambda: pytest.fail("follower computed"),
                    timeout=5.0,
                )
            )
        )
        follower.start()
        release.set()
        leader.join(timeout=5)
        follower.join(timeout=5)
        assert results == {"leader": "value", "follower": "value"}

    def test_timeout_does_not_evict_a_successor(self):
        flight = SingleFlight()
        from concurrent.futures import Future

        stale = Future()
        with flight._lock:
            flight._inflight["key"] = stale

        follower_done = threading.Event()
        results = {}

        def follower():
            results["value"] = flight.do(
                "key", lambda: "reelected", timeout=0.05
            )
            follower_done.set()

        thread = threading.Thread(target=follower)
        thread.start()
        follower_done.wait(timeout=5)
        thread.join(timeout=5)
        assert results["value"] == "reelected"
        # Resolving the stale future later is harmless.
        stale.set_result("late")
        assert flight.do("key", lambda: "next") == "next"
