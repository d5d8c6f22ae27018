"""Parallel serving semantics: determinism, limits and faults in workers.

``workers=1`` is the reference execution; everything here pins the
parallel paths to it -- identical results, identical limit trips,
identical injected-fault behaviour -- so turning concurrency up can
never change an answer.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.backend import _nbytes
from repro.core.engine import HeteSimEngine
from repro.datasets.random_hin import make_random_hin
from repro.hin.errors import (
    DeadlineExceededError,
    InjectedFaultError,
)
from repro.hin.schema import NetworkSchema
from repro.runtime.faults import (
    SITE_EXECUTOR_STEP,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.limits import ExecutionLimits, execution_scope
from repro.serve import BatchRequest, Query, QueryServer


def _schema():
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
        _schema(),
        sizes={"author": 30, "paper": 50, "conf": 6},
        edge_prob=0.1,
        seed=3,
        ensure_connected_rows=True,
    )


def _queries(hin):
    sources = hin.node_keys("author")
    return (
        [Query(s, "APC", k=4) for s in sources[:10]]
        + [Query(s, "APCPA", k=4) for s in sources[:10]]
        + [Query(s, "APCP", k=4, normalized=False) for s in sources[:5]]
    )


class TestDeterminism:
    def test_workers_1_vs_8_identical(self, hin):
        queries = _queries(hin)
        sequential = QueryServer(HeteSimEngine(hin)).run(
            BatchRequest(queries, workers=1)
        )
        parallel = QueryServer(HeteSimEngine(hin)).run(
            BatchRequest(queries, workers=8)
        )
        assert parallel.results == sequential.results

    def test_repeated_parallel_runs_identical(self, hin):
        queries = _queries(hin)
        first = QueryServer(HeteSimEngine(hin)).run(
            BatchRequest(queries, workers=8)
        )
        second = QueryServer(HeteSimEngine(hin)).run(
            BatchRequest(queries, workers=8)
        )
        assert first.results == second.results


class TestScoringThread:
    def test_groups_score_on_the_calling_thread(self, hin):
        """``workers`` fans out only the groups' ``prepare`` calls;
        every group is scored and ranked on the thread that called
        ``run``."""
        threads = []

        class RecordingServer(QueryServer):
            def _score_group(self, group, prepared):
                threads.append(threading.get_ident())
                return super()._score_group(group, prepared)

        result = RecordingServer(HeteSimEngine(hin)).run(
            BatchRequest(_queries(hin), workers=8)
        )
        assert len(threads) == result.stats.num_groups == 3
        assert set(threads) == {threading.get_ident()}


class TestLimitsInWorkers:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_zero_deadline_trips(self, hin, workers):
        server = QueryServer(HeteSimEngine(hin))
        request = BatchRequest(
            [Query("A0", "APC"), Query("A0", "APCPA")],
            workers=workers,
        )
        with pytest.raises(DeadlineExceededError):
            server.run(
                request, limits=ExecutionLimits(deadline_ms=0)
            )

    @pytest.mark.parametrize("workers", [1, 8])
    def test_ambient_scope_reaches_workers(self, hin, workers):
        server = QueryServer(HeteSimEngine(hin))
        limits = ExecutionLimits(deadline_ms=0)
        with execution_scope(tracker=limits.tracker()):
            with pytest.raises(DeadlineExceededError):
                server.run(
                    BatchRequest(
                        [Query("A0", "APC")], workers=workers
                    )
                )

    def test_generous_limits_pass(self, hin):
        server = QueryServer(HeteSimEngine(hin))
        result = server.run(
            BatchRequest([Query("A0", "APC", k=3)], workers=4),
            limits=ExecutionLimits(deadline_ms=60_000),
        )
        assert len(result.results) == 1


class TestFaultsInWorkers:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_injected_fault_trips_identically(self, hin, workers):
        # APCPA's left half is a two-factor chain, so its
        # materialisation always executes (at least) one step at the
        # instrumented site -- single-relation halves execute none.
        plan = FaultPlan(
            [FaultSpec(SITE_EXECUTOR_STEP, 0, "fail")]
        )
        server = QueryServer(HeteSimEngine(hin))
        with execution_scope(faults=plan):
            with pytest.raises(InjectedFaultError):
                server.run(
                    BatchRequest(
                        [
                            Query(s, "APCPA")
                            for s in ("A0", "A1", "A2")
                        ],
                        workers=workers,
                    )
                )
        assert plan.fired == [(SITE_EXECUTOR_STEP, 0, "fail")]

    def test_fault_free_plan_observes_worker_steps(self, hin):
        """Site counters advance inside worker threads (the plan sees
        the same executor steps a sequential run produces)."""
        sequential = FaultPlan()
        with execution_scope(faults=sequential):
            QueryServer(HeteSimEngine(hin)).run(
                BatchRequest(
                    [Query("A0", "APC"), Query("A0", "APCPA")],
                    workers=1,
                )
            )
        parallel = FaultPlan()
        with execution_scope(faults=parallel):
            QueryServer(HeteSimEngine(hin)).run(
                BatchRequest(
                    [Query("A0", "APC"), Query("A0", "APCPA")],
                    workers=8,
                )
            )
        assert parallel.occurrences(
            SITE_EXECUTOR_STEP
        ) == sequential.occurrences(SITE_EXECUTOR_STEP)


def _stress_graph():
    return make_random_hin(
        _schema(),
        sizes={"author": 30, "paper": 50, "conf": 6},
        edge_prob=0.1,
        seed=3,
        ensure_connected_rows=True,
    )


def _fingerprint(halves):
    left, right, left_norms, right_norms = halves
    return (
        left.nnz,
        right.nnz,
        float(left.sum()),
        float(right.sum()),
        float(left_norms.sum()),
        float(right_norms.sum()),
    )


class TestMutateQueryStress:
    def test_mutate_then_query_cycles_never_pair_stale_data(self):
        """8 workers in barrier-phased mutate-then-query cycles.

        Each cycle, one worker mutates the graph, then all eight race
        ``engine.halves`` against the now-quiescent graph.  Every served
        result must fingerprint identically to what a fresh engine
        computes for that cycle: the pre-fix TOCTOU (a stale memo tuple
        paired with the post-mutation signature) is exactly what the
        per-cycle equality catches, because the stale tuple belongs to
        the previous cycle's graph state.
        """
        graph = _stress_graph()
        engine = HeteSimEngine(graph)
        path = engine.path("APC")
        cycles = 12
        workers = 8
        barrier = threading.Barrier(workers)
        records = []
        references = {}
        records_lock = threading.Lock()
        failures = []

        def worker(slot):
            try:
                for cycle in range(cycles):
                    if slot == 0:
                        # Parallel edges accumulate weight, so re-adding
                        # an existing pair is a legal, version-bumping
                        # mutation.
                        graph.add_edge(
                            "writes", f"A{cycle % 30}", f"P{(7 * cycle) % 50}"
                        )
                    barrier.wait()
                    served = _fingerprint(engine.halves(path))
                    with records_lock:
                        records.append((cycle, served))
                    if slot == 0:
                        references[cycle] = _fingerprint(
                            HeteSimEngine(graph).halves(path)
                        )
                    barrier.wait()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        assert len(records) == cycles * workers
        by_cycle = {}
        for cycle, served in records:
            by_cycle.setdefault(cycle, set()).add(served)
        for cycle, fingerprints in sorted(by_cycle.items()):
            assert fingerprints == {references[cycle]}, (
                f"cycle {cycle} served {len(fingerprints)} distinct "
                f"halves -- stale data survived the mutation"
            )

    def test_free_running_storm_settles_to_fresh_state(self):
        """2 mutators and 6 queriers free-running with no phasing.

        Mid-storm results are unchecked (with mutation in flight there
        is no instant at which a signature and an adjacency read are
        guaranteed mutually consistent), but the storm must neither
        crash nor poison any cache: once quiescent, the hammered engine
        must serve exactly what a fresh engine computes.
        """
        graph = _stress_graph()
        engine = HeteSimEngine(graph)
        path = engine.path("APC")
        start = threading.Barrier(8)
        failures = []

        def mutator(slot):
            try:
                start.wait()
                for step in range(25):
                    graph.add_edge(
                        "writes", f"A{(slot * 25 + step) % 30}", f"P{step % 50}"
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        def querier():
            try:
                start.wait()
                for _ in range(40):
                    engine.halves(path)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=mutator, args=(slot,))
            for slot in range(2)
        ] + [threading.Thread(target=querier) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        final = _fingerprint(engine.halves(path))
        assert final == _fingerprint(
            HeteSimEngine(graph).halves(path)
        )


class TestSingleFlightHalves:
    def test_concurrent_same_path_materialises_once(self, hin):
        engine = HeteSimEngine(hin)
        path = engine.path("APCPA")
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(slot):
            barrier.wait()
            results[slot] = engine.halves(path)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert engine.materialisation_count == 1
        assert all(result is results[0] for result in results)

    def test_distinct_paths_not_serialised_by_memo(self, hin):
        """Distinct paths may materialise concurrently and still land
        correct entries (exercises the cache's locking)."""
        engine = HeteSimEngine(hin)
        specs = ["APC", "APCPA", "APCP", "AP"]
        metas = [engine.path(spec) for spec in specs]
        threads = [
            threading.Thread(target=engine.halves, args=(meta,))
            for meta in metas
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for meta in metas:
            assert engine.has_halves(meta)
        reference = HeteSimEngine(hin)
        for meta, spec in zip(metas, specs):
            left, right, _, _ = engine.halves(meta)
            ref_left, ref_right, _, _ = reference.halves(
                reference.path(spec)
            )
            np.testing.assert_array_equal(
                left.toarray(), ref_left.toarray()
            )
            np.testing.assert_array_equal(
                right.toarray(), ref_right.toarray()
            )


class TestOneBuildPerKey:
    """Threads racing on one cold path build each derived matrix once,
    whichever entry point they come through: the cache single-flights
    ``PM`` matrices, path counts, scoring forms and the walk operator
    alike."""

    THREADS = 4

    def _race(self, call):
        barrier = threading.Barrier(self.THREADS)
        results = [None] * self.THREADS
        failures = []

        def worker(slot):
            try:
                barrier.wait()
                results[slot] = call()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert all(result is results[0] for result in results)

    def test_reach_prob(self, hin):
        engine = HeteSimEngine(hin)
        path = engine.path("APCPA")
        self._race(lambda: engine.cache.reach_prob(path))
        assert engine.cache.misses == 1
        assert engine.cache.hits == self.THREADS - 1

    def test_path_counts(self, hin):
        engine = HeteSimEngine(hin)
        path = engine.path("APCPA")
        self._race(lambda: engine.cache.path_counts(path)[0])
        assert engine.cache.misses == 1

    def test_engine_halves(self, hin):
        engine = HeteSimEngine(hin)
        path = engine.path("APCPA")
        self._race(lambda: engine.halves(path))
        assert engine.materialisation_count == 1

    def test_global_walk(self, hin, monkeypatch):
        from repro.baselines import globalgraph

        builds = []
        original = globalgraph.build_global_index

        def counting(graph):
            builds.append(1)
            return original(graph)

        monkeypatch.setattr(globalgraph, "build_global_index", counting)
        engine = HeteSimEngine(hin)
        self._race(lambda: engine.measures.global_walk()[1])
        assert len(builds) == 1


class TestBudgetedMemoStress:
    SPECS = ("APC", "APCPA", "CPAPC", "APCP", "APA", "APAPC", "CPA")

    def test_concurrent_flood_keeps_every_form_accounted(self, hin):
        """8 threads (more than the cores) flood a budgeted engine with
        distinct paths while a short switch interval makes them
        interleave inside stores and evictions.  A lost update would
        leave the cache's byte total out of step with what it holds;
        afterwards the total must equal the bytes of the held entries,
        the cache must be within budget, and every answer must equal
        an unbudgeted engine's."""

        def source(spec):
            return "C0" if spec.startswith("C") else "A0"

        reference = HeteSimEngine(hin)
        expected = {
            spec: reference.top_k(source(spec), spec, k=4)
            for spec in self.SPECS
        }
        budget = reference.cache.nbytes // 3
        engine = HeteSimEngine(hin, byte_budget=budget)
        answers = []
        failures = []
        start = threading.Barrier(8)

        def worker(slot):
            try:
                start.wait()
                for step in range(20):
                    spec = self.SPECS[(slot + step) % len(self.SPECS)]
                    answers.append(
                        (spec, engine.top_k(source(spec), spec, k=4))
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(answers) == 8 * 20
        for spec, ranking in answers:
            assert ranking == expected[spec], spec
        assert engine.cache.evictions > 0
        assert engine.cache.nbytes <= budget
        held = list(engine.cache._entries.values())
        assert engine.cache.nbytes == sum(_nbytes(entry) for _, entry, _ in held)
