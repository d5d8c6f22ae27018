"""Unit tests for the path-matrix materialisation cache."""

import threading
import time

import numpy as np
import pytest

from repro.core.cache import PathMatrixCache
from repro.hin.matrices import reachable_probability_matrix
from repro.runtime.limits import execution_scope


class TestPathMatrixCache:
    def test_result_matches_direct_computation(self, fig4):
        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("APC")
        np.testing.assert_allclose(
            cache.reach_prob(path).toarray(),
            reachable_probability_matrix(fig4, path).toarray(),
        )

    def test_second_request_is_a_hit(self, fig4):
        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("APC")
        cache.reach_prob(path)
        assert cache.hits == 0
        cache.reach_prob(path)
        assert cache.hits == 1

    def test_prefixes_are_cached(self, fig4):
        cache = PathMatrixCache(fig4)
        cache.reach_prob(fig4.schema.path("APC"))
        # The AP prefix should now be materialised.
        assert cache.contains(fig4.schema.path("AP"))

    def test_prefix_reuse(self, fig4):
        cache = PathMatrixCache(fig4)
        cache.reach_prob(fig4.schema.path("AP"))
        cached_count = cache.num_cached
        longer = cache.reach_prob(fig4.schema.path("APC"))
        np.testing.assert_allclose(
            longer.toarray(),
            reachable_probability_matrix(
                fig4, fig4.schema.path("APC")
            ).toarray(),
        )
        assert cache.num_cached > cached_count

    def test_put_and_contains(self, fig4):
        cache = PathMatrixCache(fig4)
        path = fig4.schema.path("AP")
        matrix = reachable_probability_matrix(fig4, path)
        cache.put(path, matrix)
        assert cache.contains(path)
        np.testing.assert_allclose(
            cache.reach_prob(path).toarray(), matrix.toarray()
        )
        assert cache.hits == 1

    def test_clear(self, fig4):
        cache = PathMatrixCache(fig4)
        cache.reach_prob(fig4.schema.path("APC"))
        cache.clear()
        assert cache.num_cached == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_distinct_paths_dont_collide(self, fig4):
        cache = PathMatrixCache(fig4)
        apa = cache.reach_prob(fig4.schema.path("APA"))
        apc = cache.reach_prob(fig4.schema.path("APC"))
        assert apa.shape != apc.shape

    def test_reverse_path_is_distinct_entry(self, fig4):
        cache = PathMatrixCache(fig4)
        cache.reach_prob(fig4.schema.path("APC"))
        assert not cache.contains(fig4.schema.path("CPA"))

    def test_nbytes_accounting(self, fig4):
        cache = PathMatrixCache(fig4)
        assert cache.nbytes == 0
        cache.reach_prob(fig4.schema.path("APC"))
        populated = cache.nbytes
        assert populated > 0
        cache.clear()
        assert cache.nbytes == 0

    def test_selective_invalidation_by_relation(self, fig4):
        """Mutating one relation leaves other relations' entries fresh."""
        cache = PathMatrixCache(fig4)
        pc = fig4.schema.path("PC")    # published_in only
        ap = fig4.schema.path("AP")    # writes only
        cache.reach_prob(pc)
        cache.reach_prob(ap)
        # Mutate writes between existing nodes: PC stays fresh, AP stale.
        fig4.add_edge("writes", "Tom", "p3")
        assert cache.contains(pc)
        assert not cache.contains(ap)
        cache.reach_prob(pc)
        assert cache.hits == 1  # served from cache

    def test_stale_entry_recomputed_correctly(self, fig4):
        import numpy as np
        from repro.hin.matrices import reachable_probability_matrix

        cache = PathMatrixCache(fig4)
        ap = fig4.schema.path("AP")
        cache.reach_prob(ap)
        fig4.add_edge("writes", "Tom", "p4")
        refreshed = cache.reach_prob(ap)
        np.testing.assert_allclose(
            refreshed.toarray(),
            reachable_probability_matrix(fig4, ap).toarray(),
        )

    def test_stats_snapshot(self, fig4):
        cache = PathMatrixCache(fig4, byte_budget=1 << 20)
        cache.reach_prob(fig4.schema.path("APC"))
        stats = cache.stats()
        assert stats.num_cached == cache.num_cached
        assert stats.nbytes == cache.nbytes
        assert stats.byte_budget == 1 << 20
        assert stats.misses >= 1
        assert "cache:" in stats.summary()

    def test_lookup_is_fresh_only_and_uncounted(self, fig4):
        cache = PathMatrixCache(fig4)
        ap = fig4.schema.path("AP")
        key = ("writes",)
        assert cache.lookup(key) is None
        matrix = cache.reach_prob(ap)
        assert np.array_equal(cache.lookup(key).toarray(), matrix.toarray())
        assert (cache.hits, cache.misses) == (0, 1)
        fig4.add_edge("writes", "Tom", "p3")
        assert cache.lookup(key) is None

    @pytest.mark.parametrize("spec", ["APC", "APAPA"])
    def test_miss_returns_the_stored_matrix(self, fig4, spec):
        """The caller gets the cached object itself, also when the last
        product was computed dense: one CSR conversion, and no copy the
        byte budget does not see."""
        cache = PathMatrixCache(fig4)
        path = fig4.schema.path(spec)
        matrix = cache.reach_prob(path)
        key = tuple(relation.name for relation in path.relations)
        assert cache.lookup(key) is matrix


#: Paths over the skewed network whose cold chain orders differ from
#: the orders a cached prefix would suggest.
SKEWED_SPECS = ["AB", "ABC", "ABCB", "ABCBA", "CBABC", "ABCBABC"]


class TestHistoryIndependence:
    def test_matrix_is_the_same_bits_whatever_the_cache_held(self, skewed):
        """Every path's matrix equals its cold materialisation (through
        an empty cache) bit for bit after any other path of the list
        was materialised first.  A cache that re-planned the chain
        around whatever prefix it held made 6 of these 36 pairs differ
        in the last bits."""
        cold = {
            spec: PathMatrixCache(skewed)
            .reach_prob(skewed.schema.path(spec))
            .toarray()
            for spec in SKEWED_SPECS
        }
        for prior in SKEWED_SPECS:
            for spec in SKEWED_SPECS:
                cache = PathMatrixCache(skewed)
                cache.reach_prob(skewed.schema.path(prior))
                warm = cache.reach_prob(skewed.schema.path(spec))
                assert np.array_equal(warm.toarray(), cold[spec]), (
                    prior, spec
                )


SPECS = ["APC", "APA", "APAPC", "APAPA", "AP", "APCPA"]


class TestByteBudgetEviction:
    def test_nbytes_never_exceeds_budget(self, fig4):
        budget = 256
        cache = PathMatrixCache(fig4, byte_budget=budget)
        for spec in SPECS * 2:
            cache.reach_prob(fig4.schema.path(spec))
            assert cache.nbytes <= budget
        assert cache.evictions > 0

    def test_eviction_never_changes_results(self, fig4):
        budgeted = PathMatrixCache(fig4, byte_budget=1024)
        for spec in SPECS + list(reversed(SPECS)):
            path = fig4.schema.path(spec)
            np.testing.assert_allclose(
                budgeted.reach_prob(path).toarray(),
                reachable_probability_matrix(fig4, path).toarray(),
                atol=1e-12,
            )

    def test_zero_budget_keeps_nothing(self, fig4):
        cache = PathMatrixCache(fig4, byte_budget=0)
        path = fig4.schema.path("APC")
        result = cache.reach_prob(path)
        assert cache.num_cached == 0 and cache.nbytes == 0
        np.testing.assert_allclose(
            result.toarray(),
            reachable_probability_matrix(fig4, path).toarray(),
        )

    def test_lru_evicts_oldest_first(self, fig4):
        cache = PathMatrixCache(fig4)
        ap = fig4.schema.path("AP")
        pc = fig4.schema.path("PC")
        cache.reach_prob(ap)
        cache.reach_prob(pc)
        # Touch AP so PC becomes least-recently-used, then shrink the
        # budget to one entry's worth.
        cache.reach_prob(ap)
        cache.byte_budget = cache.nbytes - 1
        cache.reach_prob(fig4.schema.path("PA"))
        assert cache.contains(ap) or cache.num_cached <= 2
        assert not cache.contains(pc)

    def test_negative_budget_rejected(self, fig4):
        from repro.hin.errors import QueryError

        with pytest.raises(QueryError):
            PathMatrixCache(fig4, byte_budget=-1)


class TestMidPlanMutation:
    def test_mutation_during_execution_leaves_the_entry_stale(
        self, fig4, monkeypatch
    ):
        """Entries are tagged with the versions captured *before* the
        plan executes: a mutation landing mid-plan therefore leaves the
        stored entry stale (recomputed on next lookup).  Tagging at
        store time instead would pair pre-mutation data with the
        post-mutation signature -- permanently fresh, permanently
        wrong."""
        from repro.hin.graph import HeteroGraph

        cache = PathMatrixCache(fig4)
        ap = fig4.schema.path("AP")
        original = HeteroGraph.adjacency
        fired = []

        def adjacency_then_mutate(self, relation_name):
            matrix = original(self, relation_name)
            if relation_name == "writes" and not fired:
                fired.append(True)
                # Lands after the plan read the adjacency but before
                # the cache stores the product.  A parallel edge
                # accumulates weight, changing the row-normalised
                # probabilities without changing any matrix shape.
                self.add_edge("writes", "Tom", "p1")
            return matrix

        monkeypatch.setattr(
            HeteroGraph, "adjacency", adjacency_then_mutate
        )
        first = cache.reach_prob(ap)
        served = cache.reach_prob(ap)
        fresh = reachable_probability_matrix(fig4, ap)
        np.testing.assert_allclose(
            served.toarray(), fresh.toarray()
        )
        # The mutation really changed the matrix, so serving the first
        # result again would have been a stale answer.
        assert np.abs(first.toarray() - fresh.toarray()).max() > 1e-12


class _Watched(dict):
    """In-flight map that counts the callers finding a build already in
    flight, i.e. becoming that build's waiters, and sets ``joined`` at
    the first."""

    def __init__(self):
        super().__init__()
        self.joined = threading.Event()
        self.waiters = 0

    def get(self, key, default=None):
        flight = super().get(key, default)
        if flight is not None:
            self.waiters += 1
            self.joined.set()
        return flight


def _run(target, *args):
    thread = threading.Thread(target=target, args=args)
    thread.start()
    return thread


class TestGetOrBuild:
    """One get-or-build for every entry: concurrent misses of one key
    share a build, distinct keys build in parallel, and no caller
    inherits another caller's failure."""

    KEY = ("#test", "writes")
    OTHER = ("#test", "published_in")

    def test_hit_after_build(self, fig4):
        cache = PathMatrixCache(fig4)
        entry, built = cache.get_or_build(self.KEY, lambda: np.ones(3))
        again, rebuilt = cache.get_or_build(self.KEY, lambda: np.zeros(3))
        assert built and not rebuilt and again is entry
        assert cache.nbytes == entry.nbytes
        # Form and walk lookups count no cache hit or miss.
        assert (cache.hits, cache.misses) == (0, 0)
        fig4.add_edge("writes", "Tom", "p3")
        assert cache.get_or_build(self.KEY, lambda: np.zeros(3))[1]

    def test_concurrent_misses_share_one_build(self, fig4):
        cache = PathMatrixCache(fig4)
        cache._inflight = _Watched()
        leading, release = threading.Event(), threading.Event()
        builds = []
        results = []

        def build():
            builds.append(1)
            leading.set()
            assert release.wait(10)
            return np.ones(3)

        def call():
            results.append(cache.get_or_build(self.KEY, build))

        leader = _run(call)
        assert leading.wait(10)
        followers = [_run(call) for _ in range(3)]
        deadline = time.monotonic() + 10
        while cache._inflight.waiters < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for thread in [leader, *followers]:
            thread.join(10)
            assert not thread.is_alive()
        assert len(builds) == 1 and cache._inflight.waiters == 3
        assert sorted(built for _, built in results) == [False] * 3 + [True]
        assert all(entry is results[0][0] for entry, _ in results)
        assert cache._inflight == {}

    def test_distinct_keys_build_concurrently(self, fig4):
        """Each build waits for the other to start: both must be in
        flight at once, which also proves that no build holds the
        cache lock (the other could not register its flight)."""
        cache = PathMatrixCache(fig4)
        started = {self.KEY: threading.Event(), self.OTHER: threading.Event()}
        overlapped = []

        def call(key, other):
            def build():
                started[key].set()
                overlapped.append(started[other].wait(10))
                return np.ones(2)

            cache.get_or_build(key, build)

        threads = [
            _run(call, self.KEY, self.OTHER),
            _run(call, self.OTHER, self.KEY),
        ]
        for thread in threads:
            thread.join(20)
            assert not thread.is_alive()
        assert overlapped == [True, True]
        assert cache.num_cached == 2 and cache._inflight == {}

    def test_waiter_builds_itself_when_the_leader_fails(self, fig4):
        cache = PathMatrixCache(fig4)
        cache._inflight = _Watched()
        leading = threading.Event()
        failures = []
        results = []

        def failing():
            leading.set()
            assert cache._inflight.joined.wait(10)
            raise RuntimeError("leader fault")

        def lead():
            try:
                cache.get_or_build(self.KEY, failing)
            except RuntimeError as exc:
                failures.append(exc)

        leader = _run(lead)
        assert leading.wait(10)
        follower = _run(
            lambda: results.append(
                cache.get_or_build(self.KEY, lambda: np.ones(2))
            )
        )
        for thread in (leader, follower):
            thread.join(10)
            assert not thread.is_alive()
        assert len(failures) == 1
        (entry, built), = results
        assert built and (entry == 1).all()
        assert cache.contains(self.KEY) and cache._inflight == {}

    def test_inflight_map_empties_after_a_raising_build(self, fig4):
        cache = PathMatrixCache(fig4)

        def failing():
            raise RuntimeError("build fault")

        with pytest.raises(RuntimeError):
            cache.get_or_build(self.KEY, failing)
        assert cache._inflight == {} and cache.num_cached == 0

    def test_truncating_caller_neither_joins_nor_stores(self, fig4):
        """Under a truncating scope a caller builds its own entry while
        an exact build of the key is still in flight, stores nothing,
        and afterwards reads the exact entry."""
        cache = PathMatrixCache(fig4)
        started, release = threading.Event(), threading.Event()

        def exact():
            started.set()
            assert release.wait(10)
            return np.ones(2)

        leader = _run(cache.get_or_build, self.KEY, exact)
        assert started.wait(10)
        with execution_scope(truncate_eps=0.5):
            entry, built = cache.get_or_build(self.KEY, lambda: np.zeros(2))
        assert built and (entry == 0).all() and not release.is_set()
        release.set()
        leader.join(10)
        assert not leader.is_alive()
        with execution_scope(truncate_eps=0.5):
            entry, built = cache.get_or_build(self.KEY, lambda: np.zeros(2))
        assert not built and (entry == 1).all()


class TestLeaderFailure:
    def test_waiter_without_limits_gets_the_exact_form(self, fig4):
        """The first caller of a cold path trips an injected fault in
        its build while a second caller, with no limits, waits on that
        build: the second caller must get the exact form, built
        itself, not the first caller's error."""
        from repro.core.engine import HeteSimEngine
        from repro.hin.errors import InjectedFaultError

        engine = HeteSimEngine(fig4)
        path = engine.path("APCPA")
        cache = engine.cache
        cache._inflight = _Watched()
        outcomes = {}

        class FailOnceJoined:
            def fire(self, site):
                assert cache._inflight.joined.wait(10)
                raise InjectedFaultError(site, 0)

        def leader():
            try:
                with execution_scope(faults=FailOnceJoined()):
                    engine.halves(path)
            except InjectedFaultError as exc:
                outcomes["leader"] = exc

        def follower():
            deadline = time.monotonic() + 10
            while not cache._inflight and time.monotonic() < deadline:
                time.sleep(0.001)
            outcomes["follower"] = engine.halves(path)

        threads = [_run(leader), _run(follower)]
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()

        assert isinstance(outcomes["leader"], InjectedFaultError)
        left, right, left_norms, right_norms = outcomes["follower"]
        exact = HeteSimEngine(fig4).halves(path)
        assert (left != exact[0]).nnz == 0 and (right != exact[1]).nnz == 0
        assert np.array_equal(left_norms, exact[2])
        assert np.array_equal(right_norms, exact[3])
        assert engine.has_halves(path) and cache._inflight == {}
