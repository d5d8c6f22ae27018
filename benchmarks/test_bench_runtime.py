"""Resilient-runtime benchmarks: what does limit enforcement cost?

The cooperative checks (deadline, nnz/byte budgets) run between plan
steps, so their cost must be negligible against the multiplications
they guard.  The happy-path overhead ratio is measured over many
interleaved rounds (the two arms run back to back and alternate which
goes first, so machine noise and order effects hit both equally), taken
as the median of the rounds' bounded/plain ratios, and recorded in the
bench JSON under ``extra_info``; the <5% bound is part of the runtime's
contract.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.backend import materialise
from repro.datasets.random_hin import make_random_hin
from repro.hin.schema import NetworkSchema
from repro.runtime.limits import ExecutionLimits, execution_scope

#: Interleaved rounds per arm: a minimum of a few rounds follows the
#: host's noise, a median of this many does not.
ROUNDS = 101

#: Generous envelope: every check runs, nothing ever trips.
HAPPY_LIMITS = ExecutionLimits(
    deadline_ms=600_000, max_nnz=10**12, max_bytes=10**15
)


def _schema():
    return NetworkSchema.from_spec(
        types=[("a", "A"), ("b", "B"), ("c", "C")],
        relations=[("ab", "a", "b"), ("bc", "b", "c")],
    )


@pytest.fixture(scope="module")
def network():
    return make_random_hin(
        _schema(),
        sizes={"a": 400, "b": 400, "c": 40},
        edge_prob=8.0 / 400,
        edge_probs={"bc": 0.3},
        seed=0,
        ensure_connected_rows=True,
    )


def test_limit_checking_overhead(benchmark, network):
    """Bounded vs plain materialisation of the same chain: the
    enforcement overhead on the happy path stays under 5%."""
    path = network.schema.path("ABCBA")

    def plain():
        materialise(network, path)

    def bounded():
        with execution_scope(tracker=HAPPY_LIMITS.tracker()):
            materialise(network, path)

    plain()  # warm both arms (allocator, caches) before timing
    bounded()
    times = {plain: [], bounded: []}
    for round_ in range(ROUNDS):
        for arm in (plain, bounded) if round_ % 2 else (bounded, plain):
            start = time.perf_counter()
            arm()
            times[arm].append(time.perf_counter() - start)

    # Per-round ratios, not a ratio of the arms' medians: a call's time
    # can drift between host speed modes (about 15 and 21 ms on a
    # 2-CPU host) over a few rounds, and a median landing between them
    # moves the ratio of medians by several percent; two back-to-back
    # calls share the mode.
    overhead_ratio = statistics.median(
        b / p for p, b in zip(times[plain], times[bounded])
    )
    plain_seconds = statistics.median(times[plain])
    bounded_seconds = statistics.median(times[bounded])
    benchmark.extra_info["plain_seconds"] = plain_seconds
    benchmark.extra_info["bounded_seconds"] = bounded_seconds
    benchmark.extra_info["ratio_of_medians"] = bounded_seconds / plain_seconds
    benchmark.extra_info["overhead_ratio"] = overhead_ratio

    benchmark(bounded)

    assert overhead_ratio < 1.05, (
        f"limit checking cost {100 * (overhead_ratio - 1):.1f}% "
        f"on the happy path (contract: <5%)"
    )


def test_degradation_ladder_cost(benchmark, network):
    """Worst-case ladder walk: every enforced strategy trips instantly
    (deadline 0) and the unenforced floor answers.  Measures the cost
    of degradation itself, not of the strategies' numeric work."""
    from repro.core.engine import HeteSimEngine

    source = network.node_keys("a")[0]

    def degraded_query():
        engine = HeteSimEngine(network)  # cold: every attempt recomputes
        runtime = engine.runtime(ExecutionLimits(deadline_ms=0))
        return runtime.top_k(source, "ABCBA", k=5)

    result = benchmark(degraded_query)
    assert result.degraded
    assert result.tripped == "deadline"
    benchmark.extra_info["attempts"] = len(result.attempts)
    benchmark.extra_info["answering_strategy"] = result.strategy
