"""Serving benchmarks: batched GEMM scoring vs the sequential loop.

The tentpole claim under measurement: answering a 64-query single-path
batch through ``repro.serve`` (halves materialised once, one block
GEMM, argpartition top-k) must be at least 3x faster than the
sequential loop that calls ``hetesim_all_targets`` per query and
rebuilds both halves every time.  Results are written machine-readable
to ``BENCH_serve.json`` at the repository root (the serve bench
trajectory).

Under ``--benchmark-disable`` (the CI smoke mode) the network shrinks,
nothing is asserted about timing and the JSON is not rewritten -- the
run only proves the serving path still imports and answers correctly.
A JSON dump of the observability registry is always written next to
the results (``BENCH_serve_metrics.json``); CI uploads it as an
artifact, so every smoke run leaves an inspectable record of cache
hits, materialisations and GEMM timings.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import HeteSimEngine
from repro.core.hetesim import hetesim_all_targets
from repro.core.search import select_top_k
from repro.datasets.random_hin import make_random_hin
from repro.hin.schema import NetworkSchema
from repro.obs.export import render_json
from repro.serve import BatchRequest, Query, QueryServer

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"
METRICS_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_serve_metrics.json"
)

N_QUERIES = 64
TOP_K = 10
FULL_SIZES = {"author": 1200, "paper": 2400, "conf": 200}
QUICK_SIZES = {"author": 60, "paper": 90, "conf": 12}


def _schema():
    return NetworkSchema.from_spec(
        types=[("author", "A"), ("paper", "P"), ("conf", "C")],
        relations=[
            ("writes", "author", "paper"),
            ("published_in", "paper", "conf"),
        ],
    )


def _quick(config) -> bool:
    try:
        return bool(config.getoption("--benchmark-disable"))
    except (ValueError, KeyError):
        return False


@pytest.fixture(scope="module")
def serve_hin(request):
    sizes = QUICK_SIZES if _quick(request.config) else FULL_SIZES
    return make_random_hin(
        _schema(),
        sizes=sizes,
        edge_prob=8.0 / sizes["paper"],
        edge_probs={"published_in": 3.0 / sizes["conf"]},
        seed=11,
        ensure_connected_rows=True,
    )


def _record(section: str, payload: dict) -> None:
    """Merge one section into BENCH_serve.json (machine-readable)."""
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    results[section] = payload
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_batch_vs_sequential_single_path(serve_hin, request):
    """64 queries, one path: batch >= 3x the per-query loop."""
    quick = _quick(request.config)
    graph = serve_hin
    path = graph.schema.path("APC")
    sources = graph.node_keys("author")[:N_QUERIES]
    keys = graph.node_keys(path.target_type.name)

    start = time.perf_counter()
    sequential = [
        select_top_k(
            hetesim_all_targets(graph, path, source), keys, TOP_K
        )
        for source in sources
    ]
    sequential_seconds = time.perf_counter() - start

    server = QueryServer(HeteSimEngine(graph))
    request_batch = BatchRequest(
        [Query(source, "APC", k=TOP_K) for source in sources]
    )
    start = time.perf_counter()
    batched = server.run(request_batch)
    batched_seconds = time.perf_counter() - start

    for expected, answer in zip(sequential, batched.results):
        assert [k for k, _ in expected] == [
            k for k, _ in answer.ranking
        ]
        np.testing.assert_allclose(
            [s for _, s in expected],
            [s for _, s in answer.ranking],
            rtol=1e-12,
            atol=1e-15,
        )
    assert batched.stats.halves_materialised == 1

    speedup = (
        sequential_seconds / batched_seconds
        if batched_seconds > 0
        else float("inf")
    )
    if quick:
        return
    _record(
        "single_path_batch",
        {
            "n_queries": N_QUERIES,
            "k": TOP_K,
            "path": "APC",
            "sizes": FULL_SIZES,
            "sequential_seconds": sequential_seconds,
            "batched_seconds": batched_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 3.0, (
        f"batched serving only {speedup:.1f}x faster than the "
        f"sequential loop (need >= 3x)"
    )


def test_parallel_materialisation_scaling(serve_hin, request):
    """Distinct-path materialisation: one thread vs a pool of four.

    Recorded, not gated -- scaling depends on the host.  The pool must
    reproduce the single-worker results exactly.
    """
    quick = _quick(request.config)
    graph = serve_hin
    specs = ["APC", "APCPA", "APCP", "CPA", "CPAPC"]
    queries = [
        Query(source, spec, k=TOP_K)
        for spec in specs
        for source in graph.node_keys(
            graph.schema.path(spec).source_type.name
        )[:8]
    ]

    start = time.perf_counter()
    single = QueryServer(HeteSimEngine(graph)).run(
        BatchRequest(queries, workers=1)
    )
    workers1_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pooled = QueryServer(HeteSimEngine(graph)).run(
        BatchRequest(queries, workers=4)
    )
    workers4_seconds = time.perf_counter() - start

    assert pooled.results == single.results
    if quick:
        return
    _record(
        "parallel_materialisation",
        {
            "paths": specs,
            "n_queries": len(queries),
            "sizes": FULL_SIZES,
            "workers1_seconds": workers1_seconds,
            "workers4_seconds": workers4_seconds,
            "speedup": (
                workers1_seconds / workers4_seconds
                if workers4_seconds > 0
                else None
            ),
        },
    )


def test_metrics_dump_written_last():
    """Snapshot the observability registry next to the results.

    Runs after the serving benches (pytest executes this file in
    definition order), so the dump reflects their cache hits, halves
    materialisations, batch group sizes and GEMM timings.  Written in
    quick mode too: the CI smoke step uploads it as an artifact.
    """
    METRICS_PATH.write_text(render_json() + "\n")
    dumped = json.loads(METRICS_PATH.read_text())
    assert "repro_halves_materialisations_total" in dumped
    assert "repro_batch_gemm_seconds" in dumped
