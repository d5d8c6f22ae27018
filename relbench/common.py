"""Pieces every workload shares: set-up, the outcome record, statistics."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from inputs import build_graph
from spans import Recorder

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Answers per run checked against the reference.
GATE_SAMPLES = 96
#: ``tail_ms`` percentile, the same for every workload.  Over ten seeded
#: runs on a shared 2-vCPU VM, p99 spread up to 38% and p99.9 up to 84%
#: of their median (IQR / median) -- wider than any bound the benchmark
#: may set -- so the tail is p90, which has 10% of the samples beyond it.
TAIL_PERCENTILE = 90.0

#: Layer groups whose share of an operation the traced run reports.
SHARE_GROUPS = {
    "share.serving": ("serve.http", "serve.admission", "runtime"),
    "share.scoring": ("core.measures", "core.search"),
    "share.hin_materialise": ("hin", "core.materialise"),
}


@dataclass
class Outcome:
    """What one workload run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    trace: Optional[dict] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def set_up(repro, inputs, paths):
    """Build the graph, construct the engine and warm ``paths``.

    Returns ``(graph, engine, build_s, setup_s)``.
    """
    gc.collect()
    started = time.perf_counter()
    graph = build_graph(repro, inputs)
    built = time.perf_counter()
    engine = repro.HeteSimEngine(graph)
    engine.warm(list(paths), workers=1)
    return graph, engine, built - started, time.perf_counter() - started


def traced_set_up(repro, inputs, paths, tracer):
    """One set-up split into its layer calls, for the traced run: graph
    construction, the first adjacency build after the writes, and one
    cold ``HeteSimEngine.halves`` per path.

    Returns ``(graph, engine, recorder)``.
    """
    rec = Recorder(tracer)
    tracer.enable()
    try:
        with rec.op("set-up"):
            with rec.span("build_graph", "hin"):
                graph = build_graph(repro, inputs)
            with rec.span("HeteroGraph.adjacency", "hin"):
                graph.adjacency("writes")
                graph.adjacency("published_in")
            engine = repro.HeteSimEngine(graph)
            for path in paths:
                with rec.span("HeteSimEngine.halves", "core.materialise"):
                    engine.halves(engine.path(path))
    finally:
        tracer.disable()
    return graph, engine, rec


def span_ms(rec, name: str) -> float:
    """Median duration of the spans called ``name``, in milliseconds."""
    return ms([r["end"] - r["start"] for r in rec.spans if r["name"] == name])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms(values: Sequence[float]) -> float:
    """Median of seconds, in milliseconds."""
    return statistics.median(values) * 1e3 if len(values) else 0.0


def tail_ms(values: Sequence[float], percentile: float = TAIL_PERCENTILE) -> float:
    return float(np.percentile(values, percentile)) * 1e3


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count and the usual percentiles, for the run record."""
    return {"samples": len(values), **{
        f"p{q:g}_ms": tail_ms(values, q) for q in (50, 90, 99, 99.9)
    }}


def sample_indices(seed: int, population: int, count: int, salt: int) -> frozenset:
    rng = np.random.default_rng([seed, 100 + salt])
    count = min(count, population)
    return frozenset(rng.choice(population, size=count, replace=False).tolist())


def engine_counters(engine) -> Dict[str, float]:
    """The engine's public memo/materialisation/cache counters."""
    from repro.obs.export import json_snapshot

    snapshot = json_snapshot()
    stats = engine.plan_stats()

    def engine_series(name: str) -> float:
        return sum(
            series["value"] for series in snapshot[name]["series"]
            if series["labels"].get("engine") == engine.obs_label
        )

    return {
        "memo_hits": engine_series("repro_halves_memo_hits_total"),
        "materialisations": float(engine.materialisation_count),
        "cache_hits": float(stats.hits),
        "cache_misses": float(stats.misses),
    }


def ratio(hits: float, misses: float) -> float:
    """hits / (hits + misses); 0 when the layer saw no lookups."""
    return hits / (hits + misses) if hits + misses else 0.0


def put_counters(out: Outcome, before: Dict[str, float],
                 after: Dict[str, float], ops: int) -> None:
    """Counter metrics over the untraced phase of a traced run."""
    delta = {key: after[key] - before[key] for key in before}
    out.put("engine.memo_hit_ratio",
            ratio(delta["memo_hits"], delta["materialisations"]), "ratio")
    out.put("engine.materialisations",
            delta["materialisations"] / max(ops, 1), "count/op")
    out.put("core.cache_hit_ratio",
            ratio(delta["cache_hits"], delta["cache_misses"]), "ratio")


def put_shares(out: Outcome, op_s: float, layer_s: Dict[str, float]) -> None:
    """Group shares of the mean operation time, from mean layer times."""
    for name, layers in SHARE_GROUPS.items():
        total = sum(layer_s.get(layer, 0.0) for layer in layers)
        out.put(name, total / op_s if op_s else 0.0, "ratio")
    out.info["layer_ms_per_op"] = {
        layer: round(seconds * 1e3, 4) for layer, seconds in layer_s.items()
    }
    out.info["op_ms_mean"] = round(op_s * 1e3, 4)


def graph_counts(graph) -> Dict[str, Dict[str, int]]:
    """Node counts per type and edge counts per relation."""
    return {
        "nodes": {t.name: graph.num_nodes(t.name)
                  for t in graph.schema.object_types},
        "edges": {r.name: graph.num_edges(r.name)
                  for r in graph.schema.relations},
    }


def perturbed(ranking):
    """``ranking`` with its first score moved by 1e-6: the deliberately
    wrong answer the self-test feeds the correctness gate."""
    (key, score), *rest = ranking
    return [(key, score + 1e-6), *rest]
