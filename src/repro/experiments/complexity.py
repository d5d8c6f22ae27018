"""Section 4.6: complexity comparison and materialisation speed-ups.

Two studies the paper argues analytically, measured empirically here:

* **HeteSim vs SimRank scaling** -- HeteSim computes one path's relevance
  matrix in O(l * d * n^2); SimRank iterates similarity over *all* typed
  node pairs, O(k * d * n^2 * T^4).  We sweep network size on a random
  two-relation HIN and time both; SimRank's curve must grow much faster.
* **Partial-path materialisation** -- answering a long-path query from
  cached half matrices (``PM_PL @ PM_PR'``) vs recomputing the chain.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..baselines.simrank import simrank
from ..core.engine import HeteSimEngine
from ..core.hetesim import hetesim_matrix
from ..datasets.random_hin import make_random_hin
from ..hin.schema import NetworkSchema
from .registry import ExperimentResult, experiment
from .tables import format_score, render_table

#: Per-type node counts swept in the scaling study.
SIZES = (30, 60, 120)
SIMRANK_ITERATIONS = 5


def _three_type_schema() -> NetworkSchema:
    """A small A-B-C chain schema (two relations, three types)."""
    return NetworkSchema.from_spec(
        types=[("a", "A"), ("b", "B"), ("c", "C")],
        relations=[("ab", "a", "b"), ("bc", "b", "c")],
    )


def _time(callable_, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``callable_`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@experiment("complexity")
def run(seed: int = 0) -> ExperimentResult:
    """Measure the Section 4.6 complexity claims."""
    schema = _three_type_schema()
    scaling_rows = []
    scaling_records: List[Dict[str, float]] = []
    for size in SIZES:
        graph = make_random_hin(
            schema,
            sizes={"a": size, "b": size, "c": size},
            edge_prob=min(1.0, 5.0 / size),
            seed=seed,
            ensure_connected_rows=True,
        )
        path = schema.path("ABCBA")
        t_hetesim = _time(lambda: hetesim_matrix(graph, path))
        t_simrank = _time(
            lambda: simrank(graph, iterations=SIMRANK_ITERATIONS), repeats=1
        )
        ratio = t_simrank / t_hetesim if t_hetesim > 0 else float("inf")
        scaling_records.append(
            {
                "size": size,
                "hetesim_s": t_hetesim,
                "simrank_s": t_simrank,
                "ratio": ratio,
            }
        )
        scaling_rows.append(
            (
                size,
                format_score(t_hetesim * 1000, 2),
                format_score(t_simrank * 1000, 2),
                format_score(ratio, 1),
            )
        )
    scaling_table = render_table(
        ["n per type", "HeteSim (ms)", "SimRank (ms)", "SimRank/HeteSim"],
        scaling_rows,
        title="Scaling: one-path HeteSim vs full SimRank",
    )

    # Materialisation study on a mid-size network.
    graph = make_random_hin(
        schema,
        sizes={"a": 100, "b": 100, "c": 100},
        edge_prob=0.05,
        seed=seed,
        ensure_connected_rows=True,
    )
    path = schema.path("ABCBA")

    def cold() -> None:
        hetesim_matrix(graph, path)

    engine = HeteSimEngine(graph)
    engine.relevance_matrix(path)  # warm the half-matrix cache

    def warm() -> None:
        engine.relevance_matrix(path)

    t_cold = _time(cold)
    t_warm = _time(warm)
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    cache_table = render_table(
        ["Variant", "Time (ms)"],
        [
            ("recompute full chain", format_score(t_cold * 1000, 3)),
            ("materialised halves", format_score(t_warm * 1000, 3)),
            ("speed-up", format_score(speedup, 1) + "x"),
        ],
        title="Materialised partial paths (Section 4.6, item 2)",
    )

    title = "Section 4.6: complexity and materialisation measurements"
    return ExperimentResult(
        experiment_id="complexity",
        title=title,
        text=f"{title}\n\n{scaling_table}\n\n{cache_table}",
        data={
            "scaling": scaling_records,
            "materialization": {
                "cold_s": t_cold,
                "warm_s": t_warm,
                "speedup": speedup,
            },
        },
    )
