"""Advanced search features: pruning, sampling, learned path weights.

The paper's Section 4.6 sketches three ways to scale HeteSim (off-line
materialisation, pruning, approximation) and Section 5.1 sketches
supervised path selection.  This example exercises all four on the
synthetic ACM network:

1. pruned top-k search on the degradation ladder's prune rung, with
   its dropped-mass report;
2. Monte-Carlo estimation vs the exact score;
3. off-line materialisation to disk and reload;
4. learning path weights from a handful of labelled pairs and querying
   them through the ``combined`` measure.

Run:  python examples/advanced_search.py
"""

import tempfile
from pathlib import Path

from repro import HeteSimEngine
from repro.core import (
    MatrixStore,
    PathMatrixCache,
    get_measure,
    learn_path_weights,
    monte_carlo_hetesim,
)
from repro.datasets import make_acm_network
from repro.runtime import ResilientRuntime, Strategy


def main():
    network = make_acm_network(seed=0)
    graph = network.graph
    engine = HeteSimEngine(graph)
    hub = network.personas["hub_author"]
    path = engine.path("APVC")

    print("1) Pruned top-k search (Section 4.6, item 3)")
    exact = engine.top_k(hub, path, k=5)
    for key, score in exact[:3]:
        print(f"   {key}: {score:.4f}")
    prune = ResilientRuntime(
        engine,
        policy=(Strategy("prune", prune_mass=0.05, enforced=False),),
    )
    approx = prune.top_k(hub, path, k=5)
    print(f"   prune rung at mass 0.05: dropped "
          f"{approx.accuracy['dropped_forward_mass']:.4f} forward mass, "
          f"top-1 still {approx.value[0][0]} (exact {exact[0][0]})")

    print("\n2) Monte-Carlo estimate vs exact")
    exact = engine.relevance(hub, "KDD", path)
    for walks in (100, 1000, 10000):
        estimate = monte_carlo_hetesim(
            graph, path, hub, "KDD", walks=walks, seed=0
        )
        print(f"   walks={walks:6d}: estimate={estimate:.4f} "
              f"(exact {exact:.4f}, error {abs(estimate - exact):.4f})")

    print("\n3) Off-line materialisation (Section 4.6, item 1)")
    with tempfile.TemporaryDirectory() as tmp:
        store = MatrixStore(Path(tmp))
        halves = path.halves()
        store.save(graph, [halves.left, halves.right.reverse()]
                   if not halves.needs_edge_object
                   else [engine.path("AP")])
        cache = PathMatrixCache(graph)
        loaded = store.load_into(cache)
        print(f"   persisted and reloaded {loaded} path matrices; "
              f"cache now holds {cache.num_cached}")

    print("\n4) Supervised path-weight learning (Section 5.1)")
    candidates = ["APVC", "APVCVPAPVC"]  # direct vs via co-published authors
    labeled = [
        (hub, "KDD", 1),
        (hub, "SOSP", 0),
        ("SIGIR-star", "SIGIR", 1),
        ("SIGIR-star", "SODA", 0),
        ("SODA-star", "SODA", 1),
        ("SODA-star", "CIKM", 0),
    ]
    learned = learn_path_weights(engine, candidates, labeled)
    print(f"   learned weights: {learned.weights} "
          f"(residual {learned.residual:.3f})")
    combined = get_measure("combined")
    score = combined.pair(engine.measures, learned.spec, hub, "KDD")
    print(f"   combined spec {learned.spec!r}")
    print(f"   combined score {hub} vs KDD: {score:.4f}")


if __name__ == "__main__":
    main()
