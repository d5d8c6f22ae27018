"""Path discovery: enumerate -> learn -> cross-validate -> explain.

The full supervised-path workflow (§5.1 option 3) end to end on the
synthetic ACM network:

1. enumerate every author-conference relevance path up to length 5;
2. fit non-negative weights from a handful of labelled expert pairs and
   rank with them through the ``combined`` measure;
3. cross-validate the learned combination;
4. explain a top score through its contributing middle objects.

Run:  python examples/path_discovery.py
"""

from repro import HeteSimEngine
from repro.core import get_measure, learn_path_weights
from repro.datasets import make_acm_network
from repro.hin import enumerate_paths
from repro.learning import cross_validate_path_weights


def main():
    network = make_acm_network(seed=0)
    graph = network.graph
    engine = HeteSimEngine(graph)

    print("1) Enumerate candidate author->conference paths (length <= 5)")
    candidates = enumerate_paths(
        graph.schema, "author", "conference", max_length=5
    )
    print(f"   {len(candidates)} candidates: "
          + ", ".join(p.code() for p in candidates[:8])
          + (" ..." if len(candidates) > 8 else ""))

    print("\n2) Label a few expert pairs and fit weights")
    labeled = []
    for conf in ("KDD", "SIGMOD", "SIGIR", "SODA", "SOSP", "ICML"):
        labeled.append((f"{conf}-star", conf, 1))
        far = "SOSP" if conf != "SOSP" else "KDD"
        labeled.append((f"{conf}-star", far, 0))
    result = learn_path_weights(engine, candidates, labeled)
    top_paths = sorted(
        result.weights.items(), key=lambda item: -item[1]
    )[:3]
    for code, weight in top_paths:
        print(f"   {code}: weight {weight:.3f}")
    hub = network.personas["hub_author"]
    ranking = get_measure("combined").top_k(
        engine.measures, result.spec, hub, k=3
    )
    print(f"   learned combination's top conferences for {hub}: "
          + ", ".join(f"{key} ({score:.3f})" for key, score in ranking))

    print("\n3) Cross-validate the combination")
    cv = cross_validate_path_weights(
        engine, candidates, labeled, folds=4, seed=0
    )
    print(f"   mean held-out AUC over {len(cv.fold_aucs)} folds: "
          f"{cv.mean_auc:.3f}")

    print("\n4) Explain the strongest relationship")
    for contribution in engine.explain(hub, "KDD", "APVC", k=3):
        paper, venue = contribution.middle
        print(f"   via {paper} published in {venue}: "
              f"{contribution.share:.1%} of the meeting probability")


if __name__ == "__main__":
    main()
