"""Table 5: AUC of conference-to-author relevance search (CPA path).

On the labelled DBLP-like network, rank every author for each of 9
representative conferences by HeteSim and by PCRW under the CPA path;
score each ranking's AUC against the binary labels "author belongs to the
conference's research area".  The paper finds HeteSim consistently above
PCRW on all 9 conferences -- the shape this experiment checks.
"""

from __future__ import annotations

from typing import List

from ..baselines.pcrw import pcrw_matrix
from ..learning.auc import auc_score
from .data import dblp_engine
from .registry import ExperimentResult, experiment
from .tables import format_score, render_table

#: The nine representative conferences of Table 5 that exist in our
#: four-area generator (we swap AAAI's area-mates where names differ).
CONFERENCES_9: List[str] = [
    "KDD", "ICDM", "SDM", "SIGMOD", "VLDB", "ICDE", "AAAI", "IJCAI", "SIGIR",
]


@experiment("table5")
def run(seed: int = 0) -> ExperimentResult:
    """Regenerate Table 5 on the synthetic DBLP network."""
    network, engine = dblp_engine(seed)
    graph = network.graph
    path = engine.path("CPA")

    hetesim_scores = engine.relevance_matrix(path)
    pcrw_scores = pcrw_matrix(graph, path)
    authors = graph.node_keys("author")

    rows = []
    records = []
    for conference in CONFERENCES_9:
        conf_index = graph.node_index("conference", conference)
        area = network.conference_labels[conference]
        labels = [
            1 if network.author_labels[author] == area else 0
            for author in authors
        ]
        auc_hetesim = auc_score(labels, hetesim_scores[conf_index])
        auc_pcrw = auc_score(labels, pcrw_scores[conf_index])
        records.append(
            {
                "conference": conference,
                "hetesim": auc_hetesim,
                "pcrw": auc_pcrw,
            }
        )
        rows.append(
            (
                conference,
                format_score(auc_hetesim),
                format_score(auc_pcrw),
                "+" if auc_hetesim >= auc_pcrw else "-",
            )
        )

    wins = sum(1 for r in records if r["hetesim"] >= r["pcrw"])
    table = render_table(
        ["Conference", "HeteSim AUC", "PCRW AUC", "HeteSim >="], rows
    )
    from ..learning.significance import sign_test

    significance = sign_test(
        [r["hetesim"] for r in records], [r["pcrw"] for r in records]
    )
    title = "Table 5: AUC of conference->author relevance (CPA path)"
    note = (
        f"HeteSim >= PCRW on {wins}/{len(records)} conferences "
        f"(sign test p = {significance.p_value:.4f})."
    )
    return ExperimentResult(
        experiment_id="table5",
        title=title,
        text=f"{title}\n\n{table}\n\n{note}",
        data={
            "records": records,
            "wins": wins,
            "sign_test_p": significance.p_value,
        },
    )
