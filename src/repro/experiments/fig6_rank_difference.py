"""Fig. 6: average rank difference from the publication-count ground truth.

For each of the 14 ACM conferences: rank the conference's authors by
publication count (ground truth), by HeteSim (APVC), and by PCRW (both
directions, whose rank differences are averaged, as in the paper).  The
series reports the average displacement of the top-200 ground-truth
authors.  Expected shape: HeteSim's bar is lower than PCRW's on (almost)
all conferences -- the symmetric measure tracks relative importance
better than the direction-conflicted asymmetric one.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.measures import MeasureContext, get_measure
from ..learning.rankdiff import average_rank_difference
from .data import acm_engine
from .registry import ExperimentResult, experiment
from .tables import format_score, render_table

TOP_N = 200


@experiment("fig6")
def run(seed: int = 0, top_n: int = TOP_N) -> ExperimentResult:
    """Regenerate the Fig. 6 series on the synthetic ACM network."""
    network, engine = acm_engine(seed)
    forward = engine.path("APVC")     # author -> conference
    backward = engine.path("CVPA")    # conference -> author
    # One context for every query: each PCRW path is materialised once
    # (through the engine's cache), and each ranking reads its rows.
    ctx = engine.measures
    pcrw = get_measure("pcrw")

    rows = []
    records: List[Dict[str, float]] = []
    for conference in network.conferences:
        ground_truth = network.ground_truth_ranking(conference, top_n=top_n)

        hetesim_ranking = [
            author for author, _ in engine.rank(conference, backward)
        ]
        hetesim_diff = average_rank_difference(
            ground_truth, hetesim_ranking, top_n=top_n
        )

        # PCRW: two direction-dependent rankings; Fig. 6 averages their
        # rank differences.  The APVC direction ranks authors by their
        # forward probability *to* the conference.
        pcrw_backward = [
            author for author, _ in pcrw.rank(ctx, backward, conference)
        ]
        forward_scores = [
            (author, float(engine_score))
            for author, engine_score in _pcrw_forward_scores(
                ctx, forward, conference
            )
        ]
        forward_scores.sort(key=lambda item: (-item[1], item[0]))
        pcrw_forward = [author for author, _ in forward_scores]

        pcrw_diff = float(
            np.mean(
                [
                    average_rank_difference(
                        ground_truth, pcrw_backward, top_n=top_n
                    ),
                    average_rank_difference(
                        ground_truth, pcrw_forward, top_n=top_n
                    ),
                ]
            )
        )
        records.append(
            {
                "conference": conference,
                "hetesim": hetesim_diff,
                "pcrw": pcrw_diff,
            }
        )
        rows.append(
            (
                conference,
                format_score(hetesim_diff, digits=2),
                format_score(pcrw_diff, digits=2),
                "+" if hetesim_diff <= pcrw_diff else "-",
            )
        )

    wins = sum(1 for r in records if r["hetesim"] <= r["pcrw"])
    table = render_table(
        ["Conference", "HeteSim avg rank diff", "PCRW avg rank diff",
         "HeteSim <="],
        rows,
    )
    from .charts import grouped_bar_chart

    chart = grouped_bar_chart(
        [r["conference"] for r in records],
        {
            "HeteSim": [r["hetesim"] for r in records],
            "PCRW": [r["pcrw"] for r in records],
        },
        title="Average rank difference (lower is better)",
    )
    title = (
        "Fig. 6: average rank difference from publication-count ground "
        f"truth (top {top_n}; lower is better)"
    )
    from ..learning.significance import sign_test

    significance = sign_test(
        [r["pcrw"] for r in records], [r["hetesim"] for r in records]
    )
    note = (
        f"HeteSim <= PCRW on {wins}/{len(records)} conferences "
        f"(sign test p = {significance.p_value:.4f})."
    )
    return ExperimentResult(
        experiment_id="fig6",
        title=title,
        text=f"{title}\n\n{table}\n\n{chart}\n\n{note}",
        data={
            "records": records,
            "wins": wins,
            "top_n": top_n,
            "sign_test_p": significance.p_value,
        },
    )


def _pcrw_forward_scores(source, forward_path, conference):
    """PCRW scores of every author *towards* ``conference`` (APVC).

    One column of ``PM_APVC``, read through ``source`` (a graph, or a
    shared :class:`~repro.core.measures.MeasureContext` that
    materialises it once): the *forward-path transition probabilities*
    read by column -- so this is genuinely the asymmetric forward
    direction, not HeteSim's backward normalisation.
    """
    ctx = MeasureContext.of(source)
    matrix = ctx.reach(forward_path)
    conf_index = ctx.graph.node_index("conference", conference)
    column = matrix[:, conf_index].toarray().ravel()
    authors = ctx.graph.node_keys("author")
    return zip(authors, column)
