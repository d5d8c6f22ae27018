"""Table 3: expert finding through relative importance of object pairs.

The paper scores six author-conference pairs under the APVC / CVPA paths
(same semantics, opposite directions) with HeteSim and PCRW.  HeteSim
returns one symmetric value per pair, so scores are comparable across
research areas (influential researchers get similar scores in each
community; promising young researchers get smaller-but-solid scores).
PCRW returns two conflicting values -- the young authors' forward score
saturates at 1.0 (all their papers are in the one conference) while their
backward score is among the smallest.

We use the planted personas: the per-conference stars are the influential
researchers, the ``*-young`` personas the promising young ones.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.measures import get_measure
from .data import acm_engine
from .registry import ExperimentResult, experiment
from .tables import format_score, render_table

#: The six (author, conference) pairs, mirroring Table 3's roles.
def pairs_for(network) -> List[Tuple[str, str, str]]:
    """(role, author, conference) rows for the expert-finding table."""
    return [
        ("influential", network.personas["hub_author"], "KDD"),
        ("influential", "SIGIR-star", "SIGIR"),
        ("influential", "SIGMOD-star", "SIGMOD"),
        ("influential", "SODA-star", "SODA"),
        ("young", network.personas["young_sigir"], "SIGIR"),
        ("young", network.personas["young_sigcomm"], "SIGCOMM"),
    ]


@experiment("table3")
def run(seed: int = 0) -> ExperimentResult:
    """Regenerate Table 3 on the synthetic ACM network."""
    network, engine = acm_engine(seed)
    forward = engine.path("APVC")
    backward = engine.path("CVPA")
    # Each PCRW direction's PM is materialised once (engine cache).
    pcrw = get_measure("pcrw")

    rows = []
    records = []
    for role, author, conference in pairs_for(network):
        hetesim_score = engine.relevance(author, conference, forward)
        # Symmetric by Property 3: the CVPA direction gives the same value.
        hetesim_check = engine.relevance(conference, author, backward)
        pcrw_forward = pcrw.pair(engine.measures, forward, author, conference)
        pcrw_backward = pcrw.pair(
            engine.measures, backward, conference, author
        )
        records.append(
            {
                "role": role,
                "author": author,
                "conference": conference,
                "hetesim": hetesim_score,
                "hetesim_reverse": hetesim_check,
                "pcrw_apvc": pcrw_forward,
                "pcrw_cvpa": pcrw_backward,
            }
        )
        rows.append(
            (
                f"{author} / {conference}",
                role,
                format_score(hetesim_score),
                format_score(pcrw_forward),
                format_score(pcrw_backward, digits=5),
            )
        )

    table = render_table(
        ["Pair", "Role", "HeteSim (APVC = CVPA)", "PCRW APVC", "PCRW CVPA"],
        rows,
    )
    title = "Table 3: author-conference relatedness, HeteSim vs PCRW"
    note = (
        "HeteSim is symmetric (one comparable value per pair); PCRW's two\n"
        "directions conflict: the young authors top the APVC column yet\n"
        "trail in the CVPA column."
    )
    return ExperimentResult(
        experiment_id="table3",
        title=title,
        text=f"{title}\n\n{table}\n\n{note}",
        data={"records": records},
    )
