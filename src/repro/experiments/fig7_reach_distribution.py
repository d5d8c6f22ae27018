"""Fig. 7: authors' reachable-probability distribution over conferences.

The paper plots, for Christos Faloutsos and five comparison authors, the
probability distribution of reaching each of the 14 conferences along
APVC -- the visual explanation of Table 4 (HeteSim under APVCVPA is
exactly the cosine of these distributions).  We produce the same series
for the planted personas: the *peer* authors' curves hug the hub's
(concentrated on KDD), while the *broad* authors' are spread out.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.measures import get_measure
from .data import acm_engine
from .registry import ExperimentResult, experiment
from .tables import format_score, render_table


@experiment("fig7")
def run(seed: int = 0) -> ExperimentResult:
    """Regenerate the Fig. 7 series on the synthetic ACM network."""
    network, engine = acm_engine(seed)
    graph = network.graph
    path = engine.path("APVC")

    persona_keys = [
        network.personas["hub_author"],
        network.personas["peer_author_1"],
        network.personas["peer_author_2"],
        network.personas["broad_author_1"],
        network.personas["broad_author_2"],
        network.personas["group_author"],
    ]

    conferences = list(network.conferences)
    conf_indices = [
        graph.node_index("conference", conf) for conf in conferences
    ]
    # The reachprob measure's rows of one PM_APVC (materialised once,
    # through the engine's cache).
    reach = get_measure("reachprob")
    distributions: Dict[str, List[float]] = {}
    for author in persona_keys:
        row = reach.vector(engine.measures, path, author)
        distributions[author] = [float(row[i]) for i in conf_indices]

    rows = []
    for conf_pos, conference in enumerate(conferences):
        rows.append(
            [conference]
            + [
                format_score(distributions[author][conf_pos], digits=3)
                for author in persona_keys
            ]
        )
    table = render_table(["Conference"] + persona_keys, rows)

    hub = persona_keys[0]
    hub_vec = np.asarray(distributions[hub])
    cosines = {}
    for author in persona_keys[1:]:
        vec = np.asarray(distributions[author])
        denom = np.linalg.norm(hub_vec) * np.linalg.norm(vec)
        cosines[author] = float(hub_vec @ vec / denom) if denom else 0.0

    title = (
        "Fig. 7: reachable-probability distribution over the 14 "
        "conferences along APVC"
    )
    from .charts import grouped_bar_chart

    chart = grouped_bar_chart(
        conferences[:6],  # the data-area conferences carry all the mass
        {
            author: distributions[author][:6]
            for author in (hub, persona_keys[1], persona_keys[3])
        },
        title="Reach probability (hub vs a peer vs a broad author)",
    )
    closest = max(cosines, key=cosines.get)
    note = (
        "Cosine to the hub's distribution: "
        + ", ".join(
            f"{author}={format_score(score, 3)}"
            for author, score in cosines.items()
        )
        + f".  Closest: {closest!r} (the Fig. 7 / Table 4 argument)."
    )
    return ExperimentResult(
        experiment_id="fig7",
        title=title,
        text=f"{title}\n\n{table}\n\n{chart}\n\n{note}",
        data={
            "conferences": conferences,
            "distributions": distributions,
            "cosines_to_hub": cosines,
        },
    )
