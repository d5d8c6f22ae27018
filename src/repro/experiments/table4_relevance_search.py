"""Table 4: top-10 related authors under APVCVPA, three measures compared.

The paper queries the top-10 authors related to "Christos Faloutsos"
along APVCVPA (authors publishing in the same conferences) with HeteSim,
PathSim, and PCRW.  Expected shape, reproduced on the planted personas:

* HeteSim ranks the query author first (score 1) and then the *peer*
  authors whose conference distribution matches his (Fig. 7's argument);
* PathSim ranks the query author first and then the high-volume
  *broad* authors (reputation peers) -- it counts path instances;
* PCRW violates self-maximum: the broad authors with large solo records
  in the same conferences outrank the query author himself.
"""

from __future__ import annotations

from ..baselines.pathsim import pathsim_rank
from ..baselines.pcrw import pcrw_rank
from .data import acm_engine
from .registry import ExperimentResult, experiment
from .tables import format_score, render_table

PATH_SPEC = "APVCVPA"
TOP_K = 10


@experiment("table4")
def run(seed: int = 0) -> ExperimentResult:
    """Regenerate Table 4 on the synthetic ACM network."""
    network, engine = acm_engine(seed)
    graph = network.graph
    hub = network.personas["hub_author"]
    path = engine.path(PATH_SPEC)

    hetesim_top = engine.top_k(hub, path, k=TOP_K)
    pathsim_top = pathsim_rank(graph, path, hub)[:TOP_K]
    pcrw_ranking = pcrw_rank(graph, path, hub)
    pcrw_top = pcrw_ranking[:TOP_K]

    rows = []
    for rank in range(TOP_K):
        h_key, h_score = hetesim_top[rank]
        p_key, p_score = pathsim_top[rank]
        c_key, c_score = pcrw_top[rank]
        rows.append(
            (
                rank + 1,
                f"{h_key} ({format_score(h_score)})",
                f"{p_key} ({format_score(p_score)})",
                f"{c_key} ({format_score(c_score)})",
            )
        )
    table = render_table(["Rank", "HeteSim", "PathSim", "PCRW"], rows)

    self_rank_pcrw = next(
        (i + 1 for i, (key, _) in enumerate(pcrw_ranking) if key == hub),
        None,
    )
    title = (
        f"Table 4: top-{TOP_K} related authors to {hub!r} "
        f"under {PATH_SPEC}"
    )
    note = (
        f"PCRW ranks the query author {self_rank_pcrw}th "
        "(self-maximum violation); HeteSim and PathSim rank him 1st."
    )
    return ExperimentResult(
        experiment_id="table4",
        title=title,
        text=f"{title}\n\n{table}\n\n{note}",
        data={
            "author": hub,
            "hetesim": hetesim_top,
            "pathsim": pathsim_top,
            "pcrw": pcrw_top,
            "pcrw_self_rank": self_rank_pcrw,
        },
    )
