"""Shared fixtures: the paper's toy graphs and small generated networks.

Session-scoped where generation is non-trivial; the graphs are treated as
immutable by every test (mutating tests build their own).
"""

from __future__ import annotations

import pytest

from repro.datasets.acm import AcmNetwork, make_acm_network
from repro.datasets.dblp import DblpNetwork, make_dblp_four_area
from repro.datasets.random_hin import make_random_bipartite
from repro.datasets.toy import fig4_network, fig5_network
from repro.core.engine import HeteSimEngine


@pytest.fixture()
def fig4():
    """The Fig. 4 / Example 2 toy network (fresh per test)."""
    return fig4_network()


@pytest.fixture()
def fig5():
    """The Fig. 5(a) bipartite toy network (fresh per test)."""
    return fig5_network()


@pytest.fixture(scope="session")
def acm() -> AcmNetwork:
    """A small synthetic ACM-like network (shared; do not mutate)."""
    return make_acm_network(
        seed=0,
        venues_per_conference=3,
        papers_per_venue=12,
        authors_per_community=10,
    )


@pytest.fixture(scope="session")
def acm_full() -> AcmNetwork:
    """The default-size ACM network used by the experiment tests."""
    return make_acm_network(seed=0)


@pytest.fixture(scope="session")
def dblp() -> DblpNetwork:
    """A small synthetic DBLP-like network (shared; do not mutate)."""
    return make_dblp_four_area(
        seed=0,
        authors_per_area=25,
        papers_per_conference=20,
        labeled_papers_per_area=10,
    )


@pytest.fixture(scope="session")
def bipartite():
    """A random bipartite network (shared; do not mutate)."""
    return make_random_bipartite(n_a=12, n_b=9, edge_prob=0.35, seed=3)


@pytest.fixture()
def fig4_engine(fig4) -> HeteSimEngine:
    return HeteSimEngine(fig4)


@pytest.fixture(scope="session")
def skewed():
    """Two 900-object types around a 6-object one (shared; do not
    mutate): the size skew under which a chain's association order
    matters (the planner bench's network)."""
    from repro.datasets.random_hin import make_random_hin
    from repro.hin.schema import NetworkSchema

    schema = NetworkSchema.from_spec(
        types=[("a", "A"), ("b", "B"), ("c", "C")],
        relations=[("ab", "a", "b"), ("bc", "b", "c")],
    )
    return make_random_hin(
        schema,
        sizes={"a": 900, "b": 900, "c": 6},
        edge_prob=6.0 / 900,
        edge_probs={"bc": 0.5},
        seed=0,
        ensure_connected_rows=True,
    )


@pytest.fixture()
def traced():
    """The process-wide tracer, enabled and emptied for one test.

    Materialisation is observed through its ``plan.execute`` /
    ``plan.step`` spans; the tracer is disabled and emptied again
    afterwards.
    """
    from repro.obs import TRACER

    TRACER.reset()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()
