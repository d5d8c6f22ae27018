"""Pruned top-k search (Section 4.6, item 3) on the ladder's prune rung.

The prune rung of :class:`~repro.runtime.resilience.ResilientRuntime`
drops the smallest entries of the query's forward distribution, up to
``prune_mass`` of probability, before scoring.  Each unit of dropped
mass moves a raw meeting probability by at most itself, so raw scores
stay within the reported ``dropped_forward_mass`` of exact.
"""

import pytest

from repro.core.engine import HeteSimEngine
from repro.hin.errors import QueryError
from repro.runtime.resilience import ResilientRuntime, Strategy


def prune_rung(graph, mass=0.0):
    """A runtime whose only strategy is an unenforced prune rung."""
    return ResilientRuntime(
        graph,
        policy=(Strategy("prune", prune_mass=mass, enforced=False),),
    )


class TestExactMode:
    def test_matches_engine_ranking(self, acm):
        graph = acm.graph
        engine = HeteSimEngine(graph)
        path = graph.schema.path("APVC")
        hub = acm.personas["hub_author"]
        result = prune_rung(graph).top_k(hub, path, k=5)
        assert result.strategy == "prune"
        assert "dropped_forward_mass" not in result.accuracy
        assert result.value == engine.top_k(hub, path, k=5)

    def test_reports_pruning_statistics(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVC")
        young = acm.personas["young_sigir"]
        result = prune_rung(graph, mass=0.05).top_k(young, path, k=5)
        assert result.strategy == "prune" and not result.degraded
        assert 0 <= result.accuracy["dropped_forward_mass"] < 0.05
        assert [a.strategy for a in result.attempts] == ["prune"]

    def test_prunes_most_candidates_for_focused_author(self, acm):
        """A one-conference author overlaps few conferences: most targets
        score 0 -- the paper's 'very small percentage' claim."""
        graph = acm.graph
        path = graph.schema.path("APVC")
        young = acm.personas["young_sigcomm"]
        n_targets = graph.num_nodes("conference")
        ranking = prune_rung(graph).top_k(young, path, k=n_targets).value
        zero = sum(1 for _, score in ranking if score == 0.0)
        assert zero / n_targets > 0.5

    def test_raw_mode(self, fig4):
        path = fig4.schema.path("APC")
        result = prune_rung(fig4).top_k("Tom", path, k=1, normalized=False)
        assert result.value[0] == ("KDD", pytest.approx(0.5))


class TestMassPruning:
    def test_tolerance_bounds_dropped_mass(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVC")
        hub = acm.personas["hub_author"]
        result = prune_rung(graph, mass=0.05).top_k(hub, path, k=5)
        assert 0 < result.accuracy["dropped_forward_mass"] < 0.05

    def test_top1_stable_under_small_threshold(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVC")
        hub = acm.personas["hub_author"]
        exact = prune_rung(graph).top_k(hub, path, k=1).value
        approx = prune_rung(graph, mass=0.01).top_k(hub, path, k=1).value
        assert approx[0][0] == exact[0][0]

    def test_scores_stay_in_unit_interval(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVC")
        hub = acm.personas["hub_author"]
        result = prune_rung(graph, mass=0.05).top_k(hub, path, k=14)
        for _, score in result.value:
            assert -1e-12 <= score <= 1 + 1e-9

    def test_raw_error_bounded_by_dropped_mass(self, acm):
        graph = acm.graph
        path = graph.schema.path("APVC")
        hub = acm.personas["hub_author"]
        exact = dict(
            HeteSimEngine(graph).top_k(hub, path, k=14, normalized=False)
        )
        approx = prune_rung(graph, mass=0.03).top_k(
            hub, path, k=14, normalized=False
        )
        dropped = approx.accuracy["dropped_forward_mass"]
        assert dropped > 0
        for key, score in approx.value:
            assert abs(score - exact[key]) <= dropped + 1e-12


class TestValidation:
    def test_bad_k(self, fig4):
        # k clamps like a slice instead of raising.
        path = fig4.schema.path("APC")
        assert prune_rung(fig4).top_k("Tom", path, k=0).value == []

    def test_negative_tolerance(self, fig4):
        with pytest.raises(QueryError):
            Strategy("prune", prune_mass=-0.1, enforced=False)

    def test_unknown_source(self, fig4):
        path = fig4.schema.path("APC")
        with pytest.raises(QueryError):
            prune_rung(fig4).top_k("ghost", path)

    def test_dangling_source(self, fig4):
        fig4.add_node("author", "lurker")
        path = fig4.schema.path("APC")
        result = prune_rung(fig4, mass=0.05).top_k("lurker", path, k=2)
        assert result.accuracy["dropped_forward_mass"] == 0.0
        assert all(score == 0.0 for _, score in result.value)
