"""Unit tests for the paper's reconstructed toy networks."""

from repro.datasets.toy import fig4_network


class TestFig4:
    def test_sizes(self, fig4):
        assert fig4.num_nodes("author") == 3
        assert fig4.num_nodes("paper") == 4
        assert fig4.num_nodes("conference") == 2

    def test_tom_wrote_p1_p2(self, fig4):
        papers = {k for k, _ in fig4.out_neighbors("writes", "Tom")}
        assert papers == {"p1", "p2"}

    def test_kdd_papers(self, fig4):
        papers = {k for k, _ in fig4.in_neighbors("published_in", "KDD")}
        assert papers == {"p1", "p2"}

    def test_mary_bridges_conferences(self, fig4):
        papers = {k for k, _ in fig4.out_neighbors("writes", "Mary")}
        venues = set()
        for paper in papers:
            venues.update(
                k for k, _ in fig4.out_neighbors("published_in", paper)
            )
        assert venues == {"KDD", "SIGMOD"}

    def test_fresh_instance_per_call(self):
        first = fig4_network()
        second = fig4_network()
        assert first is not second


class TestFig5:
    def test_sizes(self, fig5):
        assert fig5.num_nodes("a") == 3
        assert fig5.num_nodes("b") == 4
        assert fig5.num_edges("r") == 6

    def test_b3_links_only_a2(self, fig5):
        sources = {k for k, _ in fig5.in_neighbors("r", "b3")}
        assert sources == {"a2"}

    def test_a2_links_three_objects(self, fig5):
        targets = {k for k, _ in fig5.out_neighbors("r", "a2")}
        assert targets == {"b2", "b3", "b4"}

    def test_schema_is_single_relation(self, fig5):
        assert len(fig5.schema.relations) == 1
        assert fig5.schema.is_heterogeneous  # two object types
