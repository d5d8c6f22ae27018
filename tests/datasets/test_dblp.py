"""Tests for the synthetic DBLP four-area generator."""

from repro.datasets.dblp import FOUR_AREAS, make_dblp_four_area


class TestStructure:
    def test_twenty_conferences(self, dblp):
        assert dblp.graph.num_nodes("conference") == 20
        assert len(dblp.conferences) == 20

    def test_four_areas_of_five(self):
        assert len(FOUR_AREAS) == 4
        for confs in FOUR_AREAS.values():
            assert len(confs) == 5

    def test_schema_types(self, dblp):
        names = {t.name for t in dblp.graph.schema.object_types}
        assert names == {"author", "paper", "conference", "term"}

    def test_every_paper_has_conference_author_terms(self, dblp):
        graph = dblp.graph
        for paper in graph.node_keys("paper")[:40]:
            assert len(graph.out_neighbors("published_in", paper)) == 1
            assert graph.in_neighbors("writes", paper)
            assert graph.out_neighbors("contains", paper)


class TestLabels:
    def test_all_conferences_labelled(self, dblp):
        assert set(dblp.conference_labels) == set(
            dblp.graph.node_keys("conference")
        )

    def test_all_authors_labelled(self, dblp):
        assert set(dblp.author_labels) == set(dblp.graph.node_keys("author"))

    def test_paper_label_subset(self, dblp):
        assert 0 < len(dblp.paper_labels) < dblp.graph.num_nodes("paper")
        for paper in dblp.paper_labels:
            assert dblp.graph.has_node("paper", paper)

    def test_labels_in_range(self, dblp):
        for label in dblp.conference_labels.values():
            assert 0 <= label < 4
        assert set(dblp.conference_labels.values()) == {0, 1, 2, 3}

    def test_paper_labels_match_conference_area(self, dblp):
        graph = dblp.graph
        for paper, label in list(dblp.paper_labels.items())[:20]:
            conf = graph.out_neighbors("published_in", paper)[0][0]
            assert dblp.conference_labels[conf] == label

    def test_area_names_align_with_labels(self, dblp):
        assert len(dblp.area_names) == 4
        for conf, label in dblp.conference_labels.items():
            area = dblp.area_names[label]
            assert conf in FOUR_AREAS[area]


class TestSignal:
    def test_authors_publish_mostly_at_home(self, dblp):
        """The planted within-area signal the AUC/NMI tasks rely on."""
        graph = dblp.graph
        home, away = 0, 0
        for author in graph.node_keys("author"):
            area = dblp.author_labels[author]
            for paper, _ in graph.out_neighbors("writes", author):
                conf = graph.out_neighbors("published_in", paper)[0][0]
                if dblp.conference_labels[conf] == area:
                    home += 1
                else:
                    away += 1
        assert home > away

    def test_deterministic(self):
        kwargs = dict(
            seed=5, authors_per_area=10, papers_per_conference=8,
            labeled_papers_per_area=4,
        )
        first = make_dblp_four_area(**kwargs)
        second = make_dblp_four_area(**kwargs)
        assert first.graph.num_edges() == second.graph.num_edges()
        assert first.author_labels == second.author_labels
