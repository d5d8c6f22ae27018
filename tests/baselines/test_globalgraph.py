"""Dedicated tests for the type-flattened global index."""

from repro.baselines.globalgraph import build_global_index
from repro.hin.graph import HeteroGraph
from repro.hin.schema import NetworkSchema


class TestBuildGlobalIndex:
    def test_offsets_follow_schema_order(self, fig4):
        index = build_global_index(fig4)
        assert index.offsets["author"] == 0
        assert index.offsets["paper"] == fig4.num_nodes("author")
        assert index.offsets["conference"] == fig4.num_nodes(
            "author"
        ) + fig4.num_nodes("paper")

    def test_every_label_roundtrips(self, fig4):
        index = build_global_index(fig4)
        for otype in fig4.schema.object_types:
            for local, key in enumerate(fig4.node_keys(otype.name)):
                global_index = index.index_of(otype.name, local)
                assert index.label_of(global_index) == (otype.name, key)

    def test_adjacency_is_directed(self, fig4):
        index = build_global_index(fig4)
        matrix = index.adjacency.toarray()
        # Forward edges only: author rows -> paper columns populated,
        # the transpose block empty.
        a_slice = index.type_slice("author", fig4.num_nodes("author"))
        p_slice = index.type_slice("paper", fig4.num_nodes("paper"))
        assert matrix[a_slice, p_slice].sum() > 0
        assert matrix[p_slice, a_slice].sum() == 0

    def test_edge_count_preserved(self, fig4):
        index = build_global_index(fig4)
        assert index.adjacency.nnz == fig4.num_edges()

    def test_empty_relationless_graph(self):
        schema = NetworkSchema.from_spec([("a", "A"), ("b", "B")], [])
        graph = HeteroGraph(schema)
        graph.add_node("a", "x")
        graph.add_node("b", "y")
        index = build_global_index(graph)
        assert index.num_nodes == 2
        assert index.adjacency.nnz == 0

    def test_weighted_edges_carried(self):
        schema = NetworkSchema.from_spec(
            [("a", "A"), ("b", "B")], [("r", "a", "b")]
        )
        graph = HeteroGraph(schema)
        graph.add_edge("r", "x", "y", weight=3.5)
        index = build_global_index(graph)
        i = index.index_of("a", 0)
        j = index.index_of("b", 0)
        assert index.adjacency[i, j] == 3.5

    def test_type_slice_bounds(self, fig4):
        index = build_global_index(fig4)
        block = index.type_slice("paper", fig4.num_nodes("paper"))
        assert block.stop - block.start == fig4.num_nodes("paper")
