"""Unit tests for the typed sparse graph."""

import numpy as np
import pytest

from repro.hin.errors import GraphError, SchemaError
from repro.hin.graph import HeteroGraph
from repro.hin.schema import NetworkSchema


@pytest.fixture()
def schema():
    return NetworkSchema.from_spec(
        [("author", "A"), ("paper", "P")],
        [("writes", "author", "paper")],
    )


@pytest.fixture()
def graph(schema):
    g = HeteroGraph(schema)
    g.add_edge("writes", "alice", "p1")
    g.add_edge("writes", "alice", "p2")
    g.add_edge("writes", "bob", "p2")
    return g


class TestNodes:
    def test_add_node_returns_index(self, schema):
        g = HeteroGraph(schema)
        assert g.add_node("author", "alice") == 0
        assert g.add_node("author", "bob") == 1

    def test_add_node_idempotent(self, schema):
        g = HeteroGraph(schema)
        first = g.add_node("author", "alice")
        again = g.add_node("author", "alice")
        assert first == again
        assert g.num_nodes("author") == 1

    def test_same_key_different_types_are_distinct(self, schema):
        g = HeteroGraph(schema)
        g.add_node("author", "x")
        g.add_node("paper", "x")
        assert g.num_nodes("author") == 1
        assert g.num_nodes("paper") == 1

    def test_node_index_and_key_roundtrip(self, graph):
        idx = graph.node_index("author", "bob")
        assert graph.node_key("author", idx) == "bob"

    def test_node_index_unknown_raises(self, graph):
        with pytest.raises(GraphError):
            graph.node_index("author", "ghost")

    def test_node_key_out_of_range_raises(self, graph):
        with pytest.raises(GraphError):
            graph.node_key("author", 99)

    def test_unknown_type_raises_schema_error(self, graph):
        with pytest.raises(SchemaError):
            graph.add_node("ghost", "x")
        with pytest.raises(SchemaError):
            graph.node_keys("ghost")

    def test_add_nodes_bulk(self, schema):
        g = HeteroGraph(schema)
        indices = g.add_nodes("paper", ["p1", "p2", "p1"])
        assert indices == [0, 1, 0]

    def test_node_keys_is_copy(self, graph):
        keys = graph.node_keys("author")
        keys.append("mallory")
        assert "mallory" not in graph.node_keys("author")

    def test_key_ranks_are_sorted_key_positions(self, schema):
        g = HeteroGraph(schema)
        keys = ["mallory", "bob", "carol", "alice", "b10", "b2"]
        g.add_nodes("author", keys)
        ranks = g.key_ranks("author")
        ordered = sorted(keys)
        assert ranks.tolist() == [ordered.index(key) for key in keys]
        assert ranks.dtype == np.intp
        assert g.key_ranks("author") is ranks
        with pytest.raises(ValueError):
            ranks[0] = 0

    def test_key_ranks_follow_new_nodes(self, graph):
        before = graph.key_ranks("author").copy()
        graph.add_node("author", "aaron")
        after = graph.key_ranks("author")
        assert after[:-1].tolist() == (before + 1).tolist()
        assert after[-1] == 0
        with pytest.raises(SchemaError):
            graph.key_ranks("ghost")

    def test_num_nodes_total(self, graph):
        assert graph.num_nodes() == graph.num_nodes("author") + graph.num_nodes("paper")

    def test_has_node(self, graph):
        assert graph.has_node("author", "alice")
        assert not graph.has_node("author", "ghost")


class TestEdges:
    def test_edge_creates_endpoints(self, schema):
        g = HeteroGraph(schema)
        g.add_edge("writes", "carol", "p9")
        assert g.has_node("author", "carol")
        assert g.has_node("paper", "p9")

    def test_num_edges(self, graph):
        assert graph.num_edges("writes") == 3
        assert graph.num_edges() == 3

    def test_num_edges_inverse_name(self, graph):
        assert graph.num_edges("writes^-1") == 3

    def test_inverse_edge_stored_forward(self, schema):
        g = HeteroGraph(schema)
        g.add_edge("writes^-1", "p1", "alice")
        assert g.adjacency("writes")[
            g.node_index("author", "alice"), g.node_index("paper", "p1")
        ] == 1.0

    def test_negative_weight_rejected(self, schema):
        g = HeteroGraph(schema)
        with pytest.raises(GraphError):
            g.add_edge("writes", "alice", "p1", weight=-1.0)

    def test_parallel_edges_accumulate(self, schema):
        g = HeteroGraph(schema)
        g.add_edge("writes", "alice", "p1")
        g.add_edge("writes", "alice", "p1")
        matrix = g.adjacency("writes")
        assert matrix[0, 0] == 2.0
        assert g.num_edges("writes") == 2

    def test_add_edges_bulk(self, schema):
        g = HeteroGraph(schema)
        g.add_edges("writes", [("a", "p1"), ("b", "p2")])
        assert g.num_edges("writes") == 2


class TestAdjacency:
    def test_shape(self, graph):
        matrix = graph.adjacency("writes")
        assert matrix.shape == (
            graph.num_nodes("author"),
            graph.num_nodes("paper"),
        )

    def test_values(self, graph):
        matrix = graph.adjacency("writes").toarray()
        alice = graph.node_index("author", "alice")
        bob = graph.node_index("author", "bob")
        p1 = graph.node_index("paper", "p1")
        p2 = graph.node_index("paper", "p2")
        assert matrix[alice, p1] == 1
        assert matrix[alice, p2] == 1
        assert matrix[bob, p2] == 1
        assert matrix[bob, p1] == 0

    def test_inverse_is_transpose(self, graph):
        forward = graph.adjacency("writes").toarray()
        backward = graph.adjacency("writes^-1").toarray()
        np.testing.assert_array_equal(backward, forward.T)

    def test_adjacency_reflects_later_mutation(self, graph):
        before = graph.adjacency("writes").nnz
        graph.add_edge("writes", "carol", "p3")
        after = graph.adjacency("writes").nnz
        assert after == before + 1

    def test_weighted_edges(self, schema):
        g = HeteroGraph(schema)
        g.add_edge("writes", "alice", "p1", weight=2.5)
        assert g.adjacency("writes")[0, 0] == 2.5


class TestNeighbors:
    def test_out_neighbors(self, graph):
        neighbors = dict(graph.out_neighbors("writes", "alice"))
        assert neighbors == {"p1": 1.0, "p2": 1.0}

    def test_in_neighbors(self, graph):
        neighbors = dict(graph.in_neighbors("writes", "p2"))
        assert neighbors == {"alice": 1.0, "bob": 1.0}

    def test_out_neighbors_of_inverse(self, graph):
        neighbors = dict(graph.out_neighbors("writes^-1", "p1"))
        assert neighbors == {"alice": 1.0}

    def test_no_neighbors(self, graph):
        graph.add_node("author", "lurker")
        assert graph.out_neighbors("writes", "lurker") == []

    def test_degree(self, graph):
        assert graph.degree("writes", "alice") == 2.0
        assert graph.degree("writes^-1", "p2") == 2.0


class TestSummary:
    def test_summary_mentions_counts(self, graph):
        text = graph.summary()
        assert "author: 2 nodes" in text
        assert "3 edges" in text


class TestRelationVersions:
    def test_inverse_name_reports_the_forward_version(self, graph):
        """A forward name and its inverse are one relation: they report
        the same version after edge insertions under either name and
        after node insertions into either endpoint type."""

        def same():
            assert graph.relation_version("writes^-1") == (
                graph.relation_version("writes")
            )
            return graph.relation_version("writes")

        versions = [same()]
        graph.add_edge("writes", "carol", "p3")
        versions.append(same())
        graph.add_edge("writes^-1", "p1", "bob")
        versions.append(same())
        graph.add_node("author", "dave")
        versions.append(same())
        graph.add_node("paper", "p9")
        versions.append(same())
        assert versions == sorted(set(versions))
        assert graph.relations_signature(["writes", "writes^-1"]) == (
            versions[-1],
            versions[-1],
        )

    @pytest.mark.parametrize("name", ["cites", "cites^-1", "writes^-1^-1"])
    def test_unknown_name_raises_schema_error(self, graph, name):
        with pytest.raises(SchemaError):
            graph.relation_version(name)


class TestConcurrentMutation:
    def test_concurrent_add_edge_never_loses_version_bumps(self, schema):
        """Version counters are read-modify-write: without the mutation
        lock, racing ``+= 1`` bumps lose updates, so a later mutation
        can reuse an already-observed version and every staleness check
        keyed on it silently serves stale data."""
        import sys
        import threading

        graph = HeteroGraph(schema)
        graph.add_node("author", "alice")
        graph.add_node("paper", "p1")
        before = graph.relation_version("writes")
        threads_n, per_thread = 4, 300
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def mutate():
                for _ in range(per_thread):
                    graph.add_edge("writes", "alice", "p1")

            threads = [
                threading.Thread(target=mutate) for _ in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)
        total = threads_n * per_thread
        assert graph.num_edges("writes") == total
        assert graph.relation_version("writes") - before == total

    def test_adjacency_tolerates_a_torn_append(self, graph):
        """``matrix()`` builds from the first ``len(weights)`` entries:
        a mutator pre-empted between its list appends must not crash a
        concurrent reader (weights is appended last, so that prefix of
        all three lists is always mutually consistent)."""
        complete = graph.adjacency("writes").nnz
        edges = graph._edges["writes"]
        # Simulate a mutator frozen mid-add: row/col published,
        # weight (and the version bump) still pending.
        edges.rows.append(0)
        edges.cols.append(0)
        edges._csr = None
        torn_view = graph.adjacency("writes")
        assert torn_view.nnz == complete
