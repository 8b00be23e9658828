"""Tests for components, orderings, metrics and edge-list IO."""

import math
import random

import pytest

from helpers import degeneracy, random_graph, reference_degeneracy_ordering, shifted

from repro.cliques import clique_instances
from repro.cores import peel
from repro.errors import GraphError, GraphFormatError
from repro.graph import (
    Graph,
    average_clustering_coefficient,
    average_degree,
    bfs_order,
    complete_graph,
    connected_components,
    cycle_graph,
    degeneracy_ordering,
    degree_density,
    diameter,
    eccentricity,
    edge_density,
    graph_from_edge_string,
    is_connected,
    local_clustering_coefficient,
    parse_edge_list,
    path_graph,
    read_edge_list,
    shortest_path_lengths,
    star_graph,
    union_graph,
    write_edge_list,
)


class TestComponents:
    def test_bfs_order_covers_component(self):
        g = path_graph(5)
        assert set(bfs_order(g, 0)) == set(range(5))

    def test_bfs_missing_source_raises(self):
        with pytest.raises(GraphError):
            bfs_order(Graph(), 0)

    def test_connected_components_counts(self):
        g = union_graph(complete_graph(3), Graph(edges=[(10, 11)]), Graph(vertices=[99]))
        comps = connected_components(g)
        assert len(comps) == 3
        assert {frozenset(c) for c in comps} == {
            frozenset({0, 1, 2}),
            frozenset({10, 11}),
            frozenset({99}),
        }

    def test_is_connected(self):
        assert is_connected(complete_graph(4))
        assert not is_connected(Graph(vertices=[1, 2]))
        assert not is_connected(Graph())

    def test_shortest_path_lengths(self):
        g = path_graph(4)
        assert shortest_path_lengths(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_eccentricity_and_diameter(self):
        g = path_graph(4)
        assert eccentricity(g, 0) == 3
        assert eccentricity(g, 1) == 2
        assert diameter(g) == 3
        assert diameter(complete_graph(5)) == 1

    def test_diameter_of_subset(self):
        g = complete_graph(5)
        assert diameter(g, [0, 1, 2]) == 1

    def test_diameter_errors(self):
        with pytest.raises(GraphError):
            diameter(Graph())
        with pytest.raises(GraphError):
            diameter(Graph(vertices=[1, 2]))


class TestOrdering:
    def test_degeneracy_of_clique(self):
        assert degeneracy(complete_graph(5)) == 4

    def test_degeneracy_of_tree(self):
        assert degeneracy(star_graph(6)) == 1

    def test_degeneracy_ordering_property(self):
        g = complete_graph(4)
        g.add_edge(3, 4)
        order, rank, d = degeneracy_ordering(g)
        assert set(order) == set(g.vertices())
        assert d == 3
        # each vertex has at most d neighbours later in the order
        for v in g:
            later = [u for u in g.neighbors(v) if rank[u] > rank[v]]
            assert len(later) <= d

    # Edge core numbers are the instance peel at h = 2.
    def test_edge_core_numbers_of_clique(self):
        g = complete_graph(4)
        core = peel(clique_instances(g, 2), g.vertices()).core
        assert core == {v: 3 for v in g}

    def test_edge_core_numbers_of_star(self):
        g = star_graph(5)
        core = peel(clique_instances(g, 2), g.vertices()).core
        assert core == {v: 1 for v in g}

    def test_edge_three_core(self):
        g = union_graph(complete_graph(4), path_graph(3))
        core = peel(clique_instances(g, 2), g.vertices()).core
        assert {v for v, c in core.items() if c >= 3} == {0, 1, 2, 3}

    def test_empty_graph_degeneracy(self):
        assert degeneracy(Graph()) == 0


def _mutated(graph, rng):
    """The graph after a seeded add-edge/remove-edge/remove-vertex history."""
    for _ in range(rng.randint(1, 40)):
        vertices = graph.vertices()
        op = rng.random()
        if op < 0.5 or len(vertices) < 2:
            graph.add_edge(rng.randint(0, 70), rng.randint(0, 70))
        elif op < 0.8:
            graph.remove_edge(*rng.sample(vertices, 2))
        else:
            graph.remove_vertex(rng.choice(vertices))
    return graph


def _string_labelled(graph, rng):
    """The same structure over string labels, inserted in a shuffled order."""
    label = {v: f"v{v}" for v in graph}
    vertices = list(label.values())
    rng.shuffle(vertices)
    return Graph(vertices=vertices, edges=[(label[u], label[v]) for u, v in graph.edges()])


def _interleaved_union(rng, case):
    """Two or three disjoint random parts whose vertices interleave in insertion order."""
    parts = [
        shifted(random_graph(rng.randint(0, 30), rng.uniform(0.02, 0.6), 7 * case + i), 100 * i)
        for i in range(rng.randint(2, 3))
    ]
    vertices = [v for part in parts for v in part]
    rng.shuffle(vertices)
    return Graph(vertices=vertices, edges=[e for part in parts for e in part.edges()]), parts


class TestDegeneracyOrderingOracle:
    """The bucket queue against the heap it replaced: the same order, rank
    and degeneracy, which kClist's emission order, the interning and the
    session's component purity rest on."""

    def test_seeded_graphs_match_oracle(self):
        kinds = {"plain": 0, "history": 0, "strings": 0, "union": 0}
        for case in range(400):
            rng = random.Random(case)
            graph = random_graph(rng.randint(0, 60), rng.uniform(0.02, 0.6), case)
            if case % 4 == 1:
                # Order once first, so the history must refresh the
                # insertion-rank memo the ordering reads.
                degeneracy_ordering(graph)
                graph, kind = _mutated(graph, rng), "history"
            elif case % 4 == 2:
                graph, kind = _string_labelled(graph, rng), "strings"
            elif case % 4 == 3:
                graph, parts = _interleaved_union(rng, case)
                kind = "union"
            else:
                kind = "plain"
            kinds[kind] += 1
            result = degeneracy_ordering(graph)
            assert result == reference_degeneracy_ordering(graph), (case, kind)
            if kind == "union":
                # Purity: each part keeps its own order inside the union.
                order = result[0]
                for part in parts:
                    members = set(part)
                    local = degeneracy_ordering(graph.induced_subgraph(members))[0]
                    assert [v for v in order if v in members] == local
        assert kinds == {"plain": 100, "history": 100, "strings": 100, "union": 100}

    def test_empty_and_edgeless_graphs(self):
        assert degeneracy_ordering(Graph()) == ([], {}, 0)
        assert degeneracy_ordering(Graph(vertices=[3, 1, 2])) == ([3, 1, 2], {3: 0, 1: 1, 2: 2}, 0)


class TestMetrics:
    def test_edge_density_of_clique_is_one(self):
        assert edge_density(complete_graph(6)) == 1.0

    def test_edge_density_single_vertex(self):
        assert edge_density(Graph(vertices=[1])) == 0.0

    def test_edge_density_empty_raises(self):
        with pytest.raises(GraphError):
            edge_density(Graph())

    def test_degree_density_exact(self):
        from fractions import Fraction

        assert degree_density(complete_graph(4)) == Fraction(6, 4)

    def test_average_degree(self):
        assert average_degree(complete_graph(5)) == 4.0
        assert average_degree(Graph()) == 0.0

    def test_clustering_coefficient_clique(self):
        g = complete_graph(5)
        assert local_clustering_coefficient(g, 0) == 1.0
        assert average_clustering_coefficient(g) == 1.0

    def test_clustering_coefficient_star(self):
        g = star_graph(4)
        assert local_clustering_coefficient(g, 0) == 0.0

    def test_clustering_low_degree_vertex_is_zero(self):
        g = path_graph(3)
        assert local_clustering_coefficient(g, 0) == 0.0

    def test_clustering_of_cycle(self):
        assert math.isclose(average_clustering_coefficient(cycle_graph(5)), 0.0)

    def test_average_clustering_empty_raises(self):
        with pytest.raises(GraphError):
            average_clustering_coefficient(Graph())


class TestIO:
    def test_parse_edge_list_with_comments(self):
        text = """# comment
        % another comment
        1 2
        2 3 0.5
        """
        g = graph_from_edge_string(text)
        assert g.num_edges == 2
        assert g.has_edge(1, 2)

    def test_parse_string_labels(self):
        g = graph_from_edge_string("alice bob\nbob carol")
        assert g.has_edge("alice", "bob")

    def test_parse_bad_line_raises(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list(["only_one_token"])

    def test_roundtrip_through_file(self, tmp_path):
        g = complete_graph(4)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded == g

    def test_as_int_false_keeps_strings(self):
        g = parse_edge_list(["1 2"], as_int=False)
        assert g.has_edge("1", "2")
