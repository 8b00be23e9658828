"""Tests for InstanceSet, clique enumeration and clique-core decomposition."""

from fractions import Fraction
from math import comb

import pytest

from repro.cliques import (
    clique_count_profile,
    clique_instances,
    count_cliques,
    enumerate_cliques,
    subgraph_clique_count,
    triangle_count,
)
from repro.cores import peel
from repro.errors import AlgorithmError
from repro.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph, union_graph
from repro.instances import InstanceSet

from helpers import clique_degrees, clique_density, list_cliques, random_graph


class TestInstanceSet:
    def test_from_instances_builds_membership(self):
        inst = InstanceSet.from_instances(2, [(0, 1), (1, 2)])
        assert inst.num_instances == 2
        assert inst.degree(1) == 2
        assert inst.degree(0) == 1
        assert inst.degree(99) == 0

    def test_wrong_arity_rejected(self):
        with pytest.raises(AlgorithmError):
            InstanceSet.from_instances(3, [(0, 1)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(AlgorithmError):
            InstanceSet.from_instances(2, [(0, 0)])

    def test_invalid_h_rejected(self):
        with pytest.raises(AlgorithmError):
            InstanceSet.from_instances(0, [])

    def test_restrict_keeps_only_fully_contained(self):
        inst = InstanceSet.from_instances(3, [(0, 1, 2), (1, 2, 3)])
        sub = inst.restrict({0, 1, 2})
        assert sub.num_instances == 1

    def test_count_within_and_density(self):
        inst = InstanceSet.from_instances(3, [(0, 1, 2), (1, 2, 3)])
        assert inst.count_within({0, 1, 2, 3}) == 2
        assert inst.density_of({0, 1, 2}) == Fraction(1, 3)

    def test_density_of_empty_raises(self):
        inst = InstanceSet.from_instances(2, [(0, 1)])
        with pytest.raises(AlgorithmError):
            inst.density_of(set())

    def test_len_and_iter(self):
        inst = InstanceSet.from_instances(2, [(0, 1), (2, 3)])
        assert len(inst) == 2
        assert set(inst) == {(0, 1), (2, 3)}


class TestCliqueEnumeration:
    def test_k5_counts_all_sizes(self):
        g = complete_graph(5)
        for h in range(1, 6):
            assert count_cliques(g, h) == comb(5, h)

    def test_h1_lists_vertices(self):
        g = path_graph(3)
        assert sorted(list_cliques(g, 1)) == [(0,), (1,), (2,)]

    def test_h2_lists_edges(self):
        g = path_graph(4)
        cliques = {frozenset(c) for c in enumerate_cliques(g, 2)}
        assert cliques == {frozenset(e) for e in g.edges()}

    def test_no_duplicates(self):
        g = complete_graph(6)
        cliques = list_cliques(g, 3)
        assert len(cliques) == len({frozenset(c) for c in cliques}) == 20

    def test_empty_graph(self):
        assert count_cliques(Graph(), 3) == 0

    def test_invalid_h_raises(self):
        with pytest.raises(AlgorithmError):
            count_cliques(complete_graph(3), 0)

    def test_triangle_free_graph(self):
        assert count_cliques(cycle_graph(5), 3) == 0
        assert count_cliques(star_graph(5), 3) == 0

    def test_oversized_h_finds_nothing_without_sizing_buffers(self):
        # No vertex has h - 1 out-neighbours, so the kernel must answer
        # before it sizes any buffer by h.
        g = complete_graph(4)
        assert count_cliques(g, 10**12) == 0
        instances = clique_instances(g, 10**12)
        assert instances.num_instances == 0
        assert instances.h == 10**12

    def test_cross_check_against_triangle_count(self):
        for seed in range(10):
            g = random_graph(9, 0.45, seed)
            assert count_cliques(g, 3) == triangle_count(g)

    def test_clique_degrees(self):
        g = complete_graph(4)
        degrees = clique_degrees(g, 3)
        assert all(d == 3 for d in degrees.values())

    def test_clique_degrees_include_zero_vertices(self):
        g = path_graph(3)
        degrees = clique_degrees(g, 3)
        assert set(degrees) == {0, 1, 2}
        assert all(d == 0 for d in degrees.values())

    def test_clique_density(self):
        assert clique_density(complete_graph(5), 3) == Fraction(10, 5)
        with pytest.raises(AlgorithmError):
            clique_density(Graph(), 3)

    def test_clique_count_profile(self):
        profile = clique_count_profile(complete_graph(4), 4)
        assert profile == {1: 4, 2: 6, 3: 4, 4: 1}

    def test_subgraph_clique_count_matches_direct(self):
        g = union_graph(complete_graph(5), Graph(edges=[(10, 11), (11, 12), (10, 12)]))
        inst = clique_instances(g, 3)
        assert subgraph_clique_count(g, 3, range(5), inst) == 10
        assert subgraph_clique_count(g, 3, range(5)) == 10


class TestCliqueCore:
    def test_clique_core_of_clique(self):
        g = complete_graph(5)
        inst = clique_instances(g, 3)
        core = peel(inst, g.vertices()).core
        assert all(c == 6 for c in core.values())  # C(4,2) triangles per vertex

    def test_clique_core_zero_for_triangle_free(self):
        g = cycle_graph(6)
        inst = clique_instances(g, 3)
        core = peel(inst, g.vertices()).core
        assert all(c == 0 for c in core.values())

    def test_clique_core_mixed_graph(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        core = peel(inst, two_cliques.vertices()).core
        assert core[0] == 6       # K5 member
        assert core[10] == 3      # K4 member
        assert core[20] == 0      # bridge vertex

    def test_core_restricted_universe(self):
        g = complete_graph(5)
        inst = clique_instances(g, 3)
        core = peel(inst, {0, 1, 2}).core
        assert all(c == 1 for c in core.values())
