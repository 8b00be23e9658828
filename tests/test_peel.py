"""The one instance peel against its oracle, plus its edge cases.

``repro.cores.peel`` serves Algorithm 1's bounds, Algorithm 3's rule 2 and
the Greedy baseline.  ``helpers.reference_peel`` is the dict-and-heap peel it
replaced, with a suffix scan that recounts every suffix; the two must agree
on the core numbers, the removal order, the densest suffix and its exact
density.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import random_graph, reference_peel, shifted

from repro.cliques import clique_instances
from repro.cores import peel
from repro.densest import greedy_densest_subset
from repro.errors import AlgorithmError
from repro.graph import Graph, complete_graph, cycle_graph, union_graph
from repro.instances import InstanceSet
from repro.patterns import four_vertex_patterns


def _assert_matches_oracle(instances, universe):
    order, core, suffix, density = reference_peel(instances, universe)
    result = peel(instances, universe)
    assert result.order == order
    assert result.core == core
    assert set(result.densest_suffix) == suffix
    if order:
        assert result.density == density
    return result


class TestAgainstOracle:
    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_random_graphs_match_oracle(self, h):
        # 260 seeded G(n, p) graphs per h; every third one peels a random
        # half of the vertices, so some instances leave the universe.
        partial = 0
        for case in range(260):
            rng = random.Random(100 * h + case)
            n = rng.randint(3, 30)
            graph = random_graph(n, rng.uniform(0.1, 0.7), 100 * h + case)
            universe = sorted(graph.vertices())
            if case % 3 == 2:
                universe = rng.sample(universe, n // 2)
                partial += 1
            _assert_matches_oracle(clique_instances(graph, h), universe)
        assert partial > 80

    @pytest.mark.parametrize("name", sorted(four_vertex_patterns()))
    def test_four_vertex_patterns_match_oracle(self, name):
        pattern = four_vertex_patterns()[name]
        for case in range(40):
            rng = random.Random(case)
            graph = random_graph(rng.randint(4, 14), rng.uniform(0.2, 0.7), case)
            _assert_matches_oracle(pattern.instances(graph), graph.vertices())

    def test_string_labels_peel_in_repr_order(self):
        graph = Graph(edges=[("b", "a"), ("a", "c"), ("c", "b"), ("c", "d"), ("e", "f")])
        result = _assert_matches_oracle(clique_instances(graph, 3), graph.vertices())
        assert result.order == ["d", "e", "f", "a", "b", "c"]


class TestEdgeCases:
    def test_vertex_in_no_instance_goes_first_with_core_zero(self):
        graph = union_graph(complete_graph(4), Graph(vertices=[10, 7]))
        result = peel(clique_instances(graph, 3), graph.vertices())
        assert result.core[7] == result.core[10] == 0
        # Both isolated vertices go first, in repr order ("10" < "7").
        assert result.order[:2] == [10, 7]
        assert set(result.densest_suffix) == {0, 1, 2, 3}
        assert result.density == 1

    def test_default_universe_is_the_covered_vertices(self):
        graph = union_graph(complete_graph(4), Graph(vertices=[9]))
        instances = clique_instances(graph, 3)
        assert set(peel(instances).order) == {0, 1, 2, 3}

    def test_empty_universe(self):
        instances = InstanceSet.from_instances(3, [])
        result = peel(instances, [])
        assert result.order == [] and result.core == {}
        with pytest.raises(AlgorithmError):
            greedy_densest_subset(instances, [])

    def test_triangle_free_universe_comes_back_whole(self):
        graph = cycle_graph(7)
        subset, density = greedy_densest_subset(clique_instances(graph, 3), graph.vertices())
        assert subset == set(graph.vertices())
        assert density == Fraction(0)

    def test_ties_keep_the_largest_suffix(self):
        # Two disjoint K4s: every suffix that holds whole K4s has density 1,
        # and the oracle keeps the largest one, the whole universe.
        graph = union_graph(complete_graph(4), shifted(complete_graph(4), 10))
        result = _assert_matches_oracle(clique_instances(graph, 3), graph.vertices())
        assert result.suffix_start == 0
        assert result.density == 1
