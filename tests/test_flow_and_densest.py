"""Tests for the max-flow machinery and the exact/greedy densest subgraph code."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from repro.cliques import clique_instances
from repro.cores import peel
from repro.densest import greedy_densest_subset, maximal_densest_subset
from repro.errors import AlgorithmError, FlowError
from repro.flow import FractionalArcCollector, MaxFlowNetwork, solve_compact_network
from repro.graph import Graph, complete_graph, cycle_graph, union_graph
from repro.instances import InstanceSet

from helpers import random_graph, seeded_densest_subset


class TestDinic:
    def test_simple_path(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "a", 5)
        net.add_edge("a", "t", 3)
        assert net.solve("s", "t") == 3

    def test_parallel_paths(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "a", 4)
        net.add_edge("s", "b", 4)
        net.add_edge("a", "t", 3)
        net.add_edge("b", "t", 5)
        assert net.solve("s", "t") == 7

    def test_classic_network(self):
        # Standard textbook example with a crossing edge.
        net = MaxFlowNetwork()
        edges = [
            ("s", "a", 10), ("s", "b", 10), ("a", "b", 2),
            ("a", "t", 4), ("a", "c", 8), ("b", "c", 9),
            ("c", "t", 10),
        ]
        for u, v, c in edges:
            net.add_edge(u, v, c)
        assert net.solve("s", "t") == 14

    def test_min_cut_minimal_side(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("a", "t", 100)
        net.solve("s", "t")
        assert net.min_cut_source_side("s") == {"s"}

    def test_min_cut_maximal_side(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("a", "t", 1)
        net.solve("s", "t")
        # Both cuts have value 1; the maximal source side includes "a".
        assert net.min_cut_source_side("s", maximal=True) == {"s", "a"}

    def test_negative_capacity_rejected(self):
        net = MaxFlowNetwork()
        with pytest.raises(FlowError):
            net.add_edge("a", "b", -1)

    def test_missing_source_raises(self):
        net = MaxFlowNetwork()
        net.add_edge("a", "b", 1)
        with pytest.raises(FlowError):
            net.max_flow("zzz", "b")

    def test_same_source_sink_raises(self):
        net = MaxFlowNetwork()
        net.add_edge("a", "b", 1)
        with pytest.raises(FlowError):
            net.max_flow("a", "a")

    def test_zero_capacity_edges(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "a", 0)
        net.add_edge("a", "t", 5)
        assert net.solve("s", "t") == 0


class TestFractionalArcCollector:
    def test_scaling_to_integers(self):
        collector = FractionalArcCollector()
        collector.add("s", "a", Fraction(1, 3))
        collector.add("a", "t", Fraction(1, 2))
        net, scale = collector.build()
        assert scale == 6
        assert net.solve("s", "t") == 2  # min(1/3, 1/2) * 6

    def test_negative_capacity_rejected(self):
        collector = FractionalArcCollector()
        with pytest.raises(FlowError):
            collector.add("a", "b", Fraction(-1, 2))


def brute_force_max_gain(instances: InstanceSet, vertices, rho: Fraction, forced=()):
    """max of |Psi(A)| - rho * |A| over forced ⊆ A ⊆ vertices, plus its largest argmax."""
    forced = set(forced)
    rest = [v for v in vertices if v not in forced]
    best_value, best_set = None, None
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            subset = forced | set(extra)
            value = instances.count_within(subset) - rho * len(subset)
            if best_value is None or (value, len(subset)) > (best_value, len(best_set)):
                best_value, best_set = value, subset
    return best_value, best_set


def brute_force_marginal_density(instances: InstanceSet, vertices, seed):
    """Highest (|Psi(A)| - |Psi(seed)|) / (|A| - |seed|) over seed ⊊ A ⊆ vertices,
    plus the largest A attaining it."""
    base = instances.count_within(seed)
    rest = [v for v in vertices if v not in seed]
    best_density, best_set = None, None
    for r in range(1, len(rest) + 1):
        for extra in combinations(rest, r):
            subset = set(seed) | set(extra)
            density = Fraction(instances.count_within(subset) - base, r)
            if best_density is None or (density, r) > (best_density, len(best_set) - len(seed)):
                best_density, best_set = density, subset
    return best_density, best_set


def graph_with_instance_free_vertices(seed: int):
    """A random graph on at most 8 vertices plus one or two vertices in no triangle."""
    g = random_graph(4 + seed % 5, 0.6, seed)
    g.add_edge(0, 100)  # a pendant vertex
    if seed % 2:
        g.add_vertex(101)  # an isolated vertex
    return g


#: A threshold whose scaled capacities overflow int64.
HUGE_DENOMINATOR_RHO = Fraction(2**70 + 1, 2**71)


class TestCompactNetwork:
    def test_matches_brute_force_maximiser(self):
        for seed in range(6):
            g = random_graph(7, 0.5, seed)
            inst = clique_instances(g, 3)
            if inst.num_instances == 0:
                continue
            rho = Fraction(1, 2)
            chosen = solve_compact_network(inst, rho, vertices=g.vertices())
            value = inst.count_within(chosen) - rho * len(chosen)
            best_value, best_set = brute_force_max_gain(inst, g.vertices(), rho)
            assert value == best_value
            assert chosen == best_set

    @pytest.mark.parametrize(
        "rho", [Fraction(0), Fraction(1, 2), HUGE_DENOMINATOR_RHO], ids=["zero", "half", "huge"]
    )
    def test_forced_matches_brute_force_maximiser(self, rho):
        # Forced sets mix triangle vertices with the instance-free ones,
        # which get no node in the network.
        for seed in range(8):
            g = graph_with_instance_free_vertices(seed)
            inst = clique_instances(g, 3)
            universe = sorted(g.vertices())
            rng = random.Random(seed)
            for trial in range(4):
                forced = set(rng.sample(universe, rng.randint(0, 3)))
                if trial == 3:
                    forced.add(100)
                chosen = solve_compact_network(inst, rho, vertices=universe, forced=forced)
                _, best_set = brute_force_max_gain(inst, universe, rho, forced)
                assert chosen == best_set, (seed, sorted(forced))

    def test_forced_and_instances_must_lie_in_the_universe(self):
        g = complete_graph(4)
        inst = clique_instances(g, 3)
        with pytest.raises(FlowError, match="outside the vertex universe"):
            solve_compact_network(inst, Fraction(1), vertices=g.vertices(), forced={99})
        with pytest.raises(FlowError, match="contain every instance"):
            solve_compact_network(inst, Fraction(1), vertices=[0, 1, 2])

    def test_zero_rho_selects_everything_covered(self):
        g = complete_graph(4)
        inst = clique_instances(g, 3)
        chosen = solve_compact_network(inst, Fraction(0), vertices=g.vertices())
        assert chosen == set(g.vertices())

    def test_high_rho_selects_nothing(self):
        g = complete_graph(4)
        inst = clique_instances(g, 3)
        chosen = solve_compact_network(inst, Fraction(100), vertices=g.vertices())
        assert chosen == set()


class TestExactDensest:
    def test_clique_is_densest(self):
        g = complete_graph(6)
        inst = clique_instances(g, 3)
        subset, density = maximal_densest_subset(inst, g.vertices())
        assert subset == set(range(6))
        assert density == Fraction(20, 6)

    def test_prefers_denser_component(self):
        g = union_graph(complete_graph(5), Graph(edges=[(10, 11), (11, 12), (10, 12)]))
        inst = clique_instances(g, 3)
        subset, density = maximal_densest_subset(inst, g.vertices())
        assert subset == set(range(5))
        assert density == Fraction(2)

    def test_matches_brute_force(self):
        for seed in range(8):
            g = random_graph(8, 0.5, seed + 100)
            inst = clique_instances(g, 3)
            _, density = maximal_densest_subset(inst, g.vertices())
            best = Fraction(0)
            for r in range(1, 9):
                for subset in combinations(g.vertices(), r):
                    best = max(best, Fraction(inst.count_within(subset), r))
            assert density == best

    def test_maximality_of_returned_set(self):
        # Two disjoint K4s: the maximal densest subgraph is their union.
        g = union_graph(complete_graph(4))
        for u, v in combinations(range(10, 14), 2):
            g.add_edge(u, v)
        inst = clique_instances(g, 3)
        subset, density = maximal_densest_subset(inst, g.vertices())
        assert subset == set(range(4)) | set(range(10, 14))
        assert density == Fraction(1)

    def test_seeded_marginal_density(self):
        # The oracle's constrained search, forcing the K5 shell.
        g = union_graph(complete_graph(5), Graph(edges=[(10, 11), (11, 12), (10, 12)]))
        inst = clique_instances(g, 3)
        subset, marginal = seeded_densest_subset(inst, g.vertices(), set(range(5)))
        assert subset >= set(range(5))
        assert marginal == Fraction(1, 3)

    def test_seeded_matches_brute_force_marginal_density(self):
        for seed in range(8):
            g = graph_with_instance_free_vertices(seed)
            inst = clique_instances(g, 3)
            universe = sorted(g.vertices())
            rng = random.Random(100 + seed)
            for size in (0, 1, 2, 3):
                seed_set = set(rng.sample(universe, size))
                if size == 3:
                    seed_set.add(100)
                result = seeded_densest_subset(inst, set(universe), seed_set)
                expected = brute_force_marginal_density(inst, universe, seed_set)
                assert result == (expected[1], expected[0]), (seed, sorted(seed_set))

    def test_empty_universe_rejected(self):
        inst = InstanceSet.from_instances(2, [])
        with pytest.raises(AlgorithmError):
            maximal_densest_subset(inst, [])


class TestGreedy:
    def test_peel_order_covers_universe(self):
        g = complete_graph(5)
        inst = clique_instances(g, 3)
        order = peel(inst, g.vertices()).order
        assert sorted(order) == list(range(5))

    def test_greedy_lower_bounds_exact(self):
        for seed in range(6):
            g = random_graph(9, 0.4, seed + 50)
            inst = clique_instances(g, 3)
            if inst.num_instances == 0:
                continue
            _, greedy_density = greedy_densest_subset(inst, g.vertices())
            _, exact_density = maximal_densest_subset(inst, g.vertices())
            assert greedy_density <= exact_density
            assert greedy_density >= exact_density / 3  # 1/h guarantee

    def test_greedy_on_clique_returns_clique(self):
        g = complete_graph(6)
        inst = clique_instances(g, 3)
        subset, density = greedy_densest_subset(inst, g.vertices())
        assert subset == set(range(6))
        assert density == Fraction(20, 6)

    def test_greedy_empty_universe_rejected(self):
        inst = InstanceSet.from_instances(2, [])
        with pytest.raises(AlgorithmError):
            greedy_densest_subset(inst, [])

    def test_triangle_free_graph(self):
        g = cycle_graph(6)
        inst = clique_instances(g, 3)
        subset, density = greedy_densest_subset(inst, g.vertices())
        assert density == 0
