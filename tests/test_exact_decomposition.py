"""The exact decomposition's breakpoint search against its oracles.

``diminishingly_dense_decomposition`` finds every layer boundary with one
minimum cut between two known boundaries.  These tests pin it to
``reference_decomposition`` (one constrained Dinkelbach search per layer on
the whole universe), to the brute-force compact numbers, to IPPV's top-k,
and to its cut count: exactly 2L - 1 cuts for L positive-density layers,
none of them on an instance that lies wholly inside its forced set.
``maximal_densest_subset`` is the search's first layer: it equals the
Dinkelbach oracle ``seeded_densest_subset`` with an empty seed, cuts only
inside the previous cut's source side, and never cuts more often.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import helpers
import repro.densest.exact as exact_module
from repro.cliques import clique_instances
from repro.datasets.synthetic import barabasi_albert_graph, gnp_graph
from repro.densest import diminishingly_dense_decomposition, maximal_densest_subset
from repro.engine import solve
from repro.graph import complete_graph, path_graph, union_graph
from repro.instances import InstanceSet
from repro.lhcds.exact import exact_compact_numbers, exact_top_k_lhcds
from repro.lhcds.reference import brute_force_compact_numbers
from repro.patterns import four_vertex_patterns

from helpers import (
    random_graph,
    reference_decomposition,
    reference_lhcds,
    seeded_densest_subset,
    shifted,
    signature,
)


class CutLog:
    """Wraps ``solve_compact_network`` as the search sees it."""

    def __init__(self, solve_compact_network):
        self._solve = solve_compact_network
        self.calls = 0
        self.instances_inside_forced = 0
        #: Per cut: the vertices of the network's instances and the source side.
        self.networks = []

    def __call__(self, instances, rho, **kwargs):
        self.calls += 1
        forced = set(kwargs.get("forced", ()))
        self.instances_inside_forced += sum(forced.issuperset(inst) for inst in instances)
        source_side = self._solve(instances, rho, **kwargs)
        self.networks.append((instances.vertices(), set(source_side)))
        return source_side


@pytest.fixture
def cuts(monkeypatch):
    log = CutLog(exact_module.solve_compact_network)
    monkeypatch.setattr(exact_module, "solve_compact_network", log)
    return log


@pytest.fixture
def oracle_cuts(monkeypatch):
    log = CutLog(helpers.solve_compact_network)
    monkeypatch.setattr(helpers, "solve_compact_network", log)
    return log


def _check_against_reference(instances, universe, cuts):
    """The search equals the oracle and spends 2L - 1 clean cuts."""
    before = cuts.calls
    layers = list(diminishingly_dense_decomposition(instances, universe))
    assert layers == reference_decomposition(instances, universe)
    positive = sum(1 for _, density in layers if density > 0)
    assert cuts.calls - before == max(2 * positive - 1, 0)
    assert cuts.instances_inside_forced == 0
    return layers


class TestAgainstReference:
    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_random_cliques_match_reference(self, h, cuts):
        # 260 seeded G(n, p) graphs per h; every fourth case decomposes a
        # random sub-universe, so some instances leave it.
        multi_layer = 0
        for case in range(260):
            rng = random.Random(1000 * h + case)
            n = rng.randint(3, 26)
            graph = random_graph(n, rng.uniform(0.1, 0.7), 1000 * h + case)
            universe = sorted(graph.vertices())
            if case % 4 == 3:
                universe = rng.sample(universe, rng.randint(1, n))
            layers = _check_against_reference(clique_instances(graph, h), universe, cuts)
            multi_layer += sum(1 for _, density in layers if density > 0) > 1
        assert multi_layer > 30

    @pytest.mark.parametrize("name", sorted(four_vertex_patterns()))
    def test_four_vertex_patterns_match_reference(self, name, cuts):
        pattern = four_vertex_patterns()[name]
        for case in range(80):
            rng = random.Random(case)
            graph = random_graph(rng.randint(4, 14), rng.uniform(0.2, 0.7), case)
            _check_against_reference(pattern.instances(graph), graph.vertices(), cuts)

    def test_compact_numbers_match_brute_force(self):
        for case in range(30):
            rng = random.Random(case)
            graph = random_graph(rng.randint(3, 9), rng.uniform(0.3, 0.8), case)
            h = 2 + case % 3
            instances = clique_instances(graph, h)
            brute = brute_force_compact_numbers(graph, instances)
            exact = exact_compact_numbers(instances, graph.vertices())
            assert exact == {v: brute.get(v, Fraction(0)) for v in graph.vertices()}

    @pytest.mark.parametrize("n", [40, 60, 80])
    def test_exact_top_k_matches_ippv(self, n):
        for seed in range(3):
            graph = gnp_graph(n, 6 / n + 0.05 * seed, seed=seed)
            reports = {
                solver: solve(graph=graph, pattern=3, k=8, solver=solver)
                for solver in ("exact", "ippv")
            }
            assert signature(reports["exact"]) == signature(reports["ippv"])
            assert reports["exact"].subgraphs


def _check_densest_subset(instances, universe, cuts, oracle_cuts):
    """The first layer is the oracle's set, found on nested networks.

    Returns the cuts the search and the oracle spent.
    """
    oracle_before = oracle_cuts.calls
    expected = seeded_densest_subset(instances.restrict(universe), universe, ())
    oracle_spent = oracle_cuts.calls - oracle_before
    first = len(cuts.networks)
    assert maximal_densest_subset(instances, universe) == expected
    networks = cuts.networks[first:]
    for (_, previous_side), (members, _) in zip(networks, networks[1:]):
        assert members <= previous_side
    assert len(networks) <= oracle_spent
    return len(networks), oracle_spent


class TestMaximalDensestSubset:
    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_random_cliques_match_dinkelbach(self, h, cuts, oracle_cuts):
        # 220 seeded G(n, p) graphs per h; every third case takes a random
        # sub-universe, so some instances leave it and some universes
        # hold none.
        search_total = oracle_total = descents = 0
        for case in range(220):
            rng = random.Random(7000 * h + case)
            n = rng.randint(3, 26)
            graph = random_graph(n, rng.uniform(0.1, 0.7), 7000 * h + case)
            universe = sorted(graph.vertices())
            if case % 3 == 2:
                universe = rng.sample(universe, rng.randint(1, n))
            search, oracle = _check_densest_subset(
                clique_instances(graph, h), universe, cuts, oracle_cuts
            )
            search_total += search
            oracle_total += oracle
            descents += search > 1
        assert descents > 20
        assert search_total < oracle_total

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_instance_free_vertices_match_dinkelbach(self, h, cuts, oracle_cuts):
        # Isolated vertices, and for h >= 3 a pendant one, lie in no
        # instance: the oracle's first guess counts them, the search's not.
        for case in range(40):
            rng = random.Random(9000 * h + case)
            graph = random_graph(rng.randint(4, 16), rng.uniform(0.3, 0.8), 9000 * h + case)
            for extra in range(1 + case % 3):
                graph.add_vertex(100 + extra)
            graph.add_edge(0, 200)
            _check_densest_subset(
                clique_instances(graph, h), graph.vertices(), cuts, oracle_cuts
            )

    @pytest.mark.parametrize("name", sorted(four_vertex_patterns()))
    def test_four_vertex_patterns_match_dinkelbach(self, name, cuts, oracle_cuts):
        pattern = four_vertex_patterns()[name]
        for case in range(40):
            rng = random.Random(500 + case)
            graph = random_graph(rng.randint(4, 14), rng.uniform(0.2, 0.7), 500 + case)
            universe = sorted(graph.vertices())
            if case % 3 == 2:
                universe = rng.sample(universe, rng.randint(1, len(universe)))
            _check_densest_subset(pattern.instances(graph), universe, cuts, oracle_cuts)

    def test_no_instance_makes_the_universe_its_own_densest_set(self, cuts):
        graph = path_graph(5)
        instances = clique_instances(graph, 3)
        assert maximal_densest_subset(instances, graph.vertices()) == (
            set(range(5)),
            Fraction(0),
        )
        assert cuts.calls == 0


class TestLayerShapes:
    def test_instance_free_vertex_forms_the_zero_layer(self, cuts):
        graph = complete_graph(4)
        graph.add_edge(3, 9)
        instances = clique_instances(graph, 3)
        layers = _check_against_reference(instances, graph.vertices(), cuts)
        assert layers == [({0, 1, 2, 3}, Fraction(1)), ({9}, Fraction(0))]

    def test_empty_universe(self, cuts):
        instances = clique_instances(complete_graph(4), 3)
        assert list(diminishingly_dense_decomposition(instances, [])) == []
        assert list(diminishingly_dense_decomposition(InstanceSet.from_instances(3, []))) == []
        assert cuts.calls == 0

    def test_universe_without_instances_is_one_zero_layer(self, cuts):
        graph = path_graph(5)
        layers = _check_against_reference(clique_instances(graph, 3), graph.vertices(), cuts)
        assert layers == [(set(range(5)), Fraction(0))]
        assert cuts.calls == 0

    def test_single_layer_universe_takes_one_cut(self, cuts):
        graph = complete_graph(5)
        layers = _check_against_reference(clique_instances(graph, 3), graph.vertices(), cuts)
        assert layers == [(set(range(5)), Fraction(2))]
        assert cuts.calls == 1

    def test_disjoint_cliques_come_out_densest_first(self, cuts):
        graph = union_graph(complete_graph(4), shifted(complete_graph(6), 10))
        graph = union_graph(graph, shifted(complete_graph(5), 20))
        layers = _check_against_reference(clique_instances(graph, 3), graph.vertices(), cuts)
        assert [density for _, density in layers] == [
            Fraction(20, 6),
            Fraction(2),
            Fraction(1),
        ]
        assert layers[0][0] == set(range(10, 16))
        assert cuts.calls == 5


class TestTopK:
    """``exact_top_k_lhcds`` reads each layer's LhCDSes as the search yields it."""

    def test_lhcds_list_skips_level_zero_and_keeps_order(self):
        # Two K5s tie at density 2; the path and the isolated vertex form
        # level-0 components that are never reported.  The tied K5s come in
        # the report's order, by the repr of their sorted vertices, not in
        # insertion order, so k = 2 keeps the same K5 as IPPV does.
        graph = union_graph(
            shifted(complete_graph(5), 30),
            complete_graph(4),
            shifted(complete_graph(6), 10),
            shifted(complete_graph(5), 20),
            shifted(path_graph(3), 40),
        )
        graph.add_vertex(99)
        instances = clique_instances(graph, 3)
        expected = [
            (set(range(10, 16)), Fraction(20, 6)),
            (set(range(20, 25)), Fraction(2)),
            (set(range(30, 35)), Fraction(2)),
            (set(range(4)), Fraction(1)),
        ]
        assert reference_lhcds(graph, instances) == expected
        assert exact_top_k_lhcds(graph, instances) == expected
        for k in range(1, 6):
            assert exact_top_k_lhcds(graph, instances, k) == expected[:k]

    @pytest.mark.parametrize("h", [3, 4])
    def test_matches_full_enumeration(self, h):
        # 120 seeded graphs per h: G(n, p) alone or beside shifted cliques,
        # so levels hold several LhCDSes and some LhCDSes touch denser ones.
        several = 0
        for case in range(120):
            rng = random.Random(100 * h + case)
            graph = random_graph(rng.randint(4, 22), rng.uniform(0.15, 0.7), 100 * h + case)
            if case % 2:
                sizes = [rng.randint(h, 7) for _ in range(3)]
                cliques = [shifted(complete_graph(n), 100 * (i + 1)) for i, n in enumerate(sizes)]
                graph = union_graph(graph, *cliques)
                graph.add_edge(0, 100)
            instances = clique_instances(graph, h)
            full = reference_lhcds(graph, instances)
            several += len(full) > 2
            for k in (None, 1, 2, 3, len(full) + 1):
                expected = full if k is None else full[:k]
                assert exact_top_k_lhcds(graph, instances, k) == expected
        assert several > 30

    def test_stops_once_k_are_certified(self, cuts):
        # Seven disjoint cliques: seven layers of distinct density, each one
        # LhCDS, so the full search takes 2 * 7 - 1 cuts.
        graph = union_graph(*[shifted(complete_graph(n), 10 * n) for n in range(4, 11)])
        instances = clique_instances(graph, 3)
        full = exact_top_k_lhcds(graph, instances)
        assert len(full) == 7 and cuts.calls == 13
        for k in range(1, 7):
            before = cuts.calls
            assert exact_top_k_lhcds(graph, instances, k) == full[:k]
            assert cuts.calls - before < 13

    def test_power_law_top_10_needs_every_cut(self, cuts):
        # exact-powerlaw's graph holds fewer than 10 LhCDSes in its 13
        # layers, so the search cannot stop early.
        graph = barabasi_albert_graph(3000, 4, seed=1)
        top = exact_top_k_lhcds(graph, clique_instances(graph, 3), 10)
        assert cuts.calls == 25
        assert 0 < len(top) < 10


class TestCutCount:
    def test_power_law_graph_takes_25_cuts_for_13_layers(self, cuts):
        # The per-layer Dinkelbach search needed 61 cuts here.
        graph = barabasi_albert_graph(3000, 4, seed=1)
        layers = list(
            diminishingly_dense_decomposition(clique_instances(graph, 3), graph.vertices())
        )
        positive = [density for _, density in layers if density > 0]
        assert len(positive) == 13
        assert positive == sorted(positive, reverse=True)
        assert cuts.calls == 25
        assert cuts.instances_inside_forced == 0
