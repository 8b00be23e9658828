"""Oracles and aliasing checks for the copy-free cold path.

* ``Graph.induced_subgraph`` builds by set intersection; it must match the
  old ``add_edge`` loop (``reference_induced_subgraph``) in vertex order
  and adjacency, and it must stay a copy.
* ``connected_components(graph, S)`` splits a subset on the host graph; it
  must return the old split of ``reference_induced_subgraph(graph, S)``
  (``reference_connected_components``) as an ordered list, also after the
  graph mutates between calls, and the whole-graph split must match it too.
* ``clique_instances`` interns the kClist rank buffer in one pass; it must
  match the builder path (``reference_clique_instances``) id for id.
* ``InstanceSet.restrict`` and ``count_within`` answer a candidate that
  covers every interned vertex with the receiver itself.
"""

from __future__ import annotations

import random

import pytest

from helpers import (
    reference_clique_instances,
    reference_connected_components,
    reference_induced_subgraph,
)
from repro.cliques.kclist import clique_instances
from repro.datasets.synthetic import (
    barabasi_albert_graph,
    gnp_graph,
    hybrid_community_graph,
    planted_communities_graph,
)
from repro.engine import IncrementalSession, report_signature, solve
from repro.engine.cache import cache_for, cache_key
from repro.graph import Graph, GraphDelta, connected_components, cycle_graph
from repro.instances import InstanceSet
from repro.patterns.clique import CliquePattern

#: Seeded graphs; each contributes several subsets, so the split and the
#: induced-subgraph oracles see well over 300 (graph, subset) cases.
NUM_GRAPHS = 120


def _string_labelled(graph: Graph, seed: int) -> Graph:
    """The graph with string labels and a shuffled insertion order."""
    rng = random.Random(seed)
    order = graph.vertices()
    rng.shuffle(order)
    edges = [(f"v{u}", f"v{v}") for u, v in graph.edges()]
    rng.shuffle(edges)
    return Graph(edges=edges, vertices=[f"v{v}" for v in order])


def _graph(seed: int) -> Graph:
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        return gnp_graph(rng.randint(0, 40), rng.choice([0.03, 0.08, 0.15, 0.3]), seed=seed)
    if kind == 1:
        return hybrid_community_graph(rng.randint(2, 6), rng.randint(4, 8), seed=seed)
    if kind == 2:
        sizes = [rng.randint(3, 7) for _ in range(rng.randint(2, 4))]
        graph, _ = planted_communities_graph(
            sizes, p_out=0.05, seed=seed, background=rng.randint(0, 10)
        )
        return graph
    return _string_labelled(gnp_graph(rng.randint(1, 30), 0.12, seed=seed), seed)


def _subsets(graph: Graph, seed: int):
    """A random half, a small sample, an empty set and one with absent labels."""
    rng = random.Random(seed * 7919 + 1)
    vertices = graph.vertices()
    half = [v for v in vertices if rng.random() < 0.5]
    small = rng.sample(vertices, min(len(vertices), rng.randint(1, 6)))
    absent = set(rng.sample(vertices, len(vertices) // 3)) | {"absent", -1, ("x", 2)}
    return [set(half), list(reversed(small)), frozenset(), absent]


def _cases():
    for seed in range(NUM_GRAPHS):
        graph = _graph(seed)
        for subset in _subsets(graph, seed):
            yield seed, graph, subset


def _adjacency(graph: Graph):
    return [(v, set(graph.neighbors(v))) for v in graph.vertices()]


def _interning(instances: InstanceSet):
    vertex_of = [instances.vertex_at(i) for i in range(instances.num_interned)]
    id_of = {v: instances.vertex_id(v) for v in vertex_of}
    return vertex_of, id_of, list(instances.flat_ids)


class TestInducedSubgraphOracle:
    def test_matches_add_edge_loop(self):
        checked = 0
        for seed, graph, subset in _cases():
            sub = graph.induced_subgraph(subset)
            reference = reference_induced_subgraph(graph, subset)
            assert _adjacency(sub) == _adjacency(reference), seed
            assert sub.content_key() == reference.content_key(), seed
            checked += 1
        assert checked >= 300

    def test_is_a_copy_even_when_covering(self):
        graph = gnp_graph(30, 0.2, seed=4)
        sub = graph.induced_subgraph(graph.vertices())
        assert sub is not graph and sub == graph
        for v in graph:
            assert sub.neighbors(v) is not graph.neighbors(v)
        before = sub.content_key()
        u, w = next((u, w) for u in graph for w in graph if u != w and not graph.has_edge(u, w))
        graph.add_edge(u, w)
        graph.remove_vertex(next(iter(graph)))
        assert sub.content_key() == before


class TestSubsetSplitOracle:
    def test_matches_split_of_induced_subgraph(self):
        checked = 0
        for seed, graph, subset in _cases():
            expected = reference_connected_components(graph, subset)
            assert connected_components(graph, subset) == expected, seed
            checked += 1
        assert checked >= 300

    def test_argument_container_does_not_matter(self):
        graph = _string_labelled(hybrid_community_graph(5, 6, seed=2), 2)
        members = graph.vertices()[::2]
        expected = reference_connected_components(graph, members)
        for argument in (members, set(members), frozenset(members), reversed(members),
                         iter(members)):
            assert connected_components(graph, argument) == expected

    def test_whole_graph_subset_equals_plain_split(self):
        for seed in range(NUM_GRAPHS):
            graph = _graph(seed)
            expected = reference_connected_components(graph)
            assert connected_components(graph) == expected, seed
            assert connected_components(graph, graph.vertices()) == expected, seed

    def test_mutation_between_calls_drops_the_rank_memo(self):
        for seed in range(60):
            graph = _graph(seed)
            if graph.num_vertices < 3:
                continue
            rng = random.Random(seed)
            subset = set(rng.sample(graph.vertices(), graph.num_vertices // 2 + 1))
            assert connected_components(graph, subset) == reference_connected_components(
                graph, subset
            )
            # Re-inserting a subset vertex moves it to the end of the
            # insertion order, and a new vertex has no rank yet: a stale
            # memo would misorder the first case and drop the second.
            moved = sorted(subset, key=repr)[0]
            neighbours = list(graph.neighbors(moved))
            graph.remove_vertex(moved)
            graph.add_vertex(moved)
            for u in neighbours:
                graph.add_edge(moved, u)
            graph.add_edge(("new", seed), moved)
            subset.add(("new", seed))
            assert connected_components(graph, subset) == reference_connected_components(
                graph, subset
            ), seed

    def test_order_follows_host_insertion_order(self):
        graph = Graph(edges=[("c", "d"), ("a", "b"), ("e", "f")], vertices=["e"])
        assert connected_components(graph, {"a", "b", "c", "d", "e", "f"}) == [
            {"e", "f"},
            {"c", "d"},
            {"a", "b"},
        ]
        assert connected_components(graph, set()) == []
        assert connected_components(graph, ["zz"]) == []


def _no_clique_graphs():
    star = Graph(edges=[(0, i) for i in range(1, 8)])
    bipartite = Graph(edges=[(i, j) for i in range(4) for j in range(4, 9)])
    return [Graph(), Graph(vertices=[1, 2]), cycle_graph(7), star, bipartite]


class TestFlatInterningOracle:
    @pytest.mark.parametrize("h", [3, 4, 5, 6])
    def test_matches_builder_path(self, h):
        graphs = [_graph(seed) for seed in range(40)]
        graphs += [gnp_graph(16, 0.7, seed=seed) for seed in range(10)]
        graphs += _no_clique_graphs()
        with_cliques = 0
        for index, graph in enumerate(graphs):
            fast = clique_instances(graph, h)
            reference = reference_clique_instances(graph, h)
            assert fast.h == reference.h == h
            assert _interning(fast) == _interning(reference), index
            assert fast == reference
            with_cliques += fast.num_instances > 0
        assert with_cliques >= 10

    def test_from_flat_interns_in_first_appearance_order(self):
        labels = ["a", "b", "c", "d", "e"]
        built = InstanceSet.from_flat(2, labels, [3, 1, 1, 0, 3, 0])
        assert _interning(built) == (["d", "b", "a"], {"d": 0, "b": 1, "a": 2}, [0, 1, 1, 2, 0, 2])
        assert built.vertex_id("c") is None
        empty = InstanceSet.from_flat(3, labels, [])
        assert empty.num_instances == 0 and empty.num_interned == 0


class TestIdentityRestriction:
    def _instances(self):
        graph = hybrid_community_graph(6, 7, seed=3)
        return graph, clique_instances(graph, 3)

    def test_covering_candidate_returns_the_receiver(self):
        graph, instances = self._instances()
        covering = set(graph.vertices())
        assert covering > instances.vertices(), "needs instance-free vertices too"
        for candidate in (covering, instances.vertices(), list(covering) + ["absent"]):
            assert instances.restrict(candidate) is instances
            assert instances.count_within(candidate) == instances.num_instances
        # A restricted copy would carry the same interning.
        copy = instances.select(range(instances.num_instances))
        assert _interning(copy) == _interning(instances)
        assert instances.scan_restrict(covering) == instances

    def test_missing_one_interned_vertex_is_a_real_restriction(self):
        graph, instances = self._instances()
        covering = set(graph.vertices())
        for vertex in sorted(instances.vertices(), key=repr)[:12]:
            candidate = covering - {vertex}
            restricted = instances.restrict(candidate)
            assert restricted is not instances
            assert restricted == instances.scan_restrict(candidate)
            count = instances.count_within(candidate)
            assert count == instances.scan_count_within(candidate) < instances.num_instances

    def test_empty_set_restricts_to_itself(self):
        empty = clique_instances(cycle_graph(6), 3)
        assert empty.restrict(range(6)) is empty
        assert empty.count_within(set()) == 0


class TestSubgraphAliasing:
    def test_session_component_survives_a_delta_elsewhere(self):
        graph = barabasi_albert_graph(80, 3, seed=2)
        assert len(connected_components(graph)) == 1
        session = IncrementalSession(graph, 3)
        (kept,), _ = session._prepared()
        before = kept.subgraph.content_key()
        session.apply_delta(GraphDelta(add_edges=(("p", "q"),)))
        (after,), _ = session._prepared()
        assert after.subgraph is kept.subgraph
        assert after.subgraph.content_key() == before
        assert graph.content_key() != before
        warm = session.solve(solver="ippv", k=5)
        cold = solve(graph=graph.copy(), pattern=3, solver="ippv", k=5)
        assert report_signature(warm) == report_signature(cold)

    def test_cached_component_keeps_pre_delta_content(self, tmp_path):
        graph = barabasi_albert_graph(60, 3, seed=5)
        assert len(connected_components(graph)) == 1
        pattern = CliquePattern(3)
        before = graph.content_key()
        key = cache_key(graph, pattern)
        solve(graph=graph, pattern=pattern, k=3, solver="ippv", cache_dir=str(tmp_path))
        u, w = next(
            (u, w) for u in graph for w in graph if u != w and not graph.has_edge(u, w)
        )
        graph.apply_delta(GraphDelta(add_edges=((u, w),)))
        components, _, state = cache_for(str(tmp_path)).fetch(key)
        assert state == "hit-memory"
        assert components[0].subgraph.content_key() == before
        assert graph.content_key() != before
