"""Tests for :class:`GraphDelta`, :meth:`Graph.apply_delta`, and the
:class:`InstanceSet` facts the incremental session rests on (frontier
incidence, component purity)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cliques import clique_instances
from repro.errors import GraphError
from repro.graph import Graph, GraphDelta, complete_graph, connected_components
from repro.graph.delta import _canonical_edges, _canonical_vertices

from helpers import random_graph


class TestCanonicalisation:
    def test_vertices_deduped_and_sorted(self):
        delta = GraphDelta(add_vertices=(3, 1, 3, 2, 1))
        assert delta.add_vertices == (1, 2, 3)

    def test_edges_oriented_and_deduped(self):
        delta = GraphDelta(add_edges=((2, 1), (1, 2), (3, 1)))
        assert delta.add_edges == ((1, 2), (1, 3))

    def test_mixed_label_types_are_ordered(self):
        delta = GraphDelta(add_vertices=("b", 2, "a", 1))
        assert set(delta.add_vertices) == {"a", "b", 1, 2}
        assert len(delta.add_vertices) == 4

    def test_self_loops_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            GraphDelta(add_edges=((1, 1),))

    def test_add_remove_vertex_overlap_rejected(self):
        with pytest.raises(GraphError):
            GraphDelta(add_vertices=(1,), remove_vertices=(1,))

    def test_add_remove_edge_overlap_rejected(self):
        with pytest.raises(GraphError):
            GraphDelta(add_edges=((1, 2),), remove_edges=((2, 1),))

    def test_added_edge_into_removed_vertex_rejected(self):
        with pytest.raises(GraphError):
            GraphDelta(add_edges=((1, 2),), remove_vertices=(2,))

    def test_canonical_helpers_match_constructor(self):
        assert _canonical_vertices([2, 1, 2]) == (1, 2)
        assert _canonical_edges([(2, 1)], "add_edges") == ((1, 2),)

    def test_touched_vertices_covers_everything(self):
        delta = GraphDelta(
            add_vertices=(9,),
            remove_vertices=(8,),
            add_edges=((1, 2),),
            remove_edges=((3, 4),),
        )
        assert delta.touched_vertices == frozenset({1, 2, 3, 4, 8, 9})

    def test_is_empty(self):
        assert GraphDelta().is_empty
        assert not GraphDelta(add_vertices=(1,)).is_empty


class TestContentKey:
    def test_order_insensitive(self):
        a = GraphDelta(add_edges=((1, 2), (3, 4)), remove_vertices=(7, 8))
        b = GraphDelta(add_edges=((4, 3), (2, 1)), remove_vertices=(8, 7))
        assert a.content_key() == b.content_key()

    def test_field_sensitive(self):
        assert (
            GraphDelta(add_edges=((1, 2),)).content_key()
            != GraphDelta(remove_edges=((1, 2),)).content_key()
        )
        assert (
            GraphDelta(add_vertices=(1,)).content_key()
            != GraphDelta(remove_vertices=(1,)).content_key()
        )


class TestJsonRoundTrip:
    def test_round_trip(self):
        delta = GraphDelta(
            add_vertices=(5,),
            remove_vertices=(6,),
            add_edges=((1, 2),),
            remove_edges=((3, 4),),
        )
        assert GraphDelta.from_json_dict(delta.to_json_dict()) == delta

    def test_unknown_keys_rejected_with_accepted_list(self):
        with pytest.raises(GraphError, match="accepted keys"):
            GraphDelta.from_json_dict({"add_edge": [[1, 2]]})

    def test_json_keys_matches_to_json_dict(self):
        assert set(GraphDelta.json_keys()) == set(GraphDelta().to_json_dict())

    def test_bool_labels_rejected(self):
        with pytest.raises(GraphError, match="labels must be"):
            GraphDelta.from_json_dict({"add_vertices": [True]})

    def test_malformed_edges_rejected(self):
        with pytest.raises(GraphError, match="pairs"):
            GraphDelta.from_json_dict({"add_edges": [[1, 2, 3]]})
        with pytest.raises(GraphError, match="must be a list"):
            GraphDelta.from_json_dict({"add_edges": 7})


class TestGraphApplyDelta:
    def test_apply_order_and_implicit_endpoints(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        graph.apply_delta(
            GraphDelta(
                add_vertices=(9,),
                add_edges=((2, 3),),  # endpoint 3 created implicitly
                remove_edges=((0, 1),),
            )
        )
        assert graph.has_vertex(9) and graph.has_vertex(3)
        assert graph.has_edge(2, 3) and not graph.has_edge(0, 1)

    def test_preconditions_adds_must_be_new(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta(add_vertices=(0,)))
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta(add_edges=((0, 1),)))

    def test_preconditions_removes_must_exist(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta(remove_vertices=(7,)))
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta(remove_edges=((0, 7),)))

    def test_atomicity_failed_delta_leaves_graph_unchanged(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        before_key = graph.content_key()
        before_epoch = graph.delta_epoch
        with pytest.raises(GraphError):
            # add_edges is valid, remove_vertices is not: nothing may apply.
            graph.apply_delta(
                GraphDelta(add_edges=((5, 6),), remove_vertices=(42,))
            )
        assert graph.content_key() == before_key
        assert graph.delta_epoch == before_epoch

    def test_epoch_moves_only_on_real_change(self):
        graph = Graph(edges=[(0, 1)])
        epoch = graph.delta_epoch
        graph.add_vertex(0)  # already present: no-op
        graph.add_edge(0, 1)  # already present: no-op
        assert graph.delta_epoch == epoch
        graph.add_edge(1, 2)
        assert graph.delta_epoch > epoch

    def test_content_key_memo_invalidated_by_mutation(self):
        graph = Graph(edges=[(0, 1)])
        key = graph.content_key()
        assert graph.content_key() == key  # memoised
        graph.apply_delta(GraphDelta(add_edges=((1, 2),)))
        assert graph.content_key() != key
        # And equals a fresh graph with the same content.
        assert graph.content_key() == Graph(edges=[(0, 1), (1, 2)]).content_key()

    def test_pickle_round_trip_preserves_content(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        graph.apply_delta(GraphDelta(add_edges=((2, 3),)))
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.content_key() == graph.content_key()
        assert sorted(clone.vertices()) == sorted(graph.vertices())


class TestInstanceSetDelta:
    def _instances(self, graph, h=3):
        return clique_instances(graph, h)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_indices_incident_matches_scan(self, h):
        # Dense enough to hold 4-cliques.
        graph = random_graph(14, 0.6, seed=3)
        instances = self._instances(graph, h)
        assert instances.num_instances
        for probe in ({0, 1}, {5}, {13, 2, 7}, set()):
            expected = [
                i
                for i, inst in enumerate(instances.instances)
                if any(v in probe for v in inst)
            ]
            assert instances.indices_incident(probe) == expected

    def test_purity_restrict_equals_local_enumeration(self):
        """The invariant the incremental engine rests on: enumerating the
        whole graph then restricting to a component gives exactly the rows,
        in the same order, as enumerating the component's induced subgraph —
        including after arbitrary mutation histories."""
        rng = random.Random(11)
        for seed in range(6):
            graph = random_graph(16, 0.3, seed=seed)
            for _ in range(8):  # interleaved mutations
                op = rng.choice(["add_edge", "remove_edge", "remove_vertex"])
                vertices = sorted(graph.vertices())
                if op == "add_edge" and len(vertices) >= 2:
                    u, v = rng.sample(vertices, 2)
                    graph.add_edge(u, v)
                elif op == "remove_edge" and graph.num_edges:
                    u, v = sorted(graph.edges())[rng.randrange(graph.num_edges)]
                    graph.remove_edge(u, v)
                elif op == "remove_vertex" and len(vertices) > 4:
                    graph.remove_vertex(rng.choice(vertices))
            for h in (2, 3):
                full = clique_instances(graph, h)
                for comp in connected_components(graph):
                    local = clique_instances(graph.induced_subgraph(comp), h)
                    restricted = full.restrict(comp)
                    assert list(restricted.instances) == list(local.instances)


class TestComponentsTouching:
    def test_indices_in_order(self):
        from repro.graph import components_touching

        comps = [{0, 1}, {2, 3}, {4}]
        assert components_touching(comps, {3, 4}) == [1, 2]
        assert components_touching(comps, {9}) == []
        assert components_touching(comps, {0, 4}) == [0, 2]


def test_complete_graph_delta_smoke():
    graph = complete_graph(5)
    graph.apply_delta(GraphDelta(remove_vertices=(0,)))
    assert graph.num_vertices == 4 and graph.num_edges == 6
