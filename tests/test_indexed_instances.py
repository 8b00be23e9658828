"""Tests for the indexed InstanceSet core: equivalence with the full-scan
reference path, the id-level accessors, the restriction cache, and the
IPPV top-k early-stop bookkeeping that sits on top of it."""

from fractions import Fraction

import pytest

from repro.cliques import clique_instances
from repro.datasets import figure2_like_graph
from repro.graph import complete_graph
from repro.instances import InstanceSet, InstanceSetBuilder
from repro.lhcds import find_lhcds

from helpers import random_graph, small_random_graphs


class TestIndexedLayout:
    def test_builder_matches_from_instances(self):
        tuples = [(0, 1, 2), (1, 2, 3), (0, 2, 3)]
        built = InstanceSet.from_instances(3, tuples)
        builder = InstanceSetBuilder(3)
        builder.extend(tuples)
        assert builder.build() == built
        assert built.instances == tuple(tuples)

    def test_builder_is_spent_after_build(self):
        from repro.errors import AlgorithmError

        builder = InstanceSetBuilder(2)
        builder.add((0, 1))
        built = builder.build()
        with pytest.raises(AlgorithmError):
            builder.add((1, 2))
        with pytest.raises(AlgorithmError):
            builder.build()
        assert built.num_instances == 1

    def test_vertex_interning_roundtrip(self):
        inst = InstanceSet.from_instances(2, [("a", "b"), ("b", "c")])
        for v in ("a", "b", "c"):
            vid = inst.vertex_id(v)
            assert vid is not None
            assert inst.vertex_at(vid) == v
        assert inst.vertex_id("zzz") is None
        assert inst.num_interned == 3

    def test_csr_incidence_is_sorted_and_complete(self):
        g = complete_graph(6)
        inst = clique_instances(g, 3)
        for v in g.vertices():
            ids = inst.instances_containing(v)
            assert list(ids) == sorted(ids)
            assert len(ids) == inst.degree(v)
            assert all(v in inst.instances[i] for i in ids)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_indices_within_matches_scan(self, h):
        for g in small_random_graphs():
            inst = clique_instances(g, h)
            subset = set(list(g.vertices())[::2])
            expected = [
                i
                for i, tup in enumerate(inst.instances)
                if all(v in subset for v in tup)
            ]
            assert inst.indices_within(subset) == expected

    def test_restrict_preserves_instance_order(self):
        inst = InstanceSet.from_instances(2, [(3, 1), (0, 2), (1, 0), (2, 3)])
        sub = inst.restrict({0, 1, 2})
        assert sub.instances == ((0, 2), (1, 0))

    def test_restrict_cache_returns_same_object(self):
        g = complete_graph(5)
        inst = clique_instances(g, 3)
        first = inst.restrict({0, 1, 2, 3})
        second = inst.restrict({0, 1, 2, 3})
        assert first is second
        # Supersets of the covered universe hit the same cache entry.
        assert inst.restrict(set(g.vertices()) | {99}) is inst.restrict(g.vertices())

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_scan_reference_agrees_with_indexed(self, h):
        for g in small_random_graphs():
            inst = clique_instances(g, h)
            vertices = list(g.vertices())
            for subset in (set(vertices[:3]), set(vertices[1::2]), set(vertices)):
                assert inst.count_within(subset) == inst.scan_count_within(subset)
                assert inst.restrict(subset) == inst.scan_restrict(subset)


class TestOldPathNewPathEquivalence:
    """find_lhcds must be bit-identical between indexed and full-scan paths."""

    @pytest.fixture
    def fixture_graphs(self):
        graphs = [figure2_like_graph(), complete_graph(6)]
        graphs.extend(random_graph(10, 0.5, seed) for seed in range(4))
        return graphs

    def test_find_lhcds_unchanged_under_full_scan(self, fixture_graphs, monkeypatch):
        expected = [
            [(sorted(map(repr, s.vertices)), s.density) for s in find_lhcds(g, h=3).subgraphs]
            for g in fixture_graphs
        ]
        monkeypatch.setattr(InstanceSet, "restrict", InstanceSet.scan_restrict)
        monkeypatch.setattr(InstanceSet, "count_within", InstanceSet.scan_count_within)
        actual = [
            [(sorted(map(repr, s.vertices)), s.density) for s in find_lhcds(g, h=3).subgraphs]
            for g in fixture_graphs
        ]
        assert actual == expected
        for rows in expected:
            for _, density in rows:
                assert isinstance(density, Fraction)


class TestTopKEarlyStop:
    def test_topk_matches_full_run_prefix(self):
        """The running k-th-best early stop must not change top-k output."""
        graphs = [figure2_like_graph()] + [random_graph(11, 0.5, s) for s in range(4)]
        for g in graphs:
            full = find_lhcds(g, h=3).subgraphs
            for k in (1, 2, 3, 5):
                topk = find_lhcds(g, h=3, k=k).subgraphs
                assert [(frozenset(s.vertices), s.density) for s in topk] == [
                    (frozenset(s.vertices), s.density) for s in full[:k]
                ]
