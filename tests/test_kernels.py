"""Tests for the compute kernels: the flow kernel against exhaustive s-t
cut enumeration (through the networks and called directly), arc
normalisation regressions, capacity-scaling edge cases (zero capacities,
beyond-int64 denominators), the Frank–Wolfe kernel against a per-instance
reference, kClist against brute force, and the one-kernel ``kernel``
option on requests and reports."""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    clique_degrees,
    list_cliques,
    multi_component_graph,
    random_graph,
    shifted,
)

from repro.cliques import clique_instances
from repro.cliques.kclist import count_cliques
from repro.datasets.synthetic import gnp_graph, hybrid_community_graph
from repro.engine import SolveRequest, solve
from repro.errors import EngineError, FlowError
from repro.flow import (
    FractionalArcCollector,
    MaxFlowNetwork,
    scaled_capacity,
    solve_compact_network,
)
from repro.flow.dinic import FlatFlowNetwork
from repro.graph import Graph, complete_graph, union_graph
from repro.graph.ordering import degeneracy_ordering
from repro.kernels import flow_stdlib
from repro.lhcds.seq_kclist import seq_kclist_plus_plus


def random_flow_arcs(n_nodes, n_arcs, seed, max_cap=20):
    """A deterministic random multigraph arc list (self-loops included)."""
    rng = random.Random(seed)
    arcs = []
    for _ in range(n_arcs):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        arcs.append((u, v, rng.randrange(0, max_cap + 1)))
    return arcs


def enumerate_min_cuts(arcs, n_nodes, s, t):
    """Minimum s-t cut value plus the minimal and maximal min-cut source
    sides, by enumerating every s-t cut of the network."""
    others = [v for v in range(n_nodes) if v not in (s, t)]
    cuts = []
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            side = {s, *extra}
            cuts.append((sum(c for u, v, c in arcs if u in side and v not in side), side))
    best = min(value for value, _ in cuts)
    sides = [side for value, side in cuts if value == best]
    return best, set.intersection(*sides), set.union(*sides)


def paired_csr(n_nodes, arcs):
    """The kernel's flat layout for an arc list: paired arcs plus CSR index."""
    arc_to, cap = [], []
    for u, v, c in arcs:
        arc_to += [v, u]
        cap += [c, 0]
    tails = [arc_to[e ^ 1] for e in range(len(arc_to))]
    indptr = [0] * (n_nodes + 1)
    for tail in tails:
        indptr[tail + 1] += 1
    for node in range(n_nodes):
        indptr[node + 1] += indptr[node]
    return indptr, sorted(range(len(arc_to)), key=tails.__getitem__), arc_to, cap


def brute_force_cliques(graph, h):
    """Every h-clique by testing all vertex h-subsets, in the canonical
    kClist order: subsets of the degeneracy order, lexicographically."""
    order, _, _ = degeneracy_ordering(graph)
    return [
        subset
        for subset in combinations(order, h)
        if all(graph.has_edge(u, v) for u, v in combinations(subset, 2))
    ]


def reference_seq_kclist(instances, iterations):
    """SEQ-kClist++ one instance tuple at a time, on dicts: the integer rule.

    Loads start at the instance degree, each round gives every instance's
    unit to its poorest member (least load, ties to the smaller repr rank)
    and adds ``h`` to that member's load.  Returns the per-slot picks, in
    the instances' order, and the load of every vertex.
    """
    h = instances.h
    rows = instances.instances
    load = Counter(v for row in rows for v in row)
    rank = {v: i for i, v in enumerate(sorted(load, key=repr))}
    picks = [[0] * h for _ in rows]
    for _ in range(iterations):
        for i, row in enumerate(rows):
            j = min(range(h), key=lambda j: (load[row[j]], rank[row[j]]))
            picks[i][j] += 1
            load[row[j]] += h
    return [p for row in picks for p in row], dict(load)


class TestKernelOption:
    """``stdlib`` is the one compute kernel: a request may name it (and
    nothing else), and every report names it."""

    @pytest.mark.parametrize(
        "spelling", [None, "stdlib", "  STDLIB  ", "Stdlib\n"], ids=repr
    )
    def test_request_validates_kernel_name(self, spelling):
        request = SolveRequest(graph=complete_graph(3), pattern=3, k=1, kernel=spelling)
        assert request.kernel == (None if spelling is None else "stdlib")

    @pytest.mark.parametrize(
        "value",
        ["numpy", "cuda", "", "std lib", 3, 1.5, True, b"stdlib", ["stdlib"]],
        ids=repr,
    )
    def test_unknown_kernel_rejected(self, value):
        with pytest.raises(EngineError, match="unknown kernel"):
            SolveRequest(graph=complete_graph(3), pattern=3, k=1, kernel=value)

    def test_report_defaults_to_stdlib(self, monkeypatch):
        # Nothing reads REPRO_KERNEL: a stale setting must not reach a solve.
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        graph = multi_component_graph()
        for kernel in (None, "stdlib"):
            report = solve(graph=graph, pattern=3, k=2, solver="exact", kernel=kernel)
            assert report.kernel == "stdlib"
            assert report.to_json_dict()["kernel"] == "stdlib"


class TestFlowKernelEquivalence:
    """The kernel Dinic against exhaustive s-t cut enumeration.

    The max-flow value must equal the minimum cut value.  The minimal source
    side is the intersection of all minimum-cut source sides and the maximal
    side their union; both are unique for the network, independent of which
    max flow was found."""

    def test_random_networks_match_cut_enumeration(self):
        for seed in range(12):
            arcs = random_flow_arcs(n_nodes=8, n_arcs=24, seed=seed)
            net = MaxFlowNetwork()
            for u, v, c in arcs:
                net.add_edge(u, v, c)
            for node in range(8):
                net.add_node(node)
            value, minimal, maximal = enumerate_min_cuts(arcs, 8, 0, 7)
            assert net.max_flow(0, 7) == value
            assert net.min_cut_source_side(0) == minimal
            assert net.min_cut_source_side(0, maximal=True) == maximal

    def test_min_cut_value_equals_flow(self):
        # Max-flow/min-cut duality, checked on the original arc list.
        for seed in range(8):
            arcs = random_flow_arcs(n_nodes=7, n_arcs=18, seed=100 + seed)
            net = MaxFlowNetwork()
            for u, v, c in arcs:
                net.add_edge(u, v, c)
            net.add_node(0), net.add_node(6)
            value = net.max_flow(0, 6)
            for maximal in (False, True):
                side = net.min_cut_source_side(0, maximal=maximal)
                cut = sum(c for u, v, c in arcs if u != v and u in side and v not in side)
                assert cut == value

    @pytest.mark.parametrize("container", ["list", "array"])
    def test_raw_kernel_on_either_container(self, container):
        # The kernel functions take list or array('q') capacities and leave
        # the residuals in the caller's buffer.
        for seed in range(6):
            arcs = random_flow_arcs(n_nodes=8, n_arcs=24, seed=300 + seed)
            indptr, order, arc_to, cap = paired_csr(8, arcs)
            buffer = list(cap) if container == "list" else array("q", cap)
            value, minimal, maximal = enumerate_min_cuts(arcs, 8, 0, 7)
            assert flow_stdlib.max_flow(8, indptr, order, arc_to, buffer, 0, 7) == value
            for e in range(0, len(cap), 2):
                assert buffer[e] + buffer[e + 1] == cap[e]
            reach = flow_stdlib.residual_reachable(8, indptr, order, arc_to, buffer, 0)
            reaching = flow_stdlib.residual_reaching(8, indptr, order, arc_to, buffer, 7)
            assert {v for v in range(8) if reach[v]} == minimal
            assert {v for v in range(8) if not reaching[v]} == maximal


class TestArcNormalisation:
    """Regression tests for MaxFlowNetwork.add_edge's documented rules."""

    def test_self_loop_is_ignored(self):
        net = MaxFlowNetwork()
        net.add_edge("a", "a", 5)
        assert net.num_arcs == 0
        net.add_edge("s", "a", 2)
        net.add_edge("a", "t", 3)
        net.add_edge("a", "a", 100)
        assert net.num_arcs == 2
        assert net.solve("s", "t") == 2

    def test_self_loop_capacity_still_validated(self):
        net = MaxFlowNetwork()
        with pytest.raises(FlowError):
            net.add_edge("a", "a", -1)

    def test_duplicate_arcs_accumulate(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "t", 2)
        net.add_edge("s", "t", 3)
        assert net.num_arcs == 1
        assert net.solve("s", "t") == 5

    def test_antiparallel_arcs_stay_distinct(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "t", 2)
        net.add_edge("t", "s", 9)
        assert net.num_arcs == 2
        assert net.solve("s", "t") == 2

    def test_duplicate_merge_is_deterministic(self):
        # The merged arc keeps its first insertion position: interleaving
        # later duplicates must not perturb arc order (and thus cut ties).
        net = MaxFlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("s", "b", 1)
        net.add_edge("s", "a", 1)
        assert net.num_arcs == 2
        net.add_edge("a", "t", 5)
        net.add_edge("b", "t", 5)
        assert net.solve("s", "t") == 3


class TestCapacityScaling:
    def test_zero_capacity_arcs_survive_scaling(self):
        collector = FractionalArcCollector()
        collector.add("s", "a", Fraction(0))
        collector.add("a", "t", Fraction(1, 3))
        net, scale = collector.build()
        assert scale == 3
        assert net.solve("s", "t") == 0

    def test_scaled_capacity_helper_is_exact(self):
        assert scaled_capacity(Fraction(2, 3), 6) == 4
        assert scaled_capacity(Fraction(0), 6) == 0
        huge = Fraction(7, 2**100)
        assert scaled_capacity(huge, 2**101) == 14

    def test_huge_denominators_take_the_unbounded_int_path(self):
        # Scale = lcm of the denominators exceeds int64; flow values must
        # stay exact through the plain-list capacity fallback.
        p, q = 2**67 + 1, 2**68 + 1  # coprime -> scale = p * q
        collector = FractionalArcCollector()
        collector.add("s", "a", Fraction(1, p))
        collector.add("a", "t", Fraction(1, q))
        net, scale = collector.build()
        assert scale == p * q
        assert net.solve("s", "t") == scaled_capacity(Fraction(1, q), scale) == p

    def test_add_arc_promotes_buffer_beyond_int64(self):
        flat = FlatFlowNetwork(3)
        flat.add_arc(0, 1, 2**80)
        flat.add_arc(1, 2, 3)
        assert isinstance(flat._cap, list)
        assert flat.max_flow(0, 2) == 3

    def test_increase_capacity_promotes_buffer_beyond_int64(self):
        flat = FlatFlowNetwork(2)
        eid = flat.add_arc(0, 1, (1 << 63) - 1)
        assert isinstance(flat._cap, array)
        flat.increase_capacity(eid, 1)
        assert isinstance(flat._cap, list)
        assert flat.max_flow(0, 1) == 1 << 63

    def test_scaled_min_cut_matches_rational_brute_force(self):
        # Round-trip property: on small random rational networks, the scaled
        # integer min cut must be a minimum cut of the *rational* network,
        # with matching (unique) minimal/maximal source sides.
        rng = random.Random(42)
        for trial in range(6):
            n = 5
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.6:
                        cap = Fraction(rng.randrange(0, 8), rng.randrange(1, 9))
                        arcs.append((u, v, cap))
            collector = FractionalArcCollector()
            for u, v, cap in arcs:
                collector.add(u, v, cap)
            net, scale = collector.build()
            for node in range(n):
                net.add_node(node)
            flow = Fraction(net.solve(0, n - 1), scale)

            def cut_value(side):
                return sum(cap for u, v, cap in arcs if u in side and v not in side)

            best = None
            others = [v for v in range(1, n - 1)]
            for r in range(len(others) + 1):
                for extra in combinations(others, r):
                    value = cut_value({0, *extra})
                    best = value if best is None else min(best, value)
            assert flow == best
            for maximal in (False, True):
                side = net.min_cut_source_side(0, maximal=maximal)
                side = {v for v in side if isinstance(v, int)}
                assert cut_value(side) == best

    def test_compact_network_huge_rho_denominator(self):
        # A rho with a beyond-int64 denominator pushes solve_compact_network
        # onto the unbounded-int capacity path; the maximiser must match the
        # brute-force argmax of |Psi(A)| - rho * |A| exactly.
        g = random_graph(6, 0.6, 3)
        inst = clique_instances(g, 3)
        if inst.num_instances == 0:
            pytest.skip("no triangles in this seed")
        rho = Fraction(2**70 + 1, 2**71)
        chosen = solve_compact_network(inst, rho, vertices=g.vertices())
        best_value, best_set = None, set()
        vs = list(g.vertices())
        for r in range(len(vs) + 1):
            for subset in combinations(vs, r):
                value = inst.count_within(subset) - rho * r
                if best_value is None or value > best_value or (
                    value == best_value and len(subset) > len(best_set)
                ):
                    best_value = value
                    best_set = set(subset)
        assert chosen == best_set


def tie_heavy_graphs():
    """Graphs on which every instance ties on r in round one: cliques and
    disjoint unions of equal cliques (every vertex has the same degree).

    The relabelled K8's repr order differs from its enumeration order, so
    a later slot sometimes wins a tie on rank: with it, h = 3 reaches every
    branch of the unrolled pick.
    """
    graphs = [complete_graph(n) for n in (6, 7, 8)]
    labels = [5, 40, 3, 200, 1, 10, 6, 77]
    graphs.append(Graph(edges=[(labels[u], labels[v]) for u, v in complete_graph(8).edges()]))
    for size, copies in ((4, 3), (5, 3), (6, 2)):
        graphs.append(
            union_graph(*(shifted(complete_graph(size), 10 * c) for c in range(copies)))
        )
    return graphs


class TestFrankWolfeBitIdentity:
    """The flat Frank–Wolfe kernel against the per-instance reference: the
    same picks, slot for slot, and the same load per vertex.  h = 3 runs
    the unrolled pick, every other h the generic slot scan.  The iterate
    holds both as numerators over ``D = h * (T + 1) * L``: a slot holds
    ``L * (h * picks + 1)`` and a vertex ``L * load``."""

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    @pytest.mark.parametrize("iterations", [0, 1, 7, 25])
    def test_alpha_and_r_identical(self, h, iterations):
        checked = 0
        for seed in range(4):
            g = random_graph(9, 0.6, seed + 10)
            checked += self._check(g, h, iterations)
        assert checked

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    @pytest.mark.parametrize("iterations", [1, 2, 7, 25])
    def test_tie_heavy_inputs_identical(self, h, iterations):
        checked = sum(self._check(g, h, iterations) for g in tie_heavy_graphs())
        # Only the union of K4s has no 5-cliques.
        assert checked >= 6

    @pytest.mark.parametrize("h", [5, 6])
    @pytest.mark.parametrize(
        "build",
        [lambda: gnp_graph(60, 0.4, seed=1), lambda: hybrid_community_graph(40, 14, seed=0)],
        ids=["gnp-60", "community-40"],
    )
    def test_exact_ties_at_larger_h(self, build, h):
        # deg/h is not a float-exact fraction at h = 5 or 6, so a kernel
        # that rounds it lets rounding decide exact ties on these graphs.
        assert self._check(build(), h, 20)

    @pytest.mark.parametrize("h", [3, 4])
    def test_community_graph_identical(self, h):
        # The unrolled h = 3 pick and the generic scan at the paper's T = 20
        # on a graph with thousands of instances, not only on small ones.
        assert self._check(hybrid_community_graph(40, 14, seed=0), h, 20)

    def test_denominator_beyond_int64(self):
        # At h = 42 and T = 3, D = 168 * lcm(1, ..., 41) passes 2**63; the
        # iterate and the solve stay exact.
        assert self._check(complete_graph(43), 42, 3)
        report = solve(graph=complete_graph(43), pattern=42, k=1)
        assert [s.density for s in report.subgraphs] == [1]

    @staticmethod
    def _check(graph, h, iterations):
        inst = clique_instances(graph, h)
        if inst.num_instances == 0:
            return False
        state = seq_kclist_plus_plus(inst, iterations)
        picks, load = reference_seq_kclist(inst, iterations)
        unit = math.lcm(*range(1, h))
        assert state.denominator == h * (iterations + 1) * unit
        assert state.alpha == [unit * (h * p + 1) for p in picks]
        assert state.r == {v: unit * w for v, w in load.items()}
        return True


class TestKclistBitIdentity:
    """kClist against brute force on seeded G(n, p) graphs: the same clique
    set with no duplicates — for h >= 2 in the same canonical order — and
    the same counts and per-vertex clique degrees."""

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_enumeration_identical(self, h):
        for n, p, seed in [(9, 0.5, 30), (9, 0.5, 31), (12, 0.6, 32), (14, 0.4, 33)]:
            self._check(random_graph(n, p, seed), h)

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_edge_case_graphs(self, h):
        isolated = Graph(vertices=[0, 1, 2])
        two_cliques = union_graph(complete_graph(6), Graph(edges=[(10, 11), (11, 12)]))
        for graph in (complete_graph(7), isolated, two_cliques):
            self._check(graph, h)

    @staticmethod
    def _check(graph, h):
        listed = list_cliques(graph, h)
        expected = brute_force_cliques(graph, h)
        as_sets = [frozenset(clique) for clique in listed]
        assert len(set(as_sets)) == len(listed)
        assert set(as_sets) == {frozenset(clique) for clique in expected}
        if h >= 2:
            assert listed == expected
        assert count_cliques(graph, h) == len(expected)
        degrees = Counter(v for clique in expected for v in clique)
        assert clique_degrees(graph, h) == {v: degrees[v] for v in graph}
