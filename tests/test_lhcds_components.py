"""Tests for the individual IPPV stages: bounds, SEQ-kClist++, decomposition,
stable groups, pruning, and the verification primitives."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    random_graph,
    reference_prune_invalid_vertices,
    reference_stable_groups,
    reference_tentative_decomposition,
    shifted,
)
from repro.cliques import clique_instances
from repro.datasets.synthetic import hybrid_community_graph
from repro.engine import IncrementalSession, solve
from repro.engine.cache import cache_for
from repro.errors import AlgorithmError
from repro.graph import Graph, GraphDelta, complete_graph, union_graph
from repro.instances import InstanceSet
from repro.lhcds import (
    CompactBounds,
    compact_closure,
    derive_compact_subgraphs,
    derive_stable_groups,
    initialize_bounds,
    is_densest,
    prune_invalid_vertices,
    seq_kclist_plus_plus,
    tentative_decomposition,
    verify_basic,
    verify_fast,
)
from repro.lhcds.decomposition import TentativeDecomposition
from repro.lhcds.exact import exact_compact_numbers
from repro.lhcds.ippv import StageTimings, held_proposal
from repro.lhcds.reference import brute_force_compact_numbers, compactness_of
from repro.lhcds.seq_kclist import WeightState
from repro.lhcds import stable_groups as stable_groups_module
from repro.patterns import get_pattern
from repro.server import SolveService


class TestCompactBounds:
    def test_defaults(self):
        bounds = CompactBounds()
        assert bounds.lower_of("x") == 0
        # None is the exact "unbounded" sentinel: no float("inf") may leak
        # into otherwise-Fraction arithmetic on the certificate path.
        assert bounds.upper_of("x") is None

    def test_tighten_from_unbounded(self):
        bounds = CompactBounds()
        bounds.tighten_upper(["v"], 5)
        assert bounds.upper_of("v") == 5

    def test_tighten_lower_only_improves(self):
        bounds = CompactBounds()
        bounds.tighten_lower(["v", "w"], 2)
        bounds.tighten_lower(["v"], 1)
        bounds.tighten_lower(["w"], Fraction(7, 3))
        bounds.tighten_lower(["w"], Fraction(9, 4))
        assert (bounds.lower_of("v"), bounds.lower_of("w")) == (2, Fraction(7, 3))

    def test_tighten_upper_only_improves(self):
        bounds = CompactBounds()
        bounds.tighten_upper(["v", "w"], 5)
        bounds.tighten_upper(["v"], 7)
        bounds.tighten_upper(["w"], Fraction(9, 2))
        bounds.tighten_upper(["w"], Fraction(14, 3))
        assert (bounds.upper_of("v"), bounds.upper_of("w")) == (5, Fraction(9, 2))

    def test_copy_is_independent(self):
        bounds = CompactBounds()
        bounds.tighten_lower(["v"], 1)
        clone = bounds.copy()
        clone.tighten_lower(["v"], 9)
        assert bounds.lower_of("v") == 1


class TestInitializeBounds:
    def test_bounds_sandwich_true_compact_numbers(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        bounds, core = initialize_bounds(inst, two_cliques.vertices())
        phi = exact_compact_numbers(inst, two_cliques.vertices())
        for v in two_cliques.vertices():
            assert bounds.lower_of(v) <= phi[v] <= bounds.upper_of(v)

    def test_core_relation(self, k5):
        inst = clique_instances(k5, 3)
        bounds, core = initialize_bounds(inst, k5.vertices())
        for v in k5.vertices():
            assert bounds.upper_of(v) == core[v]
            assert bounds.lower_of(v) == Fraction(core[v], 3)

    def test_upper_bounds_are_integer_core_numbers(self, two_cliques):
        # Prune rule 1 and DeriveSG compare an upper by its numerator and
        # denominator, which an int carries as itself and 1.
        inst = clique_instances(two_cliques, 3)
        bounds, core = initialize_bounds(inst, two_cliques.vertices())
        assert bounds.upper == core
        assert {type(upper) for upper in bounds.upper.values()} == {int}

    def test_bounds_keep_core_numbers_and_copies_share_them(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        bounds, core = initialize_bounds(inst, two_cliques.vertices())
        assert bounds.core is core
        clone = bounds.copy()
        assert clone.core is core
        clone.tighten_lower([0], 99)
        assert bounds.lower_of(0) != 99


def assert_exactly_feasible(state):
    """Every instance's slots are non-negative ints that sum to ``D``."""
    alpha = state.alpha
    h = state.instances.h
    assert all(type(w) is int and w >= 0 for w in alpha)
    assert all(
        sum(alpha[base : base + h]) == state.denominator for base in range(0, len(alpha), h)
    )


class TestSeqKClist:
    def test_feasibility_preserved(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        state = seq_kclist_plus_plus(inst, 10, two_cliques.vertices())
        assert_exactly_feasible(state)

    def test_total_weight_equals_instance_count(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        state = seq_kclist_plus_plus(inst, 15, two_cliques.vertices())
        assert sum(state.r.values()) == inst.num_instances * state.denominator

    def test_zero_iterations_is_uniform(self, k5):
        inst = clique_instances(k5, 3)
        state = seq_kclist_plus_plus(inst, 0, k5.vertices())
        # Every vertex of K5 is in 6 triangles, each contributing 1/3.
        for v in k5.vertices():
            assert Fraction(state.received(v), state.denominator) == 2

    def test_converges_towards_compact_numbers(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        state = seq_kclist_plus_plus(inst, 60, two_cliques.vertices())
        phi = exact_compact_numbers(inst, two_cliques.vertices())
        # K5 vertices should be near 2, K4 vertices near 3/4... (approximate).
        for v in range(5):
            r = Fraction(state.received(v), state.denominator)
            assert abs(r - phi[v]) <= Fraction(3, 10)

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_loads_are_an_exactly_feasible_iterate(self, h):
        # W(v) = deg(v) + h * picks(v), and the iterate holds r = L * W over
        # D = h(T + 1)L with L = lcm(1, ..., h - 1).  Every instance gives
        # its slots L(1 + h * picks) parts, which sum to D, so the loads
        # total |Psi| * D.
        g = random_graph(24, 0.5, 60 + h)
        inst = clique_instances(g, h)
        degree = Counter(v for row in inst.instances for v in row)
        state = seq_kclist_plus_plus(inst, 20, g.vertices())
        unit = math.lcm(*range(1, h))
        assert state.denominator == h * 21 * unit
        assert sum(state.r.values()) == inst.num_instances * state.denominator
        assert_exactly_feasible(state)
        for v, load in state.r.items():
            assert load % unit == 0
            assert load // unit >= degree[v] and (load // unit - degree[v]) % h == 0
        # TentativeGD rewrites a working copy; the iterate stays the kernel's.
        pristine = (list(state.alpha), dict(state.r))
        copy = state.working_copy()
        tentative_decomposition(copy, g.vertices())
        assert_exactly_feasible(copy)
        assert (state.alpha, state.r) == pristine

    def test_negative_iterations_rejected(self, k5):
        inst = clique_instances(k5, 3)
        with pytest.raises(AlgorithmError):
            seq_kclist_plus_plus(inst, -1, k5.vertices())


class TestTentativeDecomposition:
    def test_partition_covers_all_vertices(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        state = seq_kclist_plus_plus(inst, 20, two_cliques.vertices())
        decomposition = tentative_decomposition(state, two_cliques.vertices())
        flattened = [v for block in decomposition.subsets for v in block]
        assert sorted(flattened, key=repr) == sorted(two_cliques.vertices(), key=repr)

    def test_weights_stay_feasible_after_redistribution(self, figure2):
        inst = clique_instances(figure2, 3)
        state = seq_kclist_plus_plus(inst, 20, figure2.vertices())
        tentative_decomposition(state, figure2.vertices())
        assert_exactly_feasible(state)

    def test_first_block_contains_densest_region(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        state = seq_kclist_plus_plus(inst, 30, two_cliques.vertices())
        decomposition = tentative_decomposition(state, two_cliques.vertices())
        assert set(decomposition.subsets[0]) >= set(range(5))

    def test_empty_universe_has_no_blocks(self, k5):
        inst = clique_instances(k5, 3)
        state = seq_kclist_plus_plus(inst, 5, [])
        decomposition = tentative_decomposition(state, [])
        assert decomposition.subsets == []
        assert decomposition.prefix_densities == []
        # DeriveSG then yields no groups and leaves the bounds alone.
        bounds, _ = initialize_bounds(inst, k5.vertices())
        before = bounds.copy()
        groups, after = derive_stable_groups(decomposition, state, bounds)
        assert groups == []
        assert after.lower == before.lower
        assert after.upper == before.upper


class TestStableGroups:
    def test_groups_partition_universe(self, figure2):
        inst = clique_instances(figure2, 3)
        bounds, _ = initialize_bounds(inst, figure2.vertices())
        state = seq_kclist_plus_plus(inst, 20, figure2.vertices())
        decomposition = tentative_decomposition(state, figure2.vertices())
        groups, bounds = derive_stable_groups(decomposition, state, bounds)
        flattened = [v for g in groups for v in g.vertices]
        assert sorted(flattened, key=repr) == sorted(figure2.vertices(), key=repr)

    def test_bounds_remain_valid_after_tightening(self, figure2):
        inst = clique_instances(figure2, 3)
        bounds, _ = initialize_bounds(inst, figure2.vertices())
        state = seq_kclist_plus_plus(inst, 20, figure2.vertices())
        decomposition = tentative_decomposition(state, figure2.vertices())
        _, bounds = derive_stable_groups(decomposition, state, bounds)
        phi = exact_compact_numbers(inst, figure2.vertices())
        for v in figure2.vertices():
            assert bounds.lower_of(v) <= phi[v] <= bounds.upper_of(v)

    @pytest.mark.parametrize("h", [3, 4])
    def test_bounds_sandwich_compact_numbers_on_random_graphs(self, h):
        # Theorem 4, checked exactly: every bound is an int or a Fraction.
        for seed in range(95):
            g = random_graph(4 + seed % 13, 0.3 + 0.1 * (seed % 5), seed)
            inst = clique_instances(g, h)
            phi = exact_compact_numbers(inst, g.vertices())
            for iterations in (0, 1, 20):
                bounds, _ = initialize_bounds(inst, g.vertices())
                state = seq_kclist_plus_plus(inst, iterations, g.vertices())
                decomposition = tentative_decomposition(state, g.vertices())
                _, bounds = derive_stable_groups(decomposition, state, bounds)
                for v in g.vertices():
                    assert bounds.lower_of(v) <= phi[v] <= bounds.upper_of(v)

    def test_every_lhcds_within_one_stable_group(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        bounds, _ = initialize_bounds(inst, two_cliques.vertices())
        state = seq_kclist_plus_plus(inst, 20, two_cliques.vertices())
        decomposition = tentative_decomposition(state, two_cliques.vertices())
        groups, _ = derive_stable_groups(decomposition, state, bounds)
        k5 = set(range(5))
        assert any(k5 <= set(g.vertices) for g in groups)


def _derive_sg_shapes(seed):
    """One seeded random case in the three shapes DeriveSG must handle.

    The full vertex set; IPPV's refinement shape, whose instances are
    restricted to a random half of the vertices; and that half over the
    unrestricted instances, so some instance slots lie outside the order.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 40)
    p = rng.uniform(0.05, 0.4)
    h = rng.choice((3, 4))
    iterations = rng.choice((0, 1, 5, 20))
    g = random_graph(n, p, seed)
    inst = clique_instances(g, h)
    half = rng.sample(sorted(g.vertices()), n // 2)
    for working, vertices in ((inst, g.vertices()), (inst.restrict(half), half), (inst, half)):
        yield working, vertices, iterations


#: The denominator of the hand-built states: one unit of r is 1/6.
HAND_D = 6


def _hand_built(r, subsets, weighted=()):
    """A WeightState/TentativeDecomposition pair with the given r numerators.

    ``r`` maps vertices to numerators over :data:`HAND_D`, and ``weighted``
    lists triangle instances as ``(vertices, alpha)`` pairs, each alpha
    three numerators that sum to it.
    """
    inst = InstanceSet.from_instances(3, [vertices for vertices, _ in weighted])
    alpha = [w for _, weights in weighted for w in weights]
    state = WeightState(instances=inst, alpha=alpha, r=dict(r), denominator=HAND_D)
    order = [v for subset in subsets for v in subset]
    decomposition = TentativeDecomposition(
        subsets=[list(subset) for subset in subsets],
        order=order,
        prefix_densities=[Fraction(0)] * len(subsets),
    )
    return state, decomposition


def _assert_matches_reference(decomposition, state, bounds, verdicts=None):
    groups, tightened = derive_stable_groups(decomposition, state, bounds.copy())
    expected, expected_bounds = reference_stable_groups(
        decomposition, state, bounds.copy(), verdicts
    )
    assert groups == expected
    assert tightened.lower == expected_bounds.lower
    assert tightened.upper == expected_bounds.upper
    return groups


class TestDeriveSGOracle:
    """The one-pass DeriveSG against the universe-rescanning oracle."""

    def test_random_cases_match_reference(self):
        verdicts = Counter()
        multi_group = 0
        for seed in range(600):
            for working, vertices, iterations in _derive_sg_shapes(seed):
                state = seq_kclist_plus_plus(working, iterations, vertices)
                bounds, _ = initialize_bounds(working, vertices)
                decomposition = tentative_decomposition(state, vertices)
                groups = _assert_matches_reference(decomposition, state, bounds, verdicts)
                multi_group += len(groups) > 1
        # The cases reach every branch of the check.
        assert verdicts["condition 1"] > 0
        assert verdicts["conditions 2/3"] > 0
        assert verdicts["unstable tail"] > 0
        assert multi_group > 0

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_non_member_on_the_edge_blocks_the_group(self, side):
        # {a, b} spans r in [1, 2]; c sits on the window's edge.
        edge = 2 * HAND_D if side == "above" else HAND_D
        state, decomposition = _hand_built(
            {"a": HAND_D, "b": 2 * HAND_D, "c": edge}, [["a", "b"], ["c"]]
        )
        groups = _assert_matches_reference(decomposition, state, CompactBounds())
        assert [(g.vertices, g.stable) for g in groups] == [(["a", "b", "c"], True)]

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_non_member_one_unit_past_the_edge_does_not_block(self, side):
        # One unit, 1/D, outside [1, 2] leaves c outside the window.
        edge = 2 * HAND_D + 1 if side == "above" else HAND_D - 1
        state, decomposition = _hand_built(
            {"a": HAND_D, "b": 2 * HAND_D, "c": edge}, [["a", "b"], ["c"]]
        )
        groups = _assert_matches_reference(decomposition, state, CompactBounds())
        assert groups[0].vertices == ["a", "b"]
        assert groups[0].stable
        assert (groups[0].r_min, groups[0].r_max) == (Fraction(1), Fraction(2))

    @pytest.mark.parametrize(
        "weights, stable",
        [
            # Condition 2: the vertex above holds weight in a shared instance.
            ((3, 0, 3), False),
            # Condition 3: the instance reaches below and a member holds weight.
            ((0, 3, 3), False),
            # All the weight sits on the vertex below: the group is stable.
            ((0, 0, 6), True),
        ],
    )
    def test_weight_in_shared_instances(self, weights, stable):
        # The first check is the group {m}, with "up" above it and "down"
        # below; the instance's slots are in that order.
        state, decomposition = _hand_built(
            {"up": 3 * HAND_D, "m": 2 * HAND_D, "down": HAND_D},
            [["m"], ["up", "down"]],
            weighted=[(("up", "m", "down"), weights)],
        )
        groups = _assert_matches_reference(decomposition, state, CompactBounds())
        assert (groups[0].vertices == ["m"]) == stable

    def test_whole_order_group_skips_the_weight_walk(self, monkeypatch):
        # One tentative subset, so DeriveSG's only group is the whole order.
        # Every slot of the order is a member's, so conditions 2 and 3
        # cannot fail, and the walk that checks them is not run.
        g = random_graph(12, 0.6, 0)
        inst = clique_instances(g, 3)
        state = seq_kclist_plus_plus(inst, 20, g.vertices())
        bounds, _ = initialize_bounds(inst, g.vertices())
        decomposition = tentative_decomposition(state, g.vertices())
        assert len(decomposition.subsets) == 1
        expected, expected_bounds = reference_stable_groups(decomposition, state, bounds.copy())

        def walk(*args):
            raise AssertionError("the whole order's weights were walked")

        monkeypatch.setattr(stable_groups_module, "_weights_respect_group", walk)
        groups, tightened = derive_stable_groups(decomposition, state, bounds.copy())
        assert groups == expected
        assert [(group.vertices, group.stable) for group in groups] == [
            (decomposition.order, True)
        ]
        assert tightened.lower == expected_bounds.lower
        assert tightened.upper == expected_bounds.upper

    def test_non_positive_lower_bound_is_not_compared(self, monkeypatch):
        # A group whose smallest r is 0 gives a zero lower bound, which
        # raises no bound (they are never negative), so no member's lower
        # bound is compared with it.
        state, decomposition = _hand_built(
            {"a": 0, "b": HAND_D, "c": 3 * HAND_D}, [["c"], ["a", "b"]]
        )
        expected, expected_bounds = reference_stable_groups(
            decomposition, state, CompactBounds()
        )
        compared = []
        tighten_lower = CompactBounds.tighten_lower

        def spy(bounds, vertices, value):
            compared.extend(vertices)
            tighten_lower(bounds, vertices, value)

        monkeypatch.setattr(CompactBounds, "tighten_lower", spy)
        groups, tightened = derive_stable_groups(decomposition, state, CompactBounds())
        assert groups == expected
        assert [group.stable for group in groups] == [True, True]
        assert compared == ["c"]
        assert tightened.lower == expected_bounds.lower
        assert tightened.upper == expected_bounds.upper


class TestPrune:
    def test_prune_keeps_lhcds_vertices(self, figure2):
        inst = clique_instances(figure2, 3)
        bounds, _ = initialize_bounds(inst, figure2.vertices())
        survivors = prune_invalid_vertices(figure2, inst, bounds, figure2.vertices())
        # The two true L3CDSes (S1 and S2) must survive any pruning.
        assert set(range(12, 18)) <= survivors
        assert set(range(2, 7)) <= survivors

    def test_prune_never_removes_compactness_witnesses(self, small_random_graphs):
        for g in small_random_graphs:
            inst = clique_instances(g, 3)
            if inst.num_instances == 0:
                continue
            bounds, _ = initialize_bounds(inst, g.vertices())
            survivors = prune_invalid_vertices(g, inst, bounds, g.vertices())
            phi = exact_compact_numbers(inst, g.vertices())
            best = max(phi.values())
            for v, value in phi.items():
                if value == best and best > 0:
                    assert v in survivors


def _assert_tentative_matches_reference(state, vertices):
    """Run TentativeGD and its oracle on copies of ``state``; return the result."""
    ours, theirs = state.working_copy(), state.working_copy()
    decomposition = tentative_decomposition(ours, vertices)
    expected = reference_tentative_decomposition(theirs, vertices)
    assert decomposition.subsets == expected.subsets
    assert decomposition.order == expected.order
    assert decomposition.prefix_densities == expected.prefix_densities
    assert all(type(d) is Fraction for d in decomposition.prefix_densities)
    assert ours.alpha == theirs.alpha
    assert ours.r == theirs.r
    return decomposition, ours


class TestTentativeGDOracle:
    """Integer breakpoints and the flat-id redistribution against the
    ``Fraction``-prefix, per-instance-tuple oracle."""

    def test_random_cases_match_reference(self):
        tied_breakpoints = moved = restricted = 0
        for seed in range(510):
            rng = random.Random(seed)
            h = 2 + seed % 4
            n = rng.randint(2, 26)
            g = random_graph(n, rng.uniform(0.15, 0.75), seed)
            inst = clique_instances(g, h)
            iterations = rng.choice((0, 1, 3, 20))
            shapes = [(inst, g.vertices())]
            if seed % 3 == 2:
                # IPPV's refinement shape: the instances restricted to a
                # candidate, in repr order; and the candidate over all the
                # instances, so some instance slots lie outside the order.
                half = sorted(rng.sample(sorted(g.vertices()), max(1, n // 2)), key=repr)
                shapes = [(inst.restrict(half), half), (inst, half)]
                restricted += 1
            for working, vertices in shapes:
                state = seq_kclist_plus_plus(working, iterations, vertices)
                decomposition, after = _assert_tentative_matches_reference(state, vertices)
                densities = decomposition.prefix_densities
                tied_breakpoints += any(a == b for a, b in zip(densities, densities[1:]))
                moved += after.alpha != state.alpha
        # The cases reach equal prefix densities and straddling instances.
        assert restricted == 170
        assert tied_breakpoints > 0
        assert moved > 0

    def test_equal_prefix_densities_split_at_the_breakpoint(self):
        # Two disjoint K4s with equal r: both prefixes have density 1, and
        # the shorter one is a breakpoint because no longer prefix beats it.
        triangles = [t for base in (0, 4) for t in combinations(range(base, base + 4), 3)]
        inst = InstanceSet.from_instances(3, triangles)
        # The T = 0 iterate at h = 3 (L = 2, D = 6): each slot holds 2/6,
        # and each vertex's load is twice its degree.
        alpha = [2] * (3 * len(triangles))
        state = WeightState(instances=inst, alpha=alpha, r={v: 6 for v in range(8)}, denominator=6)
        decomposition, _ = _assert_tentative_matches_reference(state, list(range(8)))
        assert decomposition.subsets == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert decomposition.prefix_densities == [Fraction(1), Fraction(1)]

    def test_straddling_instance_moves_to_its_lowest_block(self):
        # K4 {0..3} above a triangle {3, 4, 5} that shares vertex 3: the
        # shared triangle's weight on 3 moves to 4 and 5.
        triangles = list(combinations(range(4), 3)) + [(3, 4, 5)]
        inst = InstanceSet.from_instances(3, triangles)
        alpha = [2] * (3 * len(triangles))
        state = WeightState(instances=inst, alpha=alpha, r={}, denominator=6)
        state.recompute_r(list(range(6)))
        decomposition, after = _assert_tentative_matches_reference(state, list(range(6)))
        assert [sorted(subset) for subset in decomposition.subsets] == [[0, 1, 2, 3], [4, 5]]
        assert list(after.alpha[-3:]) == [0, 3, 3]

    def test_empty_universe_matches_reference(self, k5):
        state = seq_kclist_plus_plus(clique_instances(k5, 3), 5, [])
        decomposition, _ = _assert_tentative_matches_reference(state, [])
        assert decomposition.subsets == []


def _mixed_bounds(g, inst, rng):
    """Clique-core bounds tightened by DeriveSG, with some uppers dropped.

    Every upper is then an ``int`` core bound, a DeriveSG ``Fraction`` or
    missing (``None``).
    """
    vertices = g.vertices()
    bounds, _ = initialize_bounds(inst, vertices)
    state = seq_kclist_plus_plus(inst, rng.choice((1, 5, 20)), vertices)
    derive_stable_groups(tentative_decomposition(state, vertices), state, bounds)
    for v in sorted(vertices):
        if rng.random() < 0.1:
            bounds.upper.pop(v, None)
    return bounds


def _raised_lowers(bounds, core, vertices, rng):
    """Raise the lower bounds of a random share of ``vertices`` near their cores.

    Half-integer steps from one below to two above the core number, some
    whole ones as ints, so rule 1 kills neighbours and rule 2 drops
    vertices whose core numbers then fall short.
    """
    share = rng.choice((0.1, 0.2, 0.3))
    for v in sorted(vertices, key=repr):
        if rng.random() < share:
            raised = Fraction(2 * core.get(v, 0) + rng.randint(-2, 4), 2)
            whole = rng.random() < 0.3 and raised.denominator == 1
            bounds.lower[v] = raised.numerator if whole else raised


class TestPruneOracle:
    """Rule 1's one comparison per vertex against the per-edge-endpoint
    scan, and rule 2's refinement against fresh peels."""

    def test_random_bounds_match_reference(self):
        kinds = Counter()
        pruned = 0
        for seed in range(160):
            rng = random.Random(seed)
            h = rng.choice((3, 4))
            g = random_graph(rng.randint(4, 30), rng.uniform(0.15, 0.6), seed)
            inst = clique_instances(g, h)
            bounds = _mixed_bounds(g, inst, rng)
            for v in g.vertices():
                upper = bounds.upper_of(v)
                kinds["none" if upper is None else type(upper).__name__] += 1
            universe = sorted(g.vertices())
            if seed % 2:
                universe = rng.sample(universe, max(1, len(universe) * 2 // 3))
            survivors = prune_invalid_vertices(g, inst, bounds, universe)
            assert survivors == reference_prune_invalid_vertices(g, inst, bounds, universe)
            pruned += len(survivors) < len(universe)
        assert kinds["int"] and kinds["Fraction"] and kinds["none"]
        assert pruned > 0

    @pytest.mark.parametrize("lower_u", [Fraction(7, 3), 2], ids=["fraction", "int"])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_upper_on_the_edge(self, lower_u, shift):
        # v's neighbours u and w carry lower bounds; v's upper sits at the
        # larger one, lower(u), or one unit of 1/126 (D at h = 3, T = 20)
        # either side, as an int where it is whole.  Only an upper strictly
        # below lower(u) prunes v.
        g = Graph(edges=[("u", "v"), ("v", "w"), ("u", "w")])
        inst = clique_instances(g, 3)
        bounds = CompactBounds()
        bounds.lower["u"] = lower_u
        bounds.lower["w"] = Fraction(1, 3)
        edge = lower_u + Fraction(shift, 126)
        bounds.upper["v"] = edge.numerator if edge.denominator == 1 else edge
        survivors = prune_invalid_vertices(g, inst, bounds, g.vertices())
        assert survivors == reference_prune_invalid_vertices(g, inst, bounds, g.vertices())
        assert ("v" in survivors) == (shift >= 0)

    def test_unbounded_and_isolated_vertices(self):
        g = Graph(vertices=["lone"], edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        inst = clique_instances(g, 3)
        # "ghost" is in the universe but not in the graph.
        bounds = CompactBounds(
            lower={"a": Fraction(5)}, upper={"d": Fraction(1, 2), "lone": 0, "ghost": 0}
        )
        universe = ["a", "b", "c", "d", "lone", "ghost"]
        survivors = prune_invalid_vertices(g, inst, bounds, universe)
        assert survivors == reference_prune_invalid_vertices(g, inst, bounds, universe)

    def test_rule2_peels_only_without_core_numbers(self, monkeypatch, figure2):
        import repro.lhcds.prune as prune_module

        peels = []
        real_peel = prune_module.peel
        monkeypatch.setattr(
            prune_module, "peel", lambda *args: peels.append(args) or real_peel(*args)
        )
        inst = clique_instances(figure2, 3)
        universe = list(figure2.vertices())
        bounds, _ = initialize_bounds(inst, universe)
        prune_invalid_vertices(figure2, inst, bounds, universe[:-3])
        assert peels == []
        # A universe vertex the core numbers do not cover, or bounds built
        # by hand, start rule 2 from one peel of the universe.
        prune_invalid_vertices(figure2, inst, bounds, universe + ["ghost"])
        hand_built = CompactBounds(lower=bounds.lower, upper=bounds.upper)
        prune_invalid_vertices(figure2, inst, hand_built, universe)
        assert len(peels) == 2

    def test_refinement_matches_fresh_peels(self):
        shapes = Counter()
        for seed in range(1200):
            rng = random.Random(seed)
            if seed % 2:
                g = random_graph(rng.randint(4, 28), rng.uniform(0.1, 0.7), seed)
            else:
                g = hybrid_community_graph(rng.randint(2, 4), rng.randint(5, 8), seed=seed)
            if seed % 7 == 0:
                g.add_vertex("lone")
            if seed % 10 == 0:
                inst = get_pattern("2-triangle").instances(g)
                shapes["2-triangle"] += 1
            else:
                inst = clique_instances(g, rng.choice((2, 3, 4, 5)))
            universe = list(g.vertices())
            if seed % 3 == 0:
                universe = rng.sample(sorted(universe, key=repr), max(1, len(universe) * 2 // 3))
            bounded = list(g.vertices())
            if seed % 9 == 0:
                # A universe vertex absent from the graph, with or without a
                # core number of its own.
                universe.append("ghost")
                if seed % 2:
                    bounded.append("ghost")
            bounds, core = initialize_bounds(inst, bounded)
            _raised_lowers(bounds, core, bounded, rng)
            if seed % 5 == 0:
                # Built by hand: no core numbers, so rule 2 starts from a peel.
                bounds = CompactBounds(lower=bounds.lower, upper=bounds.upper)
            rounds = []
            survivors = prune_invalid_vertices(g, inst, bounds, universe)
            expected = reference_prune_invalid_vertices(g, inst, bounds, universe, rounds)
            assert survivors == expected, seed
            shapes["h=%d" % inst.h] += 1
            shapes["fired"] += bool(rounds)
            shapes["cascade"] += len(rounds) >= 2
            shapes["instance-free dropped"] += any(
                inst.vertex_id(v) is None for removed in rounds for v in removed
            )
            shapes["no core numbers"] += not bounds.core.keys() >= set(universe)
        # Rule 2 removed vertices in 905 of the 1,200 cases and took two or
        # more rounds in 55 when this test was written.
        assert shapes["fired"] >= 600, shapes
        assert shapes["cascade"] >= 25, shapes
        for shape in ("h=2", "h=3", "h=4", "h=5", "2-triangle", "instance-free dropped",
                      "no core numbers"):
            assert shapes[shape] > 0, shapes

    def test_held_core_numbers_survive_solves(self, tmp_path):
        # Every solve's bounds copy shares the held component's core
        # numbers with rule 2, and cached and session-held components are
        # handed to every later solve, so no solve may write what they
        # hold.  The restriction LRU is a memo, not content.  The memo
        # holds one entry: the SEQ-kClist++ iterate for one T and, once an
        # ippv solve fills it, IPPV's first proposal (pruned groups and
        # tightened bounds).  A solve for a new T replaces the entry, but
        # nothing may change an iterate or a proposal after its fill, so
        # an entry held under one key before and after a solve is the
        # same, and every held proposal equals a fresh fill.  The graph
        # has several components, so serial ippv solves rank them by the
        # iterates and stop some before filling their proposals.
        graph = union_graph(
            hybrid_community_graph(3, 8, seed=4), shifted(hybrid_community_graph(3, 8, seed=5), 100)
        )
        options = ({"iterations": 1}, {"iterations": 20}, {"solver": "exact"},
                   {"verification": "basic"}, {"executor": "process", "jobs": 2})

        def sorted_items(values):
            return sorted((repr(v), value) for v, value in values.items())

        def sha(value):
            return hashlib.sha256(repr(value).encode()).hexdigest()

        def proposal_digest(proposal):
            return sha((
                [(sorted(map(repr, g.vertices)), g.r_min, g.r_max, g.stable)
                 for g in proposal.groups],
                sorted_items(proposal.bounds.lower),
                sorted_items(proposal.bounds.upper),
            ))

        def iterate_digest(iterate):
            return sha((iterate.alpha, sorted_items(iterate.r), iterate.denominator))

        def iterates(components):
            # (iterate digest, proposal digest or None) per held entry.  A
            # held iterate must equal a fresh SEQ-kClist++ run and a held
            # proposal a fresh fill: a fill that ran TentativeGD on the held
            # iterate, or a refinement that tightened the held bounds, would
            # fail this even where every solve writes them alike.
            entries = {}
            for c in components:
                for t, held in c.memo.items():
                    iterate = iterate_digest(held.iterate)
                    fresh_iterate = seq_kclist_plus_plus(c.instances, t, c.subgraph.vertices())
                    assert iterate == iterate_digest(fresh_iterate)
                    proposal = None
                    if held.proposal is not None:
                        proposal = proposal_digest(held.proposal)
                        _, fresh = held_proposal(
                            {}, c.subgraph, c.instances, c.bounds, t, StageTimings()
                        )
                        assert proposal == proposal_digest(fresh)
                    entries[(c.vertices, t)] = (iterate, proposal)
            return entries

        def assert_unwritten(before, after):
            # Returns how many held proposals it compared.
            assert before.keys() & after.keys()
            shared = before.keys() & after.keys()
            assert all(after[key][0] == before[key][0] for key in shared)
            # A proposal is filled once: equal where both sides hold one.
            both = [key for key in shared if None not in (before[key][1], after[key][1])]
            assert all(after[key][1] == before[key][1] for key in both)
            held_per_component = Counter(vertices for vertices, _ in after)
            assert set(held_per_component.values()) <= {1}
            return len(both)

        def digest(components):
            rows = sorted(
                (
                    c.index,
                    sorted_items(c.bounds.core),
                    c.instances.content_digest(),
                    sorted_items(c.bounds.lower),
                    sorted_items(c.bounds.upper),
                    sorted(sorted(map(repr, edge)) for edge in c.subgraph.edges()),
                )
                for c in components
            )
            assert rows and all(core for _, core, *_ in rows)
            return hashlib.sha256(repr(rows).encode()).hexdigest()

        def cached(root):
            return [c for components, _ in cache_for(root)._memory.values() for c in components]

        root = str(tmp_path / "cache")
        first = solve(graph=graph, pattern=3, k=5, cache_dir=root, executor="serial")
        assert first.preprocessing.num_active_components > 1
        before = digest(cached(root))
        held_before = iterates(cached(root))
        assert {t for _, t in held_before} == {20}
        for extra in options:
            report = solve(graph=graph, pattern=3, k=5, cache_dir=root, **extra)
            assert report.preprocessing.cache_state == "hit-memory"
        assert digest(cached(root)) == before
        assert assert_unwritten(held_before, iterates(cached(root)))

        session = IncrementalSession(graph.copy(), 3)
        session.solve(k=5, executor="serial")
        before = digest(session._states.values())
        held_before = iterates(session._states.values())
        # The solve ran on the session's ``dataclasses.replace`` copies.
        assert {t for _, t in held_before} == {20}
        for extra in options:
            session.solve(k=5, **extra)
        session.solve(k=None)
        assert digest(session._states.values()) == before
        assert assert_unwritten(held_before, iterates(session._states.values()))
        # A delta rebuilds the component it touches, with an empty memo; the
        # others keep their iterates, and solves after the delta leave them
        # as they were.  The session serves the untouched part from its
        # stored results, so after the T = 1 ranking its entry holds no
        # proposal to compare.
        edge = next(iter(graph.edges()))
        held_before = {
            key: value
            for key, value in iterates(session._states.values()).items()
            if key[0].isdisjoint(edge)
        }
        session.apply_delta(GraphDelta(remove_edges=(edge,)))
        for extra in ({}, *options):
            session.solve(k=5, **extra)
        after = iterates(session._states.values())
        assert_unwritten(held_before, after)
        assert any(edge[0] in vertices for vertices, _ in after)

        service = SolveService(cache_dir=str(tmp_path / "service"))
        try:
            service.register_graph("g", edges=[[u, v] for u, v in graph.edges()])
            service.solve({"graph": "g", "k": 5})
            service.solve_incremental("g", {"k": 5})

            def held():
                sessions = service._sessions.values()
                return cached(service.cache_dir) + [
                    c for open_session in sessions for c in open_session._states.values()
                ]

            before = digest(held())
            held_before = iterates(held())
            for extra in options:
                service.solve({"graph": "g", "k": 5, **extra})
                service.solve_incremental("g", {"k": 5, **extra})
            assert digest(held()) == before
            assert assert_unwritten(held_before, iterates(held()))
        finally:
            service.close()


class TestVerification:
    def test_is_densest_on_clique(self, k5):
        inst = clique_instances(k5, 3)
        assert is_densest(inst, k5.vertices())

    def test_is_densest_rejects_clique_plus_pendant(self):
        g = complete_graph(5)
        g.add_edge(4, 99)
        inst = clique_instances(g, 3)
        assert not is_densest(inst, g.vertices())
        assert is_densest(inst, range(5))

    def test_is_densest_empty_rejected(self, k5):
        inst = clique_instances(k5, 3)
        with pytest.raises(AlgorithmError):
            is_densest(inst, [])

    def test_derive_compact_matches_definition(self, small_random_graphs):
        for g in small_random_graphs[:5]:
            inst = clique_instances(g, 3)
            if inst.num_instances == 0:
                continue
            phi = exact_compact_numbers(inst, g.vertices())
            best = max(phi.values())
            if best == 0:
                continue
            region = derive_compact_subgraphs(inst, g.vertices(), best)
            expected = {v for v, value in phi.items() if value >= best}
            assert region == expected

    def test_verify_basic_accepts_true_lhcds(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        assert verify_basic(two_cliques, inst, range(5), inst.density_of(range(5)))

    def test_verify_basic_rejects_subset_of_lhcds(self, two_cliques):
        inst = clique_instances(two_cliques, 3)
        assert not verify_basic(two_cliques, inst, range(4), inst.density_of(range(4)))

    def test_verify_fast_agrees_with_basic(self, small_random_graphs):
        for g in small_random_graphs:
            inst = clique_instances(g, 3)
            if inst.num_instances == 0:
                continue
            bounds, _ = initialize_bounds(inst, g.vertices())
            phi = exact_compact_numbers(inst, g.vertices())
            # Check agreement on every self-densest level-set component.
            values = sorted({v for v in phi.values() if v > 0}, reverse=True)
            for rho in values:
                level = {v for v, value in phi.items() if value == rho}
                from repro.graph import connected_components

                for component in connected_components(g.induced_subgraph(level)):
                    if not is_densest(inst, component):
                        continue
                    density = inst.density_of(component)
                    fast = verify_fast(g, inst, component, density, bounds)
                    basic = verify_basic(g, inst, component, density)
                    assert fast == basic

    def test_compact_closure_contains_candidate(self, figure2):
        inst = clique_instances(figure2, 3)
        bounds, _ = initialize_bounds(inst, figure2.vertices())
        closure = compact_closure(figure2, bounds, set(range(2, 7)), Fraction(2))
        assert set(range(2, 7)) <= closure
        assert len(closure) < figure2.num_vertices

    def test_verify_fast_short_circuit_true(self):
        # Isolated clique far from everything: closure == candidate.
        g = union_graph(complete_graph(5), Graph(edges=[(10, 11)]))
        inst = clique_instances(g, 3)
        bounds, _ = initialize_bounds(inst, g.vertices())
        from repro.lhcds import VerificationStats

        stats = VerificationStats()
        assert verify_fast(g, inst, range(5), inst.density_of(range(5)), bounds, stats=stats)
        assert stats.short_circuit_true == 1
        assert stats.flow_verifications == 0


class TestReferenceImplementation:
    def test_compactness_of_clique(self, k5):
        inst = clique_instances(k5, 3)
        assert compactness_of(k5, inst, set(range(5))) == Fraction(2)

    def test_compactness_disconnected_is_zero(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        inst = clique_instances(g, 2)
        assert compactness_of(g, inst, {0, 1, 2, 3}) == Fraction(0)

    def test_brute_force_compact_number_limit(self):
        g = complete_graph(17)
        inst = clique_instances(g, 2)
        with pytest.raises(AlgorithmError):
            brute_force_compact_numbers(g, inst)

    def test_exact_matches_brute_force_on_randoms(self, small_random_graphs):
        for g in small_random_graphs[:4]:
            inst = clique_instances(g, 3)
            brute = brute_force_compact_numbers(g, inst)
            exact = exact_compact_numbers(inst, g.vertices())
            for v in g.vertices():
                assert brute[v] == exact.get(v, Fraction(0))
