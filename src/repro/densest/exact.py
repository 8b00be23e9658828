"""Exact (maximal) densest-subset computation over an instance set.

Given an :class:`~repro.instances.InstanceSet` (h-cliques or any pattern),
:func:`maximal_densest_subset` computes the subgraph maximising the
instance density ``|Psi(S)| / |S|`` *exactly* by Dinkelbach iteration.
Each step solves the ``DeriveCompact`` network of
:func:`repro.flow.network.solve_compact_network` at a guess ``rho``; its
maximal min-cut source side is the largest maximiser of
``|Psi(S)| - rho |S|``.  If that set is denser than ``rho`` the guess rises
to its density, otherwise it is the (unique) maximal densest subgraph.

A seed set can be forced into every step (the builder's ``forced``
vertices); the diminishingly-dense decomposition in :mod:`repro.lhcds.exact`
uses it to maximise the *marginal* density beyond an inner shell.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Set, Tuple

from ..errors import AlgorithmError
from ..flow.network import solve_compact_network
from ..graph.graph import Vertex
from ..instances import InstanceSet


def maximal_densest_subset(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
    *,
    seed: Optional[Iterable[Vertex]] = None,
) -> Tuple[Set[Vertex], Fraction]:
    """Return the maximal densest vertex set and its exact density.

    Parameters
    ----------
    instances:
        Pattern instances of the working graph (only instances fully inside
        ``vertices`` are counted).
    vertices:
        Vertex universe; defaults to the vertices covered by ``instances``.
    seed:
        Optional set of vertices that must be included ("constrained"
        density maximisation); used by the diminishingly-dense decomposition
        to maximise the *marginal* density beyond an inner shell.

    Returns
    -------
    (subset, density):
        With a seed, ``density`` is the marginal density
        ``(|Psi(S)| - |Psi(seed)|) / (|S| - |seed|)`` of the returned set;
        without a seed it is the plain density ``|Psi(S)| / |S|``.
    """
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    if not universe:
        raise AlgorithmError("cannot compute densest subset of an empty universe")
    working = instances.restrict(universe) if vertices is not None else instances
    forced: Set[Vertex] = set(seed) if seed is not None else set()
    if forced - universe:
        raise AlgorithmError("seed vertices must be contained in the universe")
    if forced == universe:
        raise AlgorithmError("seed must be a strict subset of the universe")

    seed_count = working.count_within(forced) if forced else 0

    def marginal_density(subset: Set[Vertex]) -> Fraction:
        extra_vertices = len(subset) - len(forced)
        if extra_vertices <= 0:
            return Fraction(0)
        extra_instances = working.count_within(subset) - seed_count
        return Fraction(extra_instances, extra_vertices)

    # Start from the whole universe (always a feasible superset of the seed).
    best_set = set(universe)
    rho = marginal_density(best_set)

    while True:
        candidate = solve_compact_network(working, rho, vertices=universe, forced=forced)
        if len(candidate) <= len(forced):
            # Nothing beats the current guess; the previous best is optimal.
            return best_set, rho
        cand_density = marginal_density(candidate)
        if cand_density > rho:
            rho = cand_density
            best_set = candidate
            continue
        # The guess rho is optimal; the maximal maximiser at rho is the
        # maximal densest subset (it contains every optimal set).
        if cand_density == rho:
            best_set = candidate
        return best_set, rho


def densest_subgraph_density(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Fraction:
    """Return only the maximum instance density (see :func:`maximal_densest_subset`)."""
    return maximal_densest_subset(instances, vertices)[1]
