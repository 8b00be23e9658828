"""Exact (maximal) densest-subset computation over an instance set.

Given an :class:`~repro.instances.InstanceSet` (h-cliques or any pattern),
:func:`maximal_densest_subset` computes the subgraph maximising the
instance density ``|Psi(S)| / |S|`` *exactly* by Dinkelbach iteration.
Each step solves the ``DeriveCompact`` network of
:func:`repro.flow.network.solve_compact_network` at a guess ``rho``; its
maximal min-cut source side is the largest maximiser of
``|Psi(S)| - rho |S|``.  If that set is denser than ``rho`` the guess rises
to its density, otherwise it is the (unique) maximal densest subgraph.
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
) -> Tuple[Set[Vertex], Fraction]:
    """Return the maximal densest vertex set and its exact density.

    Parameters
    ----------
    instances:
        Pattern instances of the working graph (only instances fully inside
        ``vertices`` are counted).
    vertices:
        Vertex universe; defaults to the vertices covered by ``instances``.

    Returns
    -------
    (subset, density):
        The maximal densest set and its density ``|Psi(S)| / |S|``.
    """
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    if not universe:
        raise AlgorithmError("cannot compute densest subset of an empty universe")
    working = instances.restrict(universe) if vertices is not None else instances

    # Start from the whole universe (always a feasible candidate).
    best_set = set(universe)
    rho = working.density_of(best_set)

    while True:
        candidate = solve_compact_network(working, rho, vertices=universe)
        if not candidate:
            # Nothing beats the current guess; the previous best is optimal.
            return best_set, rho
        cand_density = working.density_of(candidate)
        if cand_density > rho:
            rho = cand_density
            best_set = candidate
            continue
        # The guess rho is optimal; the maximal maximiser at rho is the
        # maximal densest subset (it contains every optimal set).
        if cand_density == rho:
            best_set = candidate
        return best_set, rho
