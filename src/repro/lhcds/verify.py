"""LhCDS verification (Section 4.4): ``IsDensest`` plus basic / fast checks.

Verification has two parts:

* ``IsDensest`` — no subgraph of the candidate is strictly denser than the
  candidate itself (Proposition 6.1).  Decided exactly with one max-flow on
  the candidate's own instances, using a threshold ``rho + 1/(2|S|^2)`` that
  provably separates "denser exists" from "self-densest".

* Maximal-compactness — the candidate must be a connected component of the
  union of maximal ``rho``-compact subgraphs of the *host* graph, where
  ``rho`` is the candidate's density (Definition 2.2, Theorem 5).  The
  **basic** verifier (Algorithm 4) builds the ``DeriveCompact`` network over
  the whole graph; the **fast** verifier (Algorithm 5) first restricts the
  graph to the BFS closure of the candidate over vertices whose compact-number
  upper bound is at least ``rho`` — every maximal ``rho``-compact subgraph
  that could touch the candidate lives inside that closure, so the answer is
  unchanged while the flow network is typically far smaller.

Both verifiers are exact; the fast one also short-circuits to ``True`` when
the closure adds nothing to the candidate (no flow computation at all), and
to ``False`` when a neighbour provably has a larger compact number
(Proposition 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Set

from ..errors import AlgorithmError
from ..flow.network import solve_compact_network
from ..graph.components import connected_components
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from .bounds import CompactBounds


@dataclass
class VerificationStats:
    """Counters describing the work done by the verification stage."""

    is_densest_calls: int = 0
    flow_verifications: int = 0
    short_circuit_true: int = 0
    short_circuit_false: int = 0
    closure_sizes: List[int] = field(default_factory=list)


def merge_verification_stats(total: VerificationStats, delta: VerificationStats) -> None:
    """Accumulate ``delta`` into ``total`` (counters add, closure sizes append)."""
    total.is_densest_calls += delta.is_densest_calls
    total.flow_verifications += delta.flow_verifications
    total.short_circuit_true += delta.short_circuit_true
    total.short_circuit_false += delta.short_circuit_false
    total.closure_sizes.extend(delta.closure_sizes)


def is_densest(
    instances: InstanceSet,
    candidate: Iterable[Vertex],
) -> bool:
    """Return True when no subset of ``candidate`` is strictly denser.

    Only instances fully inside the candidate are considered (induced
    semantics).  ``instances`` may be the host graph's, or the candidate's
    own restriction, which IPPV hands in: restricting that to the candidate
    returns it as is, without a scan.
    """
    subset = set(candidate)
    if not subset:
        raise AlgorithmError("cannot verify the empty candidate")
    local = instances.restrict(subset)
    count = local.num_instances
    n = len(subset)
    rho = Fraction(count, n)
    # Any strictly denser subset has density >= rho + 1/n^2 > rho', and no
    # subset can have density exactly rho' (its denominator exceeds n), so a
    # denser subset exists iff the maximiser of |Psi(A)| - rho'|A| is
    # non-empty.
    rho_prime = rho + Fraction(1, 2 * n * n)
    denser = solve_compact_network(local, rho_prime, vertices=subset)
    return len(denser) == 0


def derive_compact_subgraphs(
    instances: InstanceSet,
    vertices: Iterable[Vertex],
    rho: Fraction,
) -> Set[Vertex]:
    """Return the union of all maximal ``rho``-compact subgraphs (Theorem 5).

    Implemented as ``DeriveCompact(G, rho - epsilon, ∅)`` with an epsilon
    small enough (``1/(2 n^2)``) that no subgraph of compactness < ``rho``
    can sneak into the maximiser.
    """
    universe = set(vertices)
    if not universe:
        return set()
    n = len(universe)
    epsilon = Fraction(1, 2 * n * n)
    target = rho - epsilon
    if target < 0:
        target = Fraction(0)
    working = instances.restrict(universe)
    return solve_compact_network(working, target, vertices=universe)


def _is_component_of(graph: Graph, candidate: Set[Vertex], region: Set[Vertex]) -> bool:
    """Check that ``candidate`` is exactly one connected component of ``G[region]``."""
    if not candidate <= region:
        return False
    for component in connected_components(graph, region):
        if component == candidate:
            return True
    return False


def verify_basic(
    graph: Graph,
    instances: InstanceSet,
    candidate: Iterable[Vertex],
    rho: Fraction,
    *,
    stats: Optional[VerificationStats] = None,
) -> bool:
    """Algorithm 4: verify maximal compactness against the whole graph.

    ``instances`` are the host graph's, and ``rho`` is the candidate's
    density on them (``|Psi(S)| / |S|``), which the caller already holds.
    """
    subset = set(candidate)
    if not subset:
        return False
    region = derive_compact_subgraphs(instances, graph.vertices(), rho)
    if stats is not None:
        stats.flow_verifications += 1
        stats.closure_sizes.append(graph.num_vertices)
    return _is_component_of(graph, subset, region)


def compact_closure(
    graph: Graph,
    bounds: CompactBounds,
    candidate: Set[Vertex],
    rho: Fraction,
) -> Set[Vertex]:
    """BFS closure of the candidate over vertices that may reach compactness ``rho``.

    Every maximal ``rho``-compact subgraph consists of vertices whose compact
    number is at least ``rho``; such vertices have upper bound >= ``rho``.
    Starting from the candidate and repeatedly adding adjacent vertices whose
    upper bound is at least ``rho`` therefore covers the entire connected
    component of the maximal ``rho``-compact region that contains the
    candidate — which is all the basic verifier ever inspects.

    The membership test is the *exact* comparison ``upper_of(u) >= rho``:
    every stored upper bound is an ``int`` or a
    :class:`~fractions.Fraction` (Algorithm 1's core numbers or Theorem 4's
    bounds from the exact Frank–Wolfe iterate), so no epsilon is needed
    here; an earlier ad-hoc ``rho - 1e-9`` threshold merely inflated the
    closure.
    """
    closure: Set[Vertex] = set(candidate)
    frontier: List[Vertex] = list(candidate)
    while frontier:
        v = frontier.pop()
        for u in graph.neighbors(v):
            if u in closure:
                continue
            upper_u = bounds.upper_of(u)
            # None means unbounded: trivially >= rho, so inside the closure.
            if upper_u is None or upper_u >= rho:
                closure.add(u)
                frontier.append(u)
    return closure


def verify_fast(
    graph: Graph,
    instances: InstanceSet,
    candidate: Iterable[Vertex],
    rho: Fraction,
    bounds: CompactBounds,
    *,
    stats: Optional[VerificationStats] = None,
) -> bool:
    """Algorithm 5: verify maximal compactness on a reduced region.

    ``instances``, ``candidate`` and ``rho`` are as for
    :func:`verify_basic`.  The reduction restricts the flow network to the
    candidate's compact closure (see :func:`compact_closure`); short
    circuits avoid the flow entirely in the common cases.
    """
    subset = set(candidate)
    if not subset:
        return False

    # Short-circuit False: a neighbour with a certified larger compact number
    # violates Proposition 4, so the candidate cannot be an LhCDS.  (Algorithm
    # 5's hint of already-output vertices is not used as a rejection here,
    # because this driver does not guarantee strictly descending output
    # densities; the flow check below covers that case.)
    # The comparison is exact: stored lower bounds are sound ints or
    # Fractions, so any slack here would only miss valid rejections.
    for v in subset:  # repro: allow-DT01(boolean any-neighbour scan; the result does not depend on visit order)
        for u in graph.neighbors(v):
            if u in subset:
                continue
            if bounds.lower_of(u) > rho:
                if stats is not None:
                    stats.short_circuit_false += 1
                return False

    closure = compact_closure(graph, bounds, subset, rho)
    if stats is not None:
        stats.closure_sizes.append(len(closure))

    if closure == subset:
        # No outside vertex can reach compactness rho, so the candidate's own
        # compactness decides the matter; IsDensest already certified that the
        # candidate is self-densest, which implies rho-compactness.
        if stats is not None:
            stats.short_circuit_true += 1
        return True

    region = derive_compact_subgraphs(instances, closure, rho)
    if stats is not None:
        stats.flow_verifications += 1
    return _is_component_of(graph, subset, region)
