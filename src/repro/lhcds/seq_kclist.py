"""SEQ-kClist++: Frank–Wolfe style weight distribution (Algorithm 2, lines 5-13).

Every instance (h-clique / pattern occurrence) owns one unit of weight and
distributes it over its ``h`` vertices.  ``r(u)`` is the total weight received
by ``u``.  At the optimum of the convex program CP(G, h) the value ``r*(u)``
equals the h-clique compact number ``phi_h(u)`` (Theorem 2); a finite number
of iterations yields a feasible approximation that the stable-group stage
turns into valid lower/upper bounds (Theorem 4).  Its exact integer loads
(:class:`WeightState`) also cap IPPV's heap priorities by weak duality.

A caller that solves one instance set again and again (a prepared
component of the engine) keeps its iterates in a write-once memo keyed by
``T``, filled by :func:`held_iterate`.  A held iterate is read-only:
TentativeGD works on :meth:`WeightState.working_copy`.

The numeric inner loop lives in :mod:`repro.kernels.fw_stdlib`: the weights
are laid out as one flat ``array('d')`` buffer indexed by the CSR instance
offsets of :class:`~repro.instances.InstanceSet` (instance ``i``'s ``j``-th
slot is ``alpha[i * h + j]``), and
:func:`~repro.kernels.fw_stdlib.fw_distribute` runs the per-round
water-filling on it.  The pattern size picks the loop: triangles
(``h = 3``) run an unrolled three-way poorest-vertex pick over strided
columns of the flat ids, every other ``h`` the generic slot scan; both
pick the same vertex, so ``alpha`` and ``r`` do not depend on the branch.
"""

# repro: allow-file-EX01(Frank-Wolfe iterate: approximate float weights by design; stable_groups pads them with FLOAT_SLACK before any certified comparison)

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import AlgorithmError
from ..graph.graph import Vertex
from ..instances import InstanceSet
from ..kernels.fw_stdlib import fw_distribute


@dataclass
class WeightState:
    """The (alpha, r) pair produced by SEQ-kClist++, with its exact loads.

    ``alpha`` is a flat buffer of ``num_instances * h`` weights laid out in
    the instance-set's CSR order: ``alpha[i * h + j]`` is the weight instance
    ``i`` assigns to its ``j``-th vertex (positions follow
    ``instances.instances[i]``, i.e. ``instances.flat_ids[i * h + j]``).
    ``r[v]`` is the sum of weights received by vertex ``v``.  Feasibility
    invariant: each instance's ``h`` slots are non-negative and sum to 1.

    ``loads[vid]`` is the exact Frank–Wolfe load ``W = deg + h * picks`` of
    interned id ``vid``, and ``denominator`` is ``D = h * (T + 1)``: the
    iterate gives ``vid`` exactly ``W / D``, and every instance's parts sum
    to ``D``, so the loads are a feasible solution of CP(G, h) in integers.
    By weak duality no subset ``S`` of a vertex set ``C`` is denser than
    ``max W / D`` over ``C``.  They describe the iterate as the kernel
    returned it: TentativeGD's redistribution moves ``alpha`` and ``r``
    and leaves them alone.
    """

    instances: InstanceSet
    alpha: array
    r: Dict[Vertex, float]
    loads: List[int]
    denominator: int

    def working_copy(self) -> "WeightState":
        """A copy whose ``alpha`` and ``r`` TentativeGD may rewrite.

        The instances and the exact loads are shared; nothing writes them.
        """
        return WeightState(
            instances=self.instances,
            alpha=self.alpha[:],
            r=dict(self.r),
            loads=self.loads,
            denominator=self.denominator,
        )

    def received(self, vertex: Vertex) -> float:
        """Return ``r(vertex)`` (0.0 for vertices in no instance)."""
        return self.r.get(vertex, 0.0)

    def recompute_r(self, vertices: Optional[Sequence[Vertex]] = None) -> None:
        """Recompute ``r`` from ``alpha`` (used after redistribution)."""
        instances = self.instances
        universe = set(vertices) if vertices is not None else instances.vertices()
        n_vertices = instances.num_interned
        r_of = [0.0] * n_vertices
        alpha = self.alpha
        for pos, vid in enumerate(instances.flat_ids):
            r_of[vid] += alpha[pos]
        r = {v: 0.0 for v in universe}
        for vid in range(n_vertices):
            v = instances.vertex_at(vid)
            if v in r:
                r[v] = r_of[vid]
        self.r = r

    def check_feasible(self, tolerance: float = 1e-6) -> bool:
        """Return True when every instance's weights are a distribution."""
        alpha = self.alpha
        h = self.instances.h
        if any(w < -tolerance for w in alpha):
            return False
        for base in range(0, len(alpha), h):
            if abs(sum(alpha[base : base + h]) - 1.0) > tolerance:
                return False
        return True


def seq_kclist_plus_plus(
    instances: InstanceSet,
    iterations: int,
    vertices: Optional[Sequence[Vertex]] = None,
) -> WeightState:
    """Run the SEQ-kClist++ iterations and return the resulting weights.

    Parameters
    ----------
    instances:
        The pattern instances of the working graph.
    iterations:
        Number of Frank–Wolfe passes ``T`` (the paper uses T = 20 by default).
    vertices:
        Optional vertex universe; vertices outside every instance keep
        ``r = 0`` implicitly.
    """
    if iterations < 0:
        raise AlgorithmError(f"iterations must be non-negative, got {iterations}")
    h = instances.h
    flat = instances.flat_ids
    n_vertices = instances.num_interned

    # Per-vertex incidence degrees seed r (every incident instance contributes
    # 1/h), and the repr-sorted rank replaces per-comparison string tie-breaks
    # in the poorest-vertex selection — same order, integer compares.
    indptr = instances.incidence_indptr
    degrees = [indptr[vid + 1] - indptr[vid] for vid in range(n_vertices)]
    reprs = [repr(instances.vertex_at(vid)) for vid in range(n_vertices)]
    rank_of = [0] * n_vertices
    for rank, vid in enumerate(sorted(range(n_vertices), key=reprs.__getitem__)):
        rank_of[vid] = rank

    alpha, r_of, loads = fw_distribute(h, flat, degrees, rank_of, iterations)

    universe = set(vertices) if vertices is not None else instances.vertices()
    r: Dict[Vertex, float] = {v: 0.0 for v in universe}
    for vid in range(n_vertices):
        r[instances.vertex_at(vid)] = r_of[vid]
    return WeightState(
        instances=instances,
        alpha=alpha,
        r=r,
        loads=loads,
        denominator=h * (iterations + 1),
    )


def held_iterate(
    held: Dict[int, WeightState],
    instances: InstanceSet,
    iterations: int,
    vertices: Sequence[Vertex],
) -> WeightState:
    """``held[iterations]``, running SEQ-kClist++ to fill it on first use.

    ``held`` is a write-once memo of iterates on ``instances`` over the
    universe ``vertices``: an entry is never replaced, and no caller may
    change one (see :meth:`WeightState.working_copy`).
    """
    state = held.get(iterations)
    if state is None:
        # Set-if-absent: two fills racing store one of their equal iterates.
        state = held.setdefault(
            iterations, seq_kclist_plus_plus(instances, iterations, vertices)
        )
    return state
