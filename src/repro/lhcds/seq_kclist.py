"""SEQ-kClist++: Frank–Wolfe style weight distribution (Algorithm 2, lines 5-13).

Every instance (h-clique / pattern occurrence) owns one unit of weight and
distributes it over its ``h`` vertices.  ``r(u)`` is the total weight received
by ``u``.  At the optimum of the convex program CP(G, h) the value ``r*(u)``
equals the h-clique compact number ``phi_h(u)`` (Theorem 2); a finite number
of iterations yields a feasible approximation that the stable-group stage
turns into valid lower/upper bounds (Theorem 4).  The iterate's ``r`` also
caps IPPV's heap priorities by weak duality.

The iterate is exact: every weight is an integer numerator over one
denominator ``D = h * (T + 1) * L`` with ``L = lcm(1, ..., h - 1)``.  The
Frank–Wolfe rounds only count picks, so ``D / L = h * (T + 1)`` already
makes every weight integral; ``L`` keeps TentativeGD's even split of a
moved weight over at most ``h - 1`` receivers integral too (see
:mod:`repro.lhcds.decomposition`).  No stage rounds, so every comparison
from the kernel to the certified stop is between ``int`` or
:class:`~fractions.Fraction` values.

A caller that solves one instance set again and again (a prepared
component of the engine) keeps its latest iterate in a one-entry memo
keyed by ``T``, filled by :func:`held_iterate`.  The entry, a
:class:`HeldIterate`, also holds IPPV's first proposal from the iterate
once IPPV fills it (:func:`repro.lhcds.ippv.held_proposal`).  An entry is
read-only after each fill: TentativeGD works on
:meth:`WeightState.working_copy`.

The numeric inner loop lives in :mod:`repro.kernels.fw_stdlib`:
:func:`~repro.kernels.fw_stdlib.fw_distribute` runs the per-round
water-filling on integer loads and returns the per-slot pick counts, laid
out like the CSR instance ids of :class:`~repro.instances.InstanceSet`
(instance ``i``'s ``j``-th slot is ``i * h + j``).  The pattern size
picks the loop: triangles (``h = 3``) run an unrolled three-way
poorest-vertex pick over strided columns of the flat ids, every other
``h`` the generic slot scan; both pick the same vertex, so the iterate
does not depend on the branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..errors import AlgorithmError
from ..graph.graph import Vertex
from ..instances import InstanceSet
from ..kernels.fw_stdlib import fw_distribute

if TYPE_CHECKING:
    from .ippv import FirstProposal


@dataclass
class WeightState:
    """The (alpha, r) pair produced by SEQ-kClist++, as numerators over ``denominator``.

    ``alpha`` is a flat list of ``num_instances * h`` weight numerators
    laid out in the instance-set's CSR order: ``alpha[i * h + j]`` is the
    weight instance ``i`` assigns to its ``j``-th vertex
    (positions follow ``instances.instances[i]``, i.e.
    ``instances.flat_ids[i * h + j]``).  ``r[v]`` is the numerator of the
    weight received by vertex ``v``.  ``denominator`` is ``D = h * (T + 1)
    * L`` with ``L = lcm(1, ..., h - 1)``.  Feasibility invariant: each
    instance's ``h`` slots are non-negative and sum to ``D``.

    As SEQ-kClist++ returns it, ``r[v]`` is ``L * W`` with ``W = deg + h *
    picks``.  Feasible slots make ``r / D`` a feasible point of CP(G, h), so
    by weak duality no subset of a vertex set ``C`` is denser than ``max r /
    D`` over ``C``.
    """

    instances: InstanceSet
    alpha: List[int]
    r: Dict[Vertex, int]
    denominator: int

    def working_copy(self) -> "WeightState":
        """A copy whose ``alpha`` and ``r`` TentativeGD may rewrite."""
        return WeightState(
            instances=self.instances,
            alpha=self.alpha[:],
            r=dict(self.r),
            denominator=self.denominator,
        )

    def received(self, vertex: Vertex) -> int:
        """Return the numerator of ``r(vertex)`` (0 for vertices in no instance)."""
        return self.r.get(vertex, 0)

    def recompute_r(self, vertices: Optional[Sequence[Vertex]] = None) -> None:
        """Recompute ``r`` from ``alpha`` (used after redistribution)."""
        instances = self.instances
        universe = set(vertices) if vertices is not None else instances.vertices()
        n_vertices = instances.num_interned
        r_of = [0] * n_vertices
        alpha = self.alpha
        for pos, vid in enumerate(instances.flat_ids):
            r_of[vid] += alpha[pos]
        r = {v: 0 for v in universe}
        for vid in range(n_vertices):
            v = instances.vertex_at(vid)
            if v in r:
                r[v] = r_of[vid]
        self.r = r


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

    # Per-vertex incidence degrees seed the loads (every incident instance
    # contributes 1/h, so h times that is the degree), and the repr-sorted
    # rank replaces per-comparison string tie-breaks in the poorest-vertex
    # selection — same order, integer compares.
    indptr = instances.incidence_indptr
    degrees = [indptr[vid + 1] - indptr[vid] for vid in range(n_vertices)]
    reprs = [repr(instances.vertex_at(vid)) for vid in range(n_vertices)]
    rank_of = [0] * n_vertices
    for rank, vid in enumerate(sorted(range(n_vertices), key=reprs.__getitem__)):
        rank_of[vid] = rank

    picks, load = fw_distribute(h, flat, degrees, rank_of, iterations)

    # A slot holds (picks + 1/h) / (T + 1) = L * (h * picks + 1) / D.
    unit = math.lcm(*range(1, h))
    denominator = h * (iterations + 1) * unit
    step = h * unit
    alpha = [step * p + unit for p in picks]
    universe = set(vertices) if vertices is not None else instances.vertices()
    r: Dict[Vertex, int] = {v: 0 for v in universe}
    for vid, w in enumerate(load):
        r[instances.vertex_at(vid)] = unit * w
    return WeightState(instances=instances, alpha=alpha, r=r, denominator=denominator)


@dataclass
class HeldIterate:
    """One entry of a held memo: the SEQ-kClist++ iterate for one ``T``.

    ``proposal`` is IPPV's first proposal from ``iterate`` (the pruned
    candidate groups and the bounds DeriveSG tightened), or ``None`` until
    the first IPPV run at this ``T`` fills it.  Each field is set once and
    only read after: the serial ranking reads ``iterate`` alone, so a
    component it ranks but never solves pays for no proposal.
    """

    iterate: WeightState
    proposal: Optional["FirstProposal"] = None


def held_iterate(
    held: Dict[int, HeldIterate],
    instances: InstanceSet,
    iterations: int,
    vertices: Sequence[Vertex],
) -> HeldIterate:
    """``held[iterations]``, running SEQ-kClist++ to fill it on first use.

    ``held`` is a memo of one entry on ``instances`` over the universe
    ``vertices``.  A fill for a new ``T`` replaces the entry, proposal
    included, with a new iterate, so asking a held component for many
    ``T`` keeps one entry, not one per ``T``.  No caller may change an
    iterate (see :meth:`WeightState.working_copy`); a reader keeps the
    entry it got after a later fill replaces it.  Fills racing on two
    threads each return their own entry and may leave one entry each.
    """
    entry = held.get(iterations)
    if entry is None:
        entry = HeldIterate(seq_kclist_plus_plus(instances, iterations, vertices))
        held.clear()
        held[iterations] = entry
    return entry
