"""Stable h-clique group derivation (Algorithm 2, ``DeriveSG``).

A *stable h-clique group* (Definition 6) with respect to a feasible solution
``(alpha, r)`` of CP(G, h) is a vertex group ``S`` such that

1. every other vertex's ``r`` lies strictly outside ``[min_S r, max_S r]``,
2. vertices above the group send no weight into instances shared with it,
3. vertices below the group receive no weight from instances shared with it.

Theorem 4 then sandwiches the true compact number of every member between
``min_S r`` and ``max_S r``, which is how the bounds get tightened.  The
groups are the LhCDS candidates that the pruning and verification stages
consume.

DeriveSG makes one pass over the tentative order.  The accumulated group is
always a contiguous slice ``order[lo:hi]``, so its ``r`` range is a running
min/max.  TentativeGD moved weight after it sorted the order, so ``r`` is
not monotone along it.  Condition 1 therefore bisects a sorted copy of the
order's ``r`` values: the group is isolated exactly when its slack-widened
range holds no more values than the group has members.  Only a group that
passes condition 1 walks its incident instances, once, for conditions 2
and 3; each slot is classified by its position in the order and by an
``r`` threshold.  A group that is the whole order skips the walk: every
slot is a member's, so neither condition can fail.  The cost is one sort
of the ``n`` ``r`` values, one bisect pair per tentative subset, and one
incident-instance walk per check that passes condition 1 on a proper
part of the order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..graph.graph import Vertex
from .bounds import CompactBounds
from .decomposition import TentativeDecomposition
from .seq_kclist import WeightState

#: The repository's single floating-point slack constant.
#:
#: Inexact data enters the exact pipeline in exactly one place: the
#: Frank–Wolfe ``r`` values of SEQ-kClist++, consumed here by the
#: Definition-6 stability checks and the Theorem-4 bound tightening.  The
#: slack is applied *at that boundary only* — group ranges widen by it,
#: upper bounds are padded up by it, lower bounds down — so that rounding
#: noise can only make the algorithm more conservative (merge more, prune
#: less, keep bounds sound).  Everything downstream of the boundary
#: (closure membership and short-circuit tests in ``verify``, heap
#: priorities and the certified early stop in ``ippv``) compares the
#: resulting sound bounds against exact :class:`~fractions.Fraction`
#: densities directly: Python's ``float``-vs-``Fraction`` comparison is
#: exact, so no further epsilon may appear on those paths.
FLOAT_SLACK = 1e-9


@dataclass
class StableGroup:
    """One stable group: its vertices and the r-value range they span."""

    vertices: List[Vertex]
    r_min: float
    r_max: float
    #: Whether Definition 6 was actually satisfied.  A trailing accumulation
    #: that never stabilised is still emitted as a candidate, but Theorem 4
    #: does not apply to it, so it must not be used to tighten bounds.
    stable: bool = True


def _weights_respect_group(
    state: WeightState,
    member_ids: List[Optional[int]],
    position: List[int],
    r_at: List[float],
    lo: int,
    hi: int,
    high: float,
) -> bool:
    """Check Definition 6's conditions 2 and 3 for the group ``order[lo:hi]``.

    Called only once condition 1 holds, so every other vertex of the order
    is above ``high`` or below the group's range.  A slot is a member when
    its position lies in ``[lo, hi)``; slots of vertices outside the order
    (position -1) are ignored.
    """
    instances = state.instances
    alpha = state.alpha
    h = instances.h
    flat = instances.flat_ids
    indptr = instances.incidence_indptr
    incidence = instances.incidence_indices
    checked: set = set()
    for uid in member_ids:
        if uid is None:
            continue
        for idx in incidence[indptr[uid] : indptr[uid + 1]]:
            if idx in checked:
                continue
            checked.add(idx)
            base = idx * h
            touches_below = False
            member_weighted = False
            for slot in range(base, base + h):
                pos = position[flat[slot]]
                if pos < 0:
                    continue
                if lo <= pos < hi:
                    if alpha[slot] > FLOAT_SLACK:
                        member_weighted = True
                elif r_at[pos] > high:
                    if alpha[slot] > FLOAT_SLACK:
                        # Condition 2 violated.
                        return False
                else:
                    touches_below = True
            if touches_below and member_weighted:
                # Condition 3 violated.
                return False
    return True


def derive_stable_groups(
    decomposition: TentativeDecomposition,
    state: WeightState,
    bounds: CompactBounds,
) -> Tuple[List[StableGroup], CompactBounds]:
    """Merge tentative subsets into stable groups and tighten the bounds.

    Follows Algorithm 2 lines 25-33: subsets are accumulated until the
    accumulated set satisfies Definition 6; Theorem 4 then updates each
    member's bounds with the group's ``min r`` / ``max r``.  A trailing
    accumulation that never becomes stable is still emitted (it is a valid
    candidate superset; dropping it could lose an LhCDS).
    """
    order = decomposition.order
    r_at = [state.received(v) for v in order]
    sorted_r = sorted(r_at)
    instances = state.instances
    id_at = [instances.vertex_id(v) for v in order]
    position = [-1] * instances.num_interned
    for pos, vid in enumerate(id_at):
        if vid is not None:
            position[vid] = pos

    groups: List[StableGroup] = []
    lo = hi = 0
    r_min: float = 0.0
    r_max: float = 0.0
    for subset in decomposition.subsets:
        block = r_at[hi : hi + len(subset)]
        if hi == lo:
            r_min, r_max = min(block), max(block)
        else:
            r_min = min(r_min, min(block))
            r_max = max(r_max, max(block))
        hi += len(subset)
        high = r_max + FLOAT_SLACK
        # Condition 1: every member lies in [r_min - slack, high], so the
        # group is isolated iff that window holds no other vertex; a
        # non-member on the window's edge blocks it.
        inside = bisect_right(sorted_r, high) - bisect_left(sorted_r, r_min - FLOAT_SLACK)
        if inside != hi - lo:
            continue
        # The whole order owns every slot the walk reads, so it cannot fail.
        whole = lo == 0 and hi == len(order)
        if not whole and not _weights_respect_group(
            state, id_at[lo:hi], position, r_at, lo, hi, high
        ):
            continue
        groups.append(StableGroup(vertices=order[lo:hi], r_min=r_min, r_max=r_max))
        lo = hi
    if hi > lo:
        groups.append(
            StableGroup(vertices=order[lo:hi], r_min=r_min, r_max=r_max, stable=False)
        )

    for group in groups:
        if not group.stable:
            continue
        upper = group.r_max + FLOAT_SLACK
        lower = group.r_min - FLOAT_SLACK
        for v in group.vertices:
            bounds.tighten_upper(v, upper)
        # Lower bounds are never negative, so a non-positive one raises
        # nothing; skipping it saves a float-to-Fraction compare per member.
        if lower > 0:
            for v in group.vertices:
                bounds.tighten_lower(v, lower)
    return groups, bounds
