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

The iterate is exact (integer numerators over one denominator ``D``, see
:mod:`repro.lhcds.seq_kclist`), so the checks are the definition as
stated: condition 1's window is exactly ``[r_min, r_max]``, and
conditions 2 and 3 ask whether a slot holds any weight at all.  A group's
range and Theorem 4's bounds are stored as exact
:class:`~fractions.Fraction` values.

DeriveSG makes one pass over the tentative order.  The accumulated group is
always a contiguous slice ``order[lo:hi]``, so its ``r`` range is a running
min/max.  TentativeGD moved weight after it sorted the order, so ``r`` is
not monotone along it.  Condition 1 therefore bisects a sorted copy of the
order's ``r`` numerators: the group is isolated exactly when its range
holds no more values than the group has members.  Only a group that passes
condition 1 walks its incident instances, once, for conditions 2 and 3;
each slot is classified by its position in the order and by an ``r``
threshold.  A group that is the whole order skips the walk: every slot is
a member's, so neither condition can fail.  The cost is one sort of the
``n`` ``r`` values, one bisect pair per tentative subset, and one
incident-instance walk per check that passes condition 1 on a proper part
of the order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..graph.graph import Vertex
from .bounds import CompactBounds
from .decomposition import TentativeDecomposition
from .seq_kclist import WeightState


@dataclass
class StableGroup:
    """One stable group: its vertices and the exact r-value range they span."""

    vertices: List[Vertex]
    r_min: Fraction
    r_max: Fraction
    #: Whether Definition 6 was actually satisfied.  A trailing accumulation
    #: that never stabilised is still emitted as a candidate, but Theorem 4
    #: does not apply to it, so it must not be used to tighten bounds.
    stable: bool = True


def _weights_respect_group(
    state: WeightState,
    member_ids: List[Optional[int]],
    position: List[int],
    r_at: List[int],
    lo: int,
    hi: int,
    high: int,
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
                    if alpha[slot]:
                        member_weighted = True
                elif r_at[pos] > high:
                    if alpha[slot]:
                        # Condition 2 violated.
                        return False
                else:
                    touches_below = True
            if touches_below and member_weighted:
                # Condition 3 violated.
                return False
    return True


def _group(
    vertices: List[Vertex], r_min: int, r_max: int, denominator: int, stable: bool
) -> StableGroup:
    """A group whose ``r`` range runs from ``r_min`` to ``r_max`` over ``denominator``."""
    return StableGroup(
        vertices=vertices,
        r_min=Fraction(r_min, denominator),
        r_max=Fraction(r_max, denominator),
        stable=stable,
    )


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

    denominator = state.denominator
    groups: List[StableGroup] = []
    lo = hi = 0
    r_min = r_max = 0
    for subset in decomposition.subsets:
        block = r_at[hi : hi + len(subset)]
        if hi == lo:
            r_min, r_max = min(block), max(block)
        else:
            r_min = min(r_min, min(block))
            r_max = max(r_max, max(block))
        hi += len(subset)
        # Condition 1: every member lies in [r_min, r_max], so the group is
        # isolated iff that window holds no other vertex; a non-member on
        # the window's edge blocks it.
        inside = bisect_right(sorted_r, r_max) - bisect_left(sorted_r, r_min)
        if inside != hi - lo:
            continue
        # The whole order owns every slot the walk reads, so it cannot fail.
        whole = lo == 0 and hi == len(order)
        if not whole and not _weights_respect_group(
            state, id_at[lo:hi], position, r_at, lo, hi, r_max
        ):
            continue
        groups.append(_group(order[lo:hi], r_min, r_max, denominator, True))
        lo = hi
    if hi > lo:
        groups.append(_group(order[lo:hi], r_min, r_max, denominator, False))

    for group in groups:
        if not group.stable:
            continue
        bounds.tighten_upper(group.vertices, group.r_max)
        # Lower bounds are never negative, so a zero one raises nothing;
        # skipping it saves a compare per member.
        if group.r_min:
            bounds.tighten_lower(group.vertices, group.r_min)
    return groups, bounds
