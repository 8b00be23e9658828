"""Tentative graph decomposition (Algorithm 2, ``TentativeGD``).

Given the weights ``(alpha, r)`` from SEQ-kClist++, vertices are sorted by
decreasing ``r`` and split at the prefix positions whose prefix density is
not beaten by any longer prefix (line 16 of Algorithm 2).  The weight of
every instance that straddles several of these tentative subsets is
re-assigned entirely to the subset with the largest index (the one with the
smallest ``r`` values) — lines 18-22 — and ``r`` is recomputed.  This keeps
``(alpha, r)`` feasible for CP(G, h) while making the later stable-group
conditions checkable per subset.

Both steps run on the instance set's interned ids and on integers:

* **Integer breakpoints.**  Prefix ``p`` holds ``counts[p]`` instances, so
  its density is ``counts[p] / p``.  Scanning from the longest prefix down,
  ``p`` is a breakpoint when ``counts[p] * q_best >= c_best * p``, where
  ``c_best / q_best`` is the densest longer prefix.  Prefix lengths are
  positive, so this cross-multiplication is the exact ``Fraction``
  comparison without building a ``Fraction`` per prefix; only the returned
  ``prefix_densities`` become ``Fraction`` objects.
* **Flat-id redistribution.**  Each subset's index is written into an
  array indexed by interned id (``-1`` outside the universe), and the
  straddling instances are found by walking ``flat_ids`` through it: an
  instance straddles when its members' largest and smallest subset indices
  differ and none is ``-1``.  No per-instance vertex tuple or set is built.
  The weights are numerators over the iterate's denominator, and every
  slot is a multiple of ``L = lcm(1, ..., h - 1)`` (see
  :mod:`repro.lhcds.seq_kclist`).  A straddling instance moves the
  weight of at least one slot onto at most ``h - 1`` receivers, so the
  even split divides exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

from ..graph.graph import Vertex
from ..instances import InstanceSet
from .seq_kclist import WeightState


@dataclass
class TentativeDecomposition:
    """The ordered tentative partition produced by ``TentativeGD``."""

    #: Vertex subsets in decreasing-``r`` order (a partition of the universe).
    subsets: List[List[Vertex]]
    #: The sorted vertex order used to build the subsets.
    order: List[Vertex]
    #: Exact density of each prefix ending at the subset boundary.
    prefix_densities: List[Fraction]


def _sorted_vertices(state: WeightState, vertices: Sequence[Vertex]) -> List[Vertex]:
    """Vertices sorted by decreasing r, ties broken deterministically."""
    return sorted(vertices, key=lambda v: (-state.received(v), repr(v)))


def _positions(instances: InstanceSet, order: List[Vertex]) -> List[int]:
    """``position[vid]``: index of interned id ``vid`` in ``order``, or -1."""
    position = [-1] * instances.num_interned
    for i, v in enumerate(order):
        vid = instances.vertex_id(v)
        if vid is not None:
            position[vid] = i
    return position


def _slot_extremes(values: List[int], h: int) -> Iterator[Tuple[int, int]]:
    """``(largest, smallest)`` of each instance's ``h`` slots of a per-slot list."""
    if h == 1:
        return zip(values, values)
    columns = [values[j::h] for j in range(h)]
    return zip(map(max, *columns), map(min, *columns))


def _prefix_instance_counts(instances: InstanceSet, position: List[int], n: int) -> List[int]:
    """``counts[q]`` = number of instances fully inside the first ``q`` vertices."""
    ends_at = [0] * (n + 1)
    slots = [position[vid] for vid in instances.flat_ids]
    for last, first in _slot_extremes(slots, instances.h):
        if first >= 0:
            ends_at[last + 1] += 1
    counts = [0] * (n + 1)
    running = 0
    for q in range(1, n + 1):
        running += ends_at[q]
        counts[q] = running
    return counts


def _breakpoints(counts: List[int]) -> List[int]:
    """Prefix lengths ``p`` whose density no longer prefix beats (line 16).

    ``p = n`` is always one (``c_best / q_best`` starts below every
    density), so the blocks cover the order; an empty order has none.
    """
    breakpoints: List[int] = []
    c_best, q_best = -1, 1
    for p in range(len(counts) - 1, 0, -1):
        c = counts[p]
        if c * q_best >= c_best * p:
            breakpoints.append(p)
            c_best, q_best = c, p
    breakpoints.reverse()
    return breakpoints


def _redistribute(state: WeightState, block_of: List[int]) -> None:
    """Move every straddling instance's weight onto its lowest block's slots.

    ``block_of[vid]`` is the subset index of interned id ``vid`` (-1 outside
    the universe).  ``alpha`` is the flat per-slot buffer: instance ``i``'s
    ``j``-th slot sits at ``i * h + j``, the same offsets as ``flat_ids``.
    Each instance moves once, from slots that still hold multiples of
    ``L``, so every share is an integer.
    """
    instances = state.instances
    h = instances.h
    alpha = state.alpha
    blocks = [block_of[vid] for vid in instances.flat_ids]
    bases = range(0, len(blocks), h)
    for base, (last, first) in zip(bases, _slot_extremes(blocks, h)):
        if first == last or first < 0:
            continue
        moved = 0
        receivers = []
        for pos in range(base, base + h):
            if blocks[pos] != last:
                moved += alpha[pos]
                alpha[pos] = 0
            else:
                receivers.append(pos)
        if moved:
            share, remainder = divmod(moved, len(receivers))
            assert not remainder, "a moved weight must split evenly"
            for pos in receivers:
                alpha[pos] += share


def tentative_decomposition(
    state: WeightState,
    vertices: Sequence[Vertex],
) -> TentativeDecomposition:
    """Run ``TentativeGD`` and return the partition (``alpha``/``r`` updated in place).

    The returned subsets are maximal-prefix-density blocks of the sorted
    order; the instance weights are redistributed so no instance carries
    weight outside its lowest block, and ``state.r`` is recomputed.
    """
    order = _sorted_vertices(state, vertices)
    instances = state.instances
    position = _positions(instances, order)
    counts = _prefix_instance_counts(instances, position, len(order))

    subsets: List[List[Vertex]] = []
    prefix_densities: List[Fraction] = []
    block_at = [0] * len(order)
    start = 0
    for b, p in enumerate(_breakpoints(counts)):
        subsets.append(order[start:p])
        prefix_densities.append(Fraction(counts[p], p))
        block_at[start:p] = [b] * (p - start)
        start = p

    _redistribute(state, [block_at[pos] if pos >= 0 else -1 for pos in position])
    state.recompute_r(list(vertices))
    return TentativeDecomposition(
        subsets=subsets, order=order, prefix_densities=prefix_densities
    )
