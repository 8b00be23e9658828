"""Tentative graph decomposition (Algorithm 2, ``TentativeGD``).

Given the approximate weights ``(alpha, r)`` from SEQ-kClist++, vertices are
sorted by decreasing ``r`` and split at the prefix positions whose prefix
density is not beaten by any longer prefix (line 16 of Algorithm 2).  The
weight of every instance that straddles several of these tentative subsets is
re-assigned entirely to the subset with the largest index (the one with the
smallest ``r`` values) — lines 18-22 — and ``r`` is recomputed.  This keeps
``(alpha, r)`` feasible for CP(G, h) while making the later stable-group
conditions checkable per subset.
"""

# repro: allow-file-EX01(consumes the float Frank-Wolfe iterate; its outputs only become certified after FLOAT_SLACK padding in stable_groups)

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

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


def _prefix_instance_counts(
    instances: InstanceSet, order: List[Vertex]
) -> List[int]:
    """``counts[q]`` = number of instances fully inside the first ``q`` vertices."""
    # Work over interned ids: one flat pass instead of per-instance tuple
    # hashing.  position -1 marks interned vertices absent from ``order``.
    position = [-1] * instances.num_interned
    for i, v in enumerate(order):
        vid = instances.vertex_id(v)
        if vid is not None:
            position[vid] = i
    h = instances.h
    flat = instances.flat_ids
    ends_at = [0] * (len(order) + 1)
    for base in range(0, len(flat), h):
        last = -1
        for j in range(base, base + h):
            pos = position[flat[j]]
            if pos < 0:
                last = -1
                break
            if pos > last:
                last = pos
        if last >= 0:
            ends_at[last + 1] += 1
    counts = [0] * (len(order) + 1)
    running = 0
    for q in range(1, len(order) + 1):
        running += ends_at[q]
        counts[q] = running
    return counts


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
    counts = _prefix_instance_counts(instances, order)
    n = len(order)

    densities = [Fraction(0)] + [Fraction(counts[q], q) for q in range(1, n + 1)]

    # A position p is a breakpoint when no longer prefix is denser (line 16).
    # p = n is always one, so the blocks cover the order; an empty universe
    # has no blocks at all.
    suffix_max = Fraction(-1)
    is_breakpoint = [False] * (n + 1)
    for p in range(n, 0, -1):
        if densities[p] >= suffix_max:
            is_breakpoint[p] = True
        suffix_max = max(suffix_max, densities[p])
    breakpoints = [p for p in range(1, n + 1) if is_breakpoint[p]]

    subsets: List[List[Vertex]] = []
    prefix_densities: List[Fraction] = []
    start = 0
    for p in breakpoints:
        subsets.append(order[start:p])
        prefix_densities.append(densities[p])
        start = p

    # Which subset does each vertex live in?
    block_of: Dict[Vertex, int] = {}
    for b, block in enumerate(subsets):
        for v in block:
            block_of[v] = b

    # Redistribute weights of straddling instances to their lowest block.
    # ``alpha`` is the flat per-slot buffer: instance i's j-th slot sits at
    # ``i * h + j`` (the same CSR offsets as ``instances.flat_ids``).
    alpha = state.alpha
    h = instances.h
    for i, inst in enumerate(instances.instances):
        if not all(v in block_of for v in inst):
            continue
        blocks = {block_of[v] for v in inst}
        if len(blocks) <= 1:
            continue
        lowest = max(blocks)
        base = i * h
        moved = 0.0
        receivers = []
        for j, v in enumerate(inst):
            if block_of[v] != lowest:
                moved += alpha[base + j]
                alpha[base + j] = 0.0
            else:
                receivers.append(j)
        if receivers and moved:
            share = moved / len(receivers)
            for j in receivers:
                alpha[base + j] += share

    state.recompute_r(list(vertices))
    return TentativeDecomposition(
        subsets=subsets, order=order, prefix_densities=prefix_densities
    )
