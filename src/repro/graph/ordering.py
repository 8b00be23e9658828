"""The degeneracy ordering that drives the kClist-style h-clique enumerator.

Core numbers over pattern instances (edges included, as h = 2) come from
the one instance peel, :func:`repro.cores.clique_core.peel`.  This peel is
a different job: it orders the adjacency itself, and its tie-break carries
the component-purity contract described below.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .graph import Graph, Vertex


def degeneracy_ordering(graph: Graph) -> Tuple[List[Vertex], Dict[Vertex, int], int]:
    """Compute a degeneracy (smallest-last) ordering.

    Repeatedly removes a vertex of minimum remaining degree.  Returns the
    removal order, the position (rank) of each vertex in that order, and the
    graph degeneracy (the maximum degree seen at removal time).

    The ordering has the property that each vertex has at most *degeneracy*
    neighbours appearing later in the order, which bounds the branching of
    the clique enumerator.

    The queue is one FIFO bucket per degree (Batagelj and Zaveršnik's
    bucket core decomposition), holding insertion indices.  A vertex enters
    the bucket of its degree when it is filled in and again each time a
    removal lowers its degree; its older entries go stale and are skipped.
    The next removal is the first live entry of the lowest non-empty
    bucket, so ties (equal remaining degree) go to the vertex that entered
    that bucket first.  Every entry is appended walking vertices in the
    graph's *insertion order* — the initial fill directly, and each
    removal's neighbour updates through adjacency sorted by insertion
    index.  That makes the ordering a pure function of the graph's
    structure and construction history, never of per-process set layout;
    in particular, the order restricted to one connected component is
    identical whether the ordering is computed on the full graph or on that
    component's induced subgraph (other components' entries interleave in
    the buckets without reordering a component's own entries within any
    bucket).  The incremental engine's artifact reuse rests on this purity.

    A removal lowers each remaining neighbour's degree by exactly one, so
    the lowest live degree drops by at most one per removal and the bucket
    scan steps back at most one bucket: the loop is O(n + m), with at most
    max degree + 1 buckets.
    """
    vertices = graph.vertices()
    index_of = graph.insertion_rank()
    neighbours = [sorted(map(index_of.__getitem__, graph.neighbors(v))) for v in vertices]
    degree = [len(nbrs) for nbrs in neighbours]
    buckets: List[List[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for i, d in enumerate(degree):
        buckets[d].append(i)
    # heads[d] is the position of the first unread entry of buckets[d].
    heads = [0] * len(buckets)
    removed = bytearray(len(vertices))
    order: List[Vertex] = []
    degeneracy = 0
    d = 0
    for _ in vertices:
        # Each (vertex, degree) pair is queued once and degrees only fall,
        # so an entry is live exactly when it matches the current degree.
        while True:
            bucket = buckets[d]
            head = heads[d]
            while head < len(bucket) and degree[bucket[head]] != d:
                head += 1
            if head < len(bucket):
                break
            heads[d] = head
            d += 1
        i = bucket[head]
        heads[d] = head + 1
        removed[i] = 1
        if d > degeneracy:
            degeneracy = d
        order.append(vertices[i])
        for u in neighbours[i]:
            if not removed[u]:
                du = degree[u] - 1
                degree[u] = du
                buckets[du].append(u)
        if d:
            d -= 1
    rank = {v: i for i, v in enumerate(order)}
    return order, rank, degeneracy
