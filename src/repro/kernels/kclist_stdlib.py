"""Pure-Python kClist extension recursion on flat scratch buffers.

The classic kClist recursion filters candidate lists per extension step; the
object-graph implementation allocated a fresh Python list and re-hashed
neighbour sets at every node.  This core keeps *one* flat candidate pool for
the whole enumeration — each recursion level appends its filtered segment
after its parent's — and marks adjacency with an epoch-stamped scratch array
instead of set membership, so the inner loop is integer compares only.

Layout: vertices are the rank ids ``0..n-1`` of a degeneracy ordering, and
``nbrs[indptr[v]:indptr[v + 1]]`` are ``v``'s out-neighbours (higher rank)
in ascending rank order.  Cliques come out as ``h`` consecutive rank ids in
one flat ``array('q')``, in the canonical kClist emission order: outer
vertices by rank, each level's candidates in ascending rank, so every
clique lists its vertices in ascending rank.  Downstream interning in
:class:`~repro.instances.InstanceSet` depends on that order.
"""

from __future__ import annotations

from array import array
from typing import Sequence


def kclist_cliques(
    n: int,
    indptr: Sequence[int],
    nbrs: Sequence[int],
    h: int,
) -> array:
    """Emit all h-cliques (``h >= 3``) of the oriented DAG as one flat buffer.

    The buffer has length ``h * num_cliques``; the module docstring gives
    the layout and ordering contract.
    """
    out = array("q")
    # A clique's lowest-rank vertex has the other h - 1 members among its
    # out-neighbours, so none exists when h - 1 exceeds every out-degree.
    # Checking first keeps an oversized h from sizing the buffers below.
    if n == 0 or h - 1 > max(indptr[v + 1] - indptr[v] for v in range(n)):
        return out
    prefix = [0] * h
    # One shared candidate pool: level d's filtered segment lives directly
    # after its parent's, so the high-water mark is bounded by h times the
    # largest out-degree (<= n per level keeps the bound simple and safe).
    pool = [0] * (n * h)
    # Epoch-stamped adjacency scratch: mark[u] == stamp iff u is an
    # out-neighbour of the vertex currently being extended.
    mark = [0] * n
    stamp = 0
    last = h - 1

    def extend(start: int, end: int, depth: int) -> None:
        nonlocal stamp
        if depth == last:
            for idx in range(start, end):
                prefix[depth] = pool[idx]
                out.extend(prefix)
            return
        need = h - depth
        for idx in range(start, end):
            if end - idx < need:
                break
            v = pool[idx]
            prefix[depth] = v
            stamp += 1
            s = stamp
            for p in range(indptr[v], indptr[v + 1]):
                mark[nbrs[p]] = s
            write = end
            for j in range(idx + 1, end):
                u = pool[j]
                if mark[u] == s:
                    pool[write] = u
                    write += 1
            if write - end >= need - 1:
                extend(end, write, depth + 1)

    for v in range(n):
        prefix[0] = v
        write = 0
        for p in range(indptr[v], indptr[v + 1]):
            pool[write] = nbrs[p]
            write += 1
        if write >= last:
            extend(0, write, 1)
    return out
