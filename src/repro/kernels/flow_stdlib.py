"""Pure-Python CSR Dinic core: max flow and residual reachability.

Layout: nodes are ids ``0..n-1``; arc ``e`` goes to ``arc_to[e]`` with
residual capacity ``cap[e]``, and arcs come in pairs — ``e`` and ``e ^ 1``
are a forward arc and its reverse, so the tail of ``e`` is
``arc_to[e ^ 1]``.  ``arcs[indptr[v]:indptr[v + 1]]`` lists the ids of the
arcs leaving node ``v``, in any order.  Everything here is integer
arithmetic — the capacity buffers may be ``array('q')`` or plain lists of
(unbounded) Python ints, and the min-cut decisions derived from the
residual capacities are exact either way.

The buffers are copied into plain lists on entry: CPython indexes a list
roughly twice as fast as an ``array('q')`` (array reads box a fresh int
every access), and the copies themselves run at C speed, so the conversion
pays for itself after a fraction of one BFS sweep.  Mutations are written
back to the caller's capacity buffer before returning.
"""

from __future__ import annotations

from array import array
from typing import List, MutableSequence, Sequence


def _as_list(buffer: Sequence[int]) -> List[int]:
    """A plain-list view of a flat buffer (no copy when already a list)."""
    return buffer if type(buffer) is list else list(buffer)


def max_flow(
    n: int,
    indptr: Sequence[int],
    arcs: Sequence[int],
    arc_to: Sequence[int],
    cap: MutableSequence[int],
    s: int,
    t: int,
) -> int:
    """Dinic with iterative BFS level graphs and an explicit-stack DFS.

    Mutates ``cap`` into the residual capacities of a maximum flow and
    returns the exact flow value; the residual capacities feed the min-cut
    queries below.
    """
    indptr_l = _as_list(indptr)
    arcs_l = _as_list(arcs)
    to_l = _as_list(arc_to)
    shared = type(cap) is list
    cap_l = cap if shared else list(cap)

    total = 0
    while True:
        # BFS level graph (list-as-queue with a read cursor).
        level = [-1] * n
        level[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            nxt_level = level[v] + 1
            for e in arcs_l[indptr_l[v] : indptr_l[v + 1]]:
                if cap_l[e] > 0:
                    u = to_l[e]
                    if level[u] < 0:
                        level[u] = nxt_level
                        queue.append(u)
        if level[t] < 0:
            break

        # Blocking flow: repeated DFS with per-node arc cursors.  The path
        # is a stack of arc ids; the tail node of a popped arc ``e`` is
        # recovered from its pair as ``arc_to[e ^ 1]``.
        cursor = indptr_l[:n]
        while True:
            path = []
            node = s
            pushed = 0
            while True:
                if node == t:
                    if path:
                        bottleneck = cap_l[path[0]]
                        for e in path:
                            c = cap_l[e]
                            if c < bottleneck:
                                bottleneck = c
                        for e in path:
                            cap_l[e] -= bottleneck
                            cap_l[e ^ 1] += bottleneck
                        pushed = bottleneck
                    break
                advanced = False
                p = cursor[node]
                limit = indptr_l[node + 1]
                want = level[node] + 1
                while p < limit:
                    e = arcs_l[p]
                    if cap_l[e] > 0 and level[to_l[e]] == want:
                        cursor[node] = p
                        path.append(e)
                        node = to_l[e]
                        advanced = True
                        break
                    p += 1
                if advanced:
                    continue
                cursor[node] = p
                # Dead end: prune the node from this level graph and retreat.
                level[node] = -1
                if not path:
                    break
                e = path.pop()
                node = to_l[e ^ 1]
                cursor[node] += 1
            if pushed == 0:
                break
            total += pushed

    if not shared:
        cap[:] = array(cap.typecode, cap_l)
    return total


def residual_reachable(
    n: int,
    indptr: Sequence[int],
    arcs: Sequence[int],
    arc_to: Sequence[int],
    cap: Sequence[int],
    s: int,
) -> bytearray:
    """BFS mask of nodes reachable from ``s`` over positive residual arcs.

    Called after :func:`max_flow`; the marked set is the *minimal* source
    side of a minimum cut (unique regardless of which max flow was found).
    """
    indptr_l = _as_list(indptr)
    arcs_l = _as_list(arcs)
    to_l = _as_list(arc_to)
    cap_l = _as_list(cap)
    seen = bytearray(n)
    seen[s] = 1
    queue = [s]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for e in arcs_l[indptr_l[v] : indptr_l[v + 1]]:
            if cap_l[e] > 0:
                u = to_l[e]
                if not seen[u]:
                    seen[u] = 1
                    queue.append(u)
    return seen


def residual_reaching(
    n: int,
    indptr: Sequence[int],
    arcs: Sequence[int],
    arc_to: Sequence[int],
    cap: Sequence[int],
    t: int,
) -> bytearray:
    """Reverse-BFS mask of nodes that can reach ``t`` over residual arcs.

    The complement of the marked set is the *maximal* source side of a
    minimum cut (again unique), which ``DeriveCompact`` relies on.  Arc
    ``e`` incident from ``v`` points to ``u = arc_to[e]``; its pair
    ``e ^ 1`` is the arc ``u -> v``, so ``u`` reaches ``v`` exactly when
    ``cap[e ^ 1] > 0``.
    """
    indptr_l = _as_list(indptr)
    arcs_l = _as_list(arcs)
    to_l = _as_list(arc_to)
    cap_l = _as_list(cap)
    seen = bytearray(n)
    seen[t] = 1
    queue = [t]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for e in arcs_l[indptr_l[v] : indptr_l[v + 1]]:
            u = to_l[e]
            if not seen[u] and cap_l[e ^ 1] > 0:
                seen[u] = 1
                queue.append(u)
    return seen
