"""Flow networks on flat CSR buffers, computed by the Dinic kernel.

Two layers live here:

* :class:`FlatFlowNetwork` — the kernel-facing storage: nodes are dense
  integer ids, arcs live in flat paired buffers (arc ``e`` and its residual
  ``e ^ 1`` are adjacent, ``arc_to[e ^ 1]`` recovers ``e``'s tail), and the
  per-node arc lists are a CSR index, handed over by the builder or built
  lazily by a stable sort.  The BFS/DFS work runs in
  :mod:`repro.kernels.flow_stdlib`.  Every flow the solvers compute runs on
  one of these, built by :func:`repro.flow.network.solve_compact_network`.
* :class:`MaxFlowNetwork` — a hashable-node wrapper for small general
  networks: it interns nodes to ids and forwards to a
  :class:`FlatFlowNetwork`.

Capacities are integers (the builders scale rational capacities first, see
:mod:`repro.flow.network`), so the max-flow value and the min-cut membership
are exact.  A builder may hand over plain lists of unbounded ints; buffers
grown arc by arc are ``array('q')`` and, if a capacity overflows the
signed-64-bit range (huge ``Fraction`` denominators can do that), fall back
to a plain Python list — the kernel is container-agnostic.

Min-cut queries are sound whatever the arc order: Dinic may find *different*
maximum flows depending on augmentation order, but the minimal source side
(residual-reachable from ``s``) and the maximal source side (complement of
the residual-reaching-``t`` set) of a minimum cut are unique properties of
the network, not of the particular flow found.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, Hashable, List, Optional, Set, Union

from ..errors import FlowError
from ..kernels import flow_stdlib

Node = Hashable

#: Largest capacity an ``array('q')`` slot can hold.
_INT64_MAX = (1 << 63) - 1


class FlatFlowNetwork:
    """Integer-id flow network on flat paired-arc buffers.

    Construction is trusted and minimal: callers manage the node-id space
    (ids ``0..num_nodes-1``) and append arcs; validation lives in the
    hashable-node wrapper.  Parallel arcs are permitted — for max-flow and
    min-cut purposes they behave exactly like one arc carrying the summed
    capacity.
    """

    __slots__ = ("_num_nodes", "_arc_to", "_cap", "_indptr", "_arcs")

    def __init__(
        self,
        num_nodes: int = 0,
        *,
        arc_to: Union[array, List[int], None] = None,
        cap: Union[array, List[int], None] = None,
        indptr: Union[array, List[int], None] = None,
        arcs: Union[array, List[int], None] = None,
    ) -> None:
        self._num_nodes = num_nodes
        # ``arc_to``/``cap`` let builders hand over pre-filled paired buffers
        # (even ids forward, odd ids zero-capacity residuals) in one move.
        # ``indptr``/``arcs`` optionally hand over the matching CSR index as
        # well (``arcs[indptr[v]:indptr[v+1]]`` = arc ids with tail ``v``, in
        # any per-node order — min-cut sides do not depend on it); otherwise
        # the index is built lazily by :meth:`_ensure_csr`.
        self._arc_to = arc_to if arc_to is not None else array("q")
        self._cap = cap if cap is not None else array("q")
        self._indptr = indptr
        self._arcs = arcs

    @property
    def num_nodes(self) -> int:
        """Number of nodes (ids ``0..num_nodes-1``)."""
        return self._num_nodes

    @property
    def num_arcs(self) -> int:
        """Number of forward arcs (residual pairs are not counted)."""
        return len(self._arc_to) // 2

    def ensure_nodes(self, count: int) -> None:
        """Grow the node-id space to at least ``count`` ids."""
        if count > self._num_nodes:
            self._num_nodes = count
            self._indptr = None

    def add_arc(self, u: int, v: int, capacity: int) -> int:
        """Append the arc ``u -> v`` (plus its residual) and return its id."""
        arc_to = self._arc_to
        eid = len(arc_to)
        arc_to.append(v)
        arc_to.append(u)
        cap = self._cap
        try:
            cap.append(capacity)
        except OverflowError:
            # Beyond int64: promote the buffer to unbounded Python ints.
            self._cap = cap = list(cap)
            cap.append(capacity)
        cap.append(0)
        self._indptr = None
        return eid

    def increase_capacity(self, eid: int, delta: int) -> None:
        """Add ``delta`` to an existing arc's capacity (duplicate-arc merge)."""
        cap = self._cap
        try:
            cap[eid] = cap[eid] + delta
        except OverflowError:
            self._cap = cap = list(cap)
            cap[eid] = cap[eid] + delta

    # ------------------------------------------------------------------
    # CSR index
    # ------------------------------------------------------------------
    def _ensure_csr(self) -> None:
        """(Re)build the per-node arc lists (a stable sort by tail), if stale.

        Arc ``e``'s tail is ``arc_to[e ^ 1]``, so the tail sequence is the
        pairwise swap of ``arc_to`` — built with C-speed slice assignments —
        and the stable sort groups arcs by tail in insertion order, exactly
        like a counting sort, with the heavy lifting in C (``Counter``'s
        tallying loop and timsort) instead of a per-arc interpreter loop.
        """
        if self._indptr is not None:
            return
        n = self._num_nodes
        arc_to = self._arc_to
        m = len(arc_to)
        tails = list(arc_to)
        tails[0::2] = arc_to[1::2]
        tails[1::2] = arc_to[0::2]
        counts = Counter(tails)
        indptr = array("q", bytes(8 * (n + 1)))
        run = 0
        for i in range(n):
            indptr[i] = run
            run += counts.get(i, 0)
        indptr[n] = run
        self._indptr = indptr
        self._arcs = array("q", sorted(range(m), key=tails.__getitem__))

    # ------------------------------------------------------------------
    # kernel-backed queries
    # ------------------------------------------------------------------
    def max_flow(self, s: int, t: int) -> int:
        """Exact max flow from ``s`` to ``t``; leaves residual capacities."""
        self._ensure_csr()
        return flow_stdlib.max_flow(
            self._num_nodes, self._indptr, self._arcs, self._arc_to, self._cap, s, t
        )

    def reachable_mask(self, s: int) -> bytearray:
        """Mask of ids residual-reachable from ``s`` (minimal source side)."""
        self._ensure_csr()
        return flow_stdlib.residual_reachable(
            self._num_nodes, self._indptr, self._arcs, self._arc_to, self._cap, s
        )

    def reaching_mask(self, t: int) -> bytearray:
        """Mask of ids residual-reaching ``t`` (complement: maximal side)."""
        self._ensure_csr()
        return flow_stdlib.residual_reaching(
            self._num_nodes, self._indptr, self._arcs, self._arc_to, self._cap, t
        )


class MaxFlowNetwork:
    """A directed flow network supporting max-flow and min-cut queries.

    Nodes are arbitrary hashable objects, interned to dense integer ids; the
    numeric work happens on a :class:`FlatFlowNetwork`.

    Arc normalisation (documented behaviour, covered by regression tests):

    * **Self-loops are ignored.**  A ``v -> v`` arc can carry no s-t flow and
      never separates a cut, so ``add_edge(v, v, c)`` registers nothing —
      after validating that the capacity is non-negative, like any arc.
    * **Duplicate arcs accumulate.**  Adding ``u -> v`` twice merges into a
      single arc carrying the summed capacity (deterministically — the arc
      keeps its first insertion position), so ``num_arcs`` counts distinct
      ordered pairs.
    """

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        self._flat = FlatFlowNetwork()
        self._arc_of: Dict[tuple, int] = {}
        self._last_sink: Optional[Node] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> int:
        """Register ``node`` (idempotent) and return its internal id."""
        idx = self._ids.get(node)
        if idx is not None:
            return idx
        idx = len(self._nodes)
        self._ids[node] = idx
        self._nodes.append(node)
        self._flat.ensure_nodes(idx + 1)
        return idx

    def add_edge(self, src: Node, dst: Node, capacity: int) -> None:
        """Add a directed arc ``src -> dst`` with the given integer capacity.

        See the class docstring for the self-loop and duplicate-arc rules.
        """
        if capacity < 0:
            raise FlowError(f"negative capacity {capacity!r} on arc {src!r}->{dst!r}")
        if src == dst:
            return
        u = self.add_node(src)
        v = self.add_node(dst)
        key = (u, v)
        eid = self._arc_of.get(key)
        if eid is None:
            self._arc_of[key] = self._flat.add_arc(u, v, int(capacity))
        else:
            self._flat.increase_capacity(eid, int(capacity))

    @property
    def num_nodes(self) -> int:
        """Number of registered nodes."""
        return len(self._nodes)

    @property
    def num_arcs(self) -> int:
        """Number of distinct forward arcs (residual arcs are not counted)."""
        return self._flat.num_arcs

    def has_node(self, node: Node) -> bool:
        """Return True when ``node`` has been registered."""
        return node in self._ids

    # ------------------------------------------------------------------
    # max flow / min cut (kernel-backed)
    # ------------------------------------------------------------------
    def max_flow(self, source: Node, sink: Node) -> int:
        """Compute the maximum flow from ``source`` to ``sink``.

        The residual capacities are left in place afterwards so min-cut
        queries (:meth:`min_cut_source_side`) reflect this flow.
        """
        if source not in self._ids or sink not in self._ids:
            raise FlowError("source or sink missing from the network")
        s = self._ids[source]
        t = self._ids[sink]
        if s == t:
            raise FlowError("source and sink must differ")
        self._last_sink = sink
        return self._flat.max_flow(s, t)

    def min_cut_source_side(self, source: Node, *, maximal: bool = False) -> Set[Node]:
        """Return the source side of a minimum s-t cut.

        With ``maximal=False`` the *smallest* source side is returned (nodes
        reachable from the source in the residual graph).  With
        ``maximal=True`` the *largest* source side is returned (complement
        of the nodes that can still reach the sink in the residual graph);
        the paper's ``DeriveCompact`` needs the maximal variant because it
        looks for maximal compact subgraphs.  Both sides are unique for the
        network regardless of which maximum flow Dinic found.
        """
        if source not in self._ids:
            raise FlowError("source missing from the network")
        nodes = self._nodes
        if not maximal:
            mask = self._flat.reachable_mask(self._ids[source])
            return {nodes[i] for i in range(len(nodes)) if mask[i]}
        if self._last_sink is None or self._last_sink not in self._ids:
            raise FlowError("min_cut_source_side(maximal=True) requires a prior max_flow call")
        mask = self._flat.reaching_mask(self._ids[self._last_sink])
        return {nodes[i] for i in range(len(nodes)) if not mask[i]}

    def solve(self, source: Node, sink: Node) -> int:
        """Convenience wrapper: run :meth:`max_flow` and remember the sink."""
        return self.max_flow(source, sink)
