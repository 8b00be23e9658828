"""The ``DeriveCompact`` flow network (Figures 6 and 7) on flat CSR buffers.

:func:`solve_compact_network` is the one flow-network builder of the
solvers.  IPPV's ``IsDensest`` and maximal-compactness checks
(:mod:`repro.lhcds.verify`) call it once per check.  The breakpoint
search of :mod:`repro.densest.exact` calls it once per cut, on a network
restricted to the gap between two layer boundaries: the ``exact``
solver's decomposition runs the whole search, and IPPV's exact splits,
LDSflow and LTDS run its descent to the first layer through
:func:`repro.densest.exact.maximal_densest_subset`.

For a vertex universe ``U``, the instances ``Psi`` inside it, a threshold
``rho`` and a forced set ``F`` within ``U``, the network has a source
``s``, a sink ``t``, one node per instance and one node per vertex that
lies in an instance:

* ``v -> psi`` (capacity 1) and ``psi -> v`` (capacity ``h - 1``) for every
  member ``v`` of instance ``psi``;
* ``s -> v`` with the instance degree of ``v``, or, when ``v`` is forced, a
  capacity larger than the sum of all finite capacities, so that no minimum
  cut separates ``v`` from the source;
* ``v -> t`` with capacity ``rho * h``.

For a vertex set ``A`` containing ``F`` on the source side the cut value is
``h * |Psi| - h * (|Psi(A)| - rho * |A|)``, so the maximal source side of a
minimum cut is the largest such ``A`` maximising ``|Psi(A)| - rho * |A|``.
With ``rho`` just below a target compactness that is the union of all
maximal h-clique rho-compact subgraphs (Theorem 5); with ``rho`` just above
a subgraph's own density it decides ``IsDensest``.

A vertex of ``U`` that lies in no instance gets no node.  Its only arcs
would be ``s -> v`` (capacity 0, or unbounded when forced) and ``v -> t``;
they touch no other node, so the vertex is on the maximal source side
exactly when it is forced or ``rho`` is 0, and it moves no other vertex's
side.

Every capacity is scaled by the denominator of ``rho * h``, so the cut is
exact, and Dinic runs on the resulting
:class:`~repro.flow.dinic.FlatFlowNetwork`.  The maximal source side of a
minimum cut is unique, so the arc order cannot change the result.

:class:`FractionalArcCollector` is a small general-purpose helper that turns
arcs with exact :class:`fractions.Fraction` capacities between hashable
nodes into an integer :class:`~repro.flow.dinic.MaxFlowNetwork`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional, Set, Tuple

from ..errors import FlowError
from ..graph.graph import Vertex
from ..instances import InstanceSet
from .dinic import FlatFlowNetwork, MaxFlowNetwork

SOURCE = "__source__"
SINK = "__sink__"


def scaled_capacity(cap: Fraction, scale: int) -> int:
    """Return ``cap * scale`` as an exact int (``scale`` a denominator lcm).

    Avoids the full Fraction multiply (and its gcd normalisation): the lcm
    construction guarantees ``scale`` is divisible by ``cap.denominator``.
    """
    return cap.numerator * (scale // cap.denominator)


class FractionalArcCollector:
    """Accumulate arcs with Fraction capacities; emit an integer network."""

    def __init__(self) -> None:
        self._arcs: List[Tuple[object, object, Fraction]] = []

    def add(self, src: object, dst: object, capacity: Fraction | int) -> None:
        """Record an arc with an exact (possibly fractional) capacity."""
        cap = Fraction(capacity)
        if cap < 0:
            raise FlowError(f"negative capacity on arc {src!r} -> {dst!r}")
        self._arcs.append((src, dst, cap))

    def build(self) -> Tuple[MaxFlowNetwork, int]:
        """Return the integer-scaled network and the scaling factor used."""
        denominators = [cap.denominator for _, _, cap in self._arcs] or [1]
        scale = lcm(*denominators)
        network = MaxFlowNetwork()
        network.add_node(SOURCE)
        network.add_node(SINK)
        for src, dst, cap in self._arcs:
            network.add_edge(src, dst, scaled_capacity(cap, scale))
        return network, scale


def solve_compact_network(
    instances: InstanceSet,
    rho: Fraction,
    *,
    vertices: Optional[Iterable[Vertex]] = None,
    forced: Iterable[Vertex] = (),
) -> Set[Vertex]:
    """Return the largest ``A`` maximising ``|Psi(A)| - rho * |A|``.

    ``A`` ranges over the sets with ``forced ⊆ A ⊆ vertices``.  The universe
    ``vertices`` defaults to the vertices covered by ``instances`` and must
    contain every instance.  With nothing forced, an empty result means no
    non-empty set beats the threshold.  The module docstring describes the
    network.
    """
    h = instances.h
    n_cov = instances.num_interned
    n_inst = instances.num_instances
    vertex_id = instances.vertex_id

    universe = instances.vertices() if vertices is None else set(vertices)
    free = {v for v in universe if vertex_id(v) is None}
    if len(universe) - len(free) != n_cov:
        raise FlowError("the vertex universe must contain every instance")
    # Instance-free vertices get no node: they join the maximal source side
    # exactly when forced or when rho is 0 (see the module docstring).
    result: Set[Vertex] = free if rho == 0 else set()
    forced_ids: List[int] = []
    for v in forced:
        if v not in universe:
            raise FlowError(f"forced vertex {v!r} is outside the vertex universe")
        vid = vertex_id(v)
        if vid is None:
            result.add(v)
        else:
            forced_ids.append(vid)

    # --- node ids: covered vertices (their interned ids), instances, s, t -
    psi_base = n_cov
    s_id = psi_base + n_inst
    t_id = s_id + 1

    # --- integer capacities, all scaled by rho * h's denominator ----------
    rho_h = rho * h
    scale = rho_h.denominator
    cap_vt = rho_h.numerator
    cap_pv = (h - 1) * scale
    L = n_inst * h
    indptr = instances.incidence_indptr
    src_cap = [(indptr[vid + 1] - indptr[vid]) * scale for vid in range(n_cov)]
    if forced_ids:
        # Above the sum of every finite capacity: the instance arcs carry
        # h * scale per slot, the degree arcs scale per slot, plus v -> t.
        unbounded = (h + 1) * L * scale + n_cov * cap_vt + 1
        for vid in forced_ids:
            src_cap[vid] = unbounded

    # --- flat paired-arc buffers ------------------------------------------
    # Slot ``fi`` of the flat instance array owns arc ids 4*fi .. 4*fi+3:
    # v->psi (cap 1), its residual, psi->v (cap h-1), its residual.  The
    # capacity buffer is one repeated 4-tuple and arc_to four strided
    # copies.  Everything is built as plain lists: the Dinic kernel
    # computes on lists without copying, and plain Python ints hold any
    # magnitude the huge-denominator scales can produce.
    flat = instances.flat_ids
    slot_psi = [p for p in range(psi_base, s_id) for _ in range(h)]
    arc_to = [0] * (4 * L)
    arc_to[0::4] = slot_psi
    arc_to[1::4] = flat
    arc_to[2::4] = flat
    arc_to[3::4] = slot_psi
    cap = [scale, 0, cap_pv, 0] * L

    # Terminal arcs are emitted pre-saturated: pushing
    # ``f = min(src_cap, cap_vt)`` along every direct ``s -> v -> t`` path is
    # a valid flow, so handing Dinic the residual capacities skips its first
    # (and largest) blocking-flow phase.  The kernel then only routes the
    # rebalancing flow through the instance nodes; the final residual network
    # is that of *a* maximum flow, so the unique min-cut sides — all this
    # function reads — are unchanged.  Vertex ``vid`` owns arc ids
    # ``T + 4*vid`` (s -> v) and ``T + 4*vid + 2`` (v -> t).
    T = 4 * L
    for vid in range(n_cov):
        sc = src_cap[vid]
        f = sc if sc < cap_vt else cap_vt
        arc_to += (vid, s_id, t_id, vid)
        cap += (sc - f, f, cap_vt - f, f)

    # --- CSR index, assembled directly from the known arc layout ----------
    # Each vertex row leads with its terminal arcs so the kernel's DFS
    # reaches ``v -> t`` without scanning the incidence arcs first; per-node
    # arc order is otherwise free (the min-cut sides are order-independent).
    indptr_csr = [0] * (t_id + 2)
    arcs_csr: List[int] = []
    append = arcs_csr.append
    inc_pos = list(instances.incidence_positions)
    for vid in range(n_cov):
        base = T + 4 * vid
        append(base + 1)  # residual of s -> v
        append(base + 2)  # v -> t
        for p in inc_pos[indptr[vid] : indptr[vid + 1]]:
            q = 4 * p
            append(q)  # v -> psi
            append(q + 3)  # residual of psi -> v
        indptr_csr[vid + 1] = len(arcs_csr)
    # Instance rows: slot fi holds the psi-tailed pair (4*fi+1, 4*fi+2), and
    # instance i's h slots are consecutive — pure strided ranges.
    psi_block = [0] * (2 * L)
    psi_block[0::2] = range(1, 4 * L, 4)  # residuals of v -> psi
    psi_block[1::2] = range(2, 4 * L, 4)  # psi -> v
    arcs_csr.extend(psi_block)
    indptr_csr[psi_base + 1 : s_id + 1] = range(
        indptr_csr[psi_base] + 2 * h, indptr_csr[psi_base] + 2 * L + 1, 2 * h
    )
    arcs_csr.extend(range(T, T + 4 * n_cov, 4))  # s -> v arcs
    indptr_csr[s_id + 1] = len(arcs_csr)
    arcs_csr.extend(range(T + 3, T + 4 * n_cov, 4))  # residuals of v -> t
    indptr_csr[t_id + 1] = len(arcs_csr)

    # --- solve and read the maximal source side ---------------------------
    network = FlatFlowNetwork(
        t_id + 1, arc_to=arc_to, cap=cap, indptr=indptr_csr, arcs=arcs_csr
    )
    network.max_flow(s_id, t_id)
    mask = network.reaching_mask(t_id)
    result.update(instances.vertex_at(vid) for vid in range(n_cov) if not mask[vid])
    return result
