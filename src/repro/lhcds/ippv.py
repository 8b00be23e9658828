"""The IPPV driver: iterative propose-prune-and-verify top-k LhCDS discovery.

This is the paper's Algorithm 6 (and, through the pattern abstraction,
Algorithm 7): candidates are proposed from the convex-programming weights,
pruned with the compact-number bounds, and verified exactly with max-flow.
Candidates that cannot yet be decided re-enter the pipeline restricted to
their own subgraph.

Two engineering choices keep the implementation exact and terminating even
when the Frank–Wolfe approximation is coarse:

* Candidates live in a priority queue keyed by a *sound upper bound* of the
  best LhCDS density they can contain: the smaller of two candidate-wide
  maxima, the members' compact-number upper bounds and the members'
  Frank–Wolfe loads.  The first proposal's SEQ-kClist++ iterate is a
  feasible solution of CP(G, h) in integers (each vertex receives
  ``r / D``, see :class:`~repro.lhcds.seq_kclist.WeightState`), so by
  weak duality no subset of a candidate is denser than its members'
  largest ``r / D``.  The run stops once the k-th best verified density
  strictly exceeds every remaining key, which certifies the returned
  top-k set, ties included: an LhCDS whose density equals the k-th may
  sort before it, so it must be examined.

* A candidate that repeatedly fails the self-densest test is split exactly
  along its maximal densest subgraph (one max-flow); the dense side and the
  remainder both re-enter the queue, so progress is guaranteed and no LhCDS
  can be lost (every LhCDS inside the candidate lies entirely on one side).

A self-densest candidate that fails maximal-compactness verification is
discarded: self-densest implies the candidate is compact at its own density,
so it sits strictly inside a larger compact region whose vertices all have
compact numbers at least the candidate's density — no LhCDS can hide there.

The loop makes no copies of the graph.  Each popped candidate is split with
``connected_components(self.graph, candidate)``, a search over the host
adjacency (see :mod:`repro.graph.components`), and restricted once.  That
restriction and the density it gives are handed down: IsDensest runs on
the restriction, the verifier takes the density, and a refinement or an
exact split works on the restriction, so no stage restricts or counts the
candidate again.  The first proposal runs on the whole instance set,
because the restriction to every vertex is the set itself; on a connected
graph preprocessing hands IPPV the global set as the one component's
(step 2 of :mod:`repro.engine.preprocess`).

The first proposal (SEQ-kClist++, TentativeGD, DeriveSG, then
Algorithm 3's prune) depends only on the instance set, its bounds and
``T``.  The engine hands IPPV a prepared component's one-entry memo
(``memo=``, keyed by ``T``; see :class:`~repro.lhcds.seq_kclist.HeldIterate`),
and :func:`held_proposal` reads the proposal from it, filling what is
missing: the iterate, then the pruned groups and the bounds DeriveSG
tightened, which are the one copy of the caller's bounds a run makes.
TentativeGD runs on a working copy of the iterate, because it rewrites
``alpha`` and ``r``; the cap reads the iterate's own ``r``.  After the
fill, the heap loop, ``_push`` and the verifier only read the proposal.
So a held component pays for its first proposal once, and the engine's
serial early stop ranks components by the same iterate's cap without
paying for the rest.  IPPV without a caller's memo (:func:`find_lhcds`)
fills a private empty one, so every run takes the same path.
Refinement proposals run their own SEQ-kClist++ on the candidate and
tighten a scratch copy of the bounds.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..densest.exact import maximal_densest_subset
from ..errors import AlgorithmError
from ..graph.components import connected_components
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from ..patterns.base import Pattern
from ..patterns.clique import CliquePattern
from .bounds import CompactBounds, initialize_bounds
from .decomposition import tentative_decomposition
from .prune import prune_candidates
from .seq_kclist import HeldIterate, WeightState, held_iterate, seq_kclist_plus_plus
from .stable_groups import StableGroup, derive_stable_groups
from .verify import VerificationStats, is_densest, verify_basic, verify_fast

#: Heap priorities are the candidates' *exact* density upper bounds —
#: Algorithm 1's integer core numbers, Theorem 4's ``Fraction`` bounds
#: from DeriveSG, or the ``Fraction`` cap ``max r / D`` of the first
#: proposal's Frank–Wolfe iterate, whichever is smallest.  Python orders
#: ints and ``Fraction`` densities exactly, so the priority / early-stop
#: path never rounds.
Priority = int | Fraction

#: How many convex-programming refinement rounds a candidate may consume
#: before the driver falls back to the exact densest-subgraph split.
MAX_REFINEMENT_ROUNDS = 2


@dataclass(frozen=True)
class DenseSubgraph:
    """One verified locally densest subgraph."""

    vertices: FrozenSet[Vertex]
    density: Fraction
    pattern_name: str
    h: int

    @property
    def size(self) -> int:
        """Number of vertices in the subgraph."""
        return len(self.vertices)

    def as_sorted_list(self) -> List[Vertex]:
        """Vertices sorted by their representation (deterministic output)."""
        return sorted(self.vertices, key=repr)


@dataclass(frozen=True)
class FirstProposal:
    """IPPV's first proposal on one instance set at one ``T`` (read-only).

    ``groups`` are DeriveSG's stable groups after Algorithm 3's prune, and
    ``bounds`` the compact-number bounds DeriveSG tightened, which the
    prune, the heap priorities, the verifier and every refinement's
    scratch copy read.
    """

    groups: Tuple[StableGroup, ...]
    bounds: CompactBounds


def vertex_set_sort_key(vertices: AbstractSet[Vertex]) -> Tuple[int, str]:
    """The order among LhCDSes of equal density: size desc, then vertex repr.

    :func:`subgraph_sort_key` sorts by density first and then by this key,
    and the ``exact`` solver sorts each layer's LhCDSes by it before it cuts
    the layer at ``k``, so both keep the same LhCDSes on a density tie.
    """
    return (-len(vertices), repr(sorted(vertices, key=repr)))


def subgraph_sort_key(subgraph: DenseSubgraph) -> tuple:
    """Deterministic output ordering: density desc, size desc, vertex repr.

    The single definition shared by the IPPV driver and the engine's global
    merge (``repro.engine.request.merge_key``) — both must sort identically
    for engine output to stay bit-identical to direct solver calls.
    """
    return (-subgraph.density, *vertex_set_sort_key(subgraph.vertices))


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each IPPV stage (Figure 10)."""

    enumeration: float = 0.0
    seq_kclist: float = 0.0
    decomposition: float = 0.0
    prune: float = 0.0
    verification: float = 0.0
    total: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return the timings as a plain dictionary."""
        return {
            "enumeration": self.enumeration,
            "seq_kclist": self.seq_kclist,
            "decomposition": self.decomposition,
            "prune": self.prune,
            "verification": self.verification,
            "total": self.total,
        }


@dataclass
class LhCDSResult:
    """Outcome of an IPPV run."""

    subgraphs: List[DenseSubgraph]
    timings: StageTimings
    verification: VerificationStats
    candidates_examined: int = 0
    refinements: int = 0
    exact_splits: int = 0

    def vertex_sets(self) -> List[Set[Vertex]]:
        """Return the vertex sets of the reported subgraphs, in order."""
        return [set(s.vertices) for s in self.subgraphs]

    def densities(self) -> List[Fraction]:
        """Return the densities of the reported subgraphs, in order."""
        return [s.density for s in self.subgraphs]

    def __len__(self) -> int:
        return len(self.subgraphs)


@dataclass
class IPPVConfig:
    """Tunable parameters of the IPPV driver."""

    #: Frank–Wolfe iterations T for SEQ-kClist++ (the paper uses 20).
    iterations: int = 20
    #: "fast" (Algorithm 5 style, reduced flow network) or "basic" (Algorithm 4).
    verification: str = "fast"


class IPPV:
    """Iterative propose-prune-and-verify solver for LhCDS / LhxPDS."""

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern | int,
        config: Optional[IPPVConfig] = None,
        *,
        instances: Optional[InstanceSet] = None,
        bounds: Optional[CompactBounds] = None,
        memo: Optional[Dict[int, HeldIterate]] = None,
    ) -> None:
        if isinstance(pattern, int):
            pattern = CliquePattern(pattern)
        if graph.num_vertices == 0:
            raise AlgorithmError("IPPV needs a non-empty graph")
        self.graph = graph
        self.pattern = pattern
        self.config = config or IPPVConfig()
        if self.config.verification not in {"fast", "basic"}:
            raise AlgorithmError(
                f"verification must be 'fast' or 'basic', got {self.config.verification!r}"
            )
        # Precomputed pattern instances / compact-number bounds (the engine's
        # shared preprocessing supplies both so per-solver re-derivation is
        # skipped); when absent they are computed on the first run().
        self._precomputed_instances = instances
        self._precomputed_bounds = bounds
        # The one-entry memo of first proposals keyed by T: the caller's (a
        # prepared component's), or a private one.  ``held_proposal`` fills
        # what is missing; nothing else writes it.
        self._memo: Dict[int, HeldIterate] = {} if memo is None else memo
        self._instances: Optional[InstanceSet] = None
        self._bounds: Optional[CompactBounds] = None
        # The first proposal's Frank–Wolfe loads (the iterate's ``r``, read
        # only) and their denominator, which cap every heap priority (see
        # ``_push``).
        self._loads: Optional[Dict[Vertex, int]] = None
        self._load_denominator = 1

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, k: Optional[int] = None) -> LhCDSResult:
        """Find the top-``k`` locally densest subgraphs (all of them if ``k`` is None)."""
        if k is not None and k <= 0:
            raise AlgorithmError(f"k must be positive (or None for all), got {k}")
        timings = StageTimings()
        verification_stats = VerificationStats()
        start = time.perf_counter()

        if self._precomputed_instances is not None:
            instances = self._precomputed_instances
        else:
            tick = time.perf_counter()
            instances = self.pattern.instances(self.graph)
            timings.enumeration += time.perf_counter() - tick
        self._instances = instances

        bounds = self._precomputed_bounds
        if bounds is None:
            bounds, _core = initialize_bounds(instances, self.graph.vertices())
        iterate, proposal = held_proposal(
            self._memo, self.graph, instances, bounds, self.config.iterations, timings
        )
        bounds = proposal.bounds
        self._bounds = bounds
        self._loads = iterate.r
        self._load_denominator = iterate.denominator

        heap: List[Tuple[Priority, int, FrozenSet[Vertex], int]] = []
        counter = 0
        for group in proposal.groups:
            counter = self._push(heap, counter, frozenset(group.vertices), 0)

        found: List[DenseSubgraph] = []
        output_vertices: Set[Vertex] = set()
        # Min-heap of the k best verified densities found so far: its root is
        # the running k-th best, so the early-stop check is O(1) per pop
        # instead of re-sorting every found density.
        topk_densities: List[Fraction] = []
        examined = 0
        refinements = 0
        exact_splits = 0

        while heap:
            if k is not None and len(found) >= k:
                kth = topk_densities[0]
                best_remaining = -heap[0][0]
                # Exact certified stop: the k-th best verified density
                # strictly exceeds every remaining candidate's sound upper
                # bound, so nothing left can reach it.  It must be strict:
                # a remaining LhCDS whose density equals the k-th may sort
                # before it (larger, or earlier by ``repr``), and the Frank–
                # Wolfe cap can equal a density exactly.  The comparison is
                # Fraction-vs-priority with no epsilon — a float image
                # comparison here could stop before the certificate holds
                # whenever two densities collide in float space.
                if kth > best_remaining:
                    break
            neg_priority, _, candidate, depth = heapq.heappop(heap)
            candidate = frozenset(candidate - output_vertices)
            if not candidate:
                continue
            components = connected_components(self.graph, candidate)
            if len(components) > 1:
                for component in components:
                    counter = self._push(heap, counter, frozenset(component), depth)
                continue
            candidate = frozenset(components[0])
            # The one restriction of this candidate; every stage below gets
            # it, or the density it gives, handed down.
            local = instances.restrict(candidate)
            if local.num_instances == 0:
                continue
            examined += 1
            density = Fraction(local.num_instances, len(candidate))

            tick = time.perf_counter()
            verification_stats.is_densest_calls += 1
            densest = is_densest(local, candidate)
            verified = densest and self._verify(candidate, density, bounds, verification_stats)
            timings.verification += time.perf_counter() - tick
            if densest:
                if verified:
                    found.append(
                        DenseSubgraph(
                            vertices=candidate,
                            density=density,
                            pattern_name=self.pattern.name,
                            h=self.pattern.size,
                        )
                    )
                    output_vertices |= set(candidate)
                    if k is not None:
                        heapq.heappush(topk_densities, density)
                        if len(topk_densities) > k:
                            heapq.heappop(topk_densities)
                # A self-densest candidate that is not maximal-compact
                # cannot contain any LhCDS, so it is safe to discard it
                # either way.
                continue

            # The candidate is not self-densest: refine it.
            if depth < MAX_REFINEMENT_ROUNDS:
                refinements += 1
                subgroups = self._propose(
                    local, sorted(candidate, key=repr), bounds.copy(), timings
                )
                subsets = {frozenset(g.vertices) for g in subgroups}
                if subsets and subsets != {candidate}:
                    # Push in a canonical order: the insertion counter
                    # breaks heap ties, so set iteration order here
                    # would otherwise leak per-process hash order into
                    # the exploration sequence.
                    for subset in sorted(
                        subsets, key=lambda s: sorted(repr(v) for v in s)
                    ):
                        counter = self._push(heap, counter, subset, depth + 1)
                    continue
            # Exact fallback: split along the maximal densest subgraph.
            exact_splits += 1
            dense_side, _ = maximal_densest_subset(local, candidate)
            dense_side = set(dense_side)
            remainder = set(candidate) - dense_side
            for component in connected_components(self.graph, dense_side):
                counter = self._push(heap, counter, frozenset(component), depth)
            if remainder:
                for component in connected_components(self.graph, remainder):
                    counter = self._push(heap, counter, frozenset(component), depth)

        found.sort(key=subgraph_sort_key)
        if k is not None:
            found = found[:k]
        timings.total = time.perf_counter() - start
        return LhCDSResult(
            subgraphs=found,
            timings=timings,
            verification=verification_stats,
            candidates_examined=examined,
            refinements=refinements,
            exact_splits=exact_splits,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _push(
        self,
        heap: List[Tuple[Priority, int, FrozenSet[Vertex], int]],
        counter: int,
        candidate: FrozenSet[Vertex],
        depth: int,
    ) -> int:
        """Push a candidate with a sound density upper bound as priority.

        The priority is the smaller of two candidate-wide maxima: the
        members' compact-number upper bounds, and ``Fraction(max r, D)``
        over the first proposal's Frank–Wolfe iterate (0 for a member
        in no instance).  Each maximum bounds the density of every subset
        of the candidate on its own.  A per-vertex minimum of the two would
        mix two different bounds and is not sound, so the minimum is taken
        only after each maximum.

        The bound is stored *as is* (negated for the min-heap): it stays
        exact and tuple comparison breaks priority ties on the
        insertion counter, so two candidates whose bounds differ by less
        than a float ulp keep their true order — coercing to ``float``
        here is what made the old epsilon early stop unsound.
        """
        if not candidate:
            return counter
        assert self._bounds is not None and self._loads is not None
        uppers = [self._bounds.upper_of(v) for v in candidate]
        # initialize_bounds populates every candidate vertex, so an
        # unbounded (None) upper means the bounds are broken: such a vertex
        # has no finite priority to heap on.
        if any(upper is None for upper in uppers):
            raise AlgorithmError(
                "candidate has a vertex without a finite compact-number upper bound"
            )
        loads = self._loads
        top_load = max(loads.get(v, 0) for v in candidate)
        priority = min(max(uppers), Fraction(top_load, self._load_denominator))
        heapq.heappush(heap, (-priority, counter, candidate, depth))
        return counter + 1

    def _propose(
        self,
        working: InstanceSet,
        vertices: Sequence[Vertex],
        bounds: CompactBounds,
        timings: StageTimings,
    ) -> List[StableGroup]:
        """A refinement's proposal: SEQ-kClist++ + TentativeGD + DeriveSG on ``vertices``.

        ``working`` holds the instances inside ``vertices``; DeriveSG
        tightens ``bounds``, the caller's scratch copy.
        """
        tick = time.perf_counter()
        state = seq_kclist_plus_plus(working, self.config.iterations, vertices)
        timings.seq_kclist += time.perf_counter() - tick
        return _stable_groups(state, vertices, bounds, timings)

    def _verify(
        self,
        candidate: FrozenSet[Vertex],
        rho: Fraction,
        bounds: CompactBounds,
        stats: VerificationStats,
    ) -> bool:
        """Run the configured maximal-compactness verification at density ``rho``."""
        assert self._instances is not None
        if self.config.verification == "basic":
            return verify_basic(self.graph, self._instances, candidate, rho, stats=stats)
        return verify_fast(self.graph, self._instances, candidate, rho, bounds, stats=stats)


def _stable_groups(
    state: WeightState,
    vertices: Sequence[Vertex],
    bounds: CompactBounds,
    timings: StageTimings,
) -> List[StableGroup]:
    """TentativeGD and DeriveSG on ``state``, which TentativeGD rewrites in place.

    DeriveSG tightens ``bounds`` with Theorem 4.
    """
    tick = time.perf_counter()
    decomposition = tentative_decomposition(state, vertices)
    groups, _ = derive_stable_groups(decomposition, state, bounds)
    timings.decomposition += time.perf_counter() - tick
    return groups


def held_proposal(
    memo: Dict[int, HeldIterate],
    graph: Graph,
    instances: InstanceSet,
    bounds: CompactBounds,
    iterations: int,
    timings: StageTimings,
) -> Tuple[WeightState, FirstProposal]:
    """IPPV's first proposal on ``graph`` at ``T = iterations``, held in ``memo``.

    ``instances`` are ``graph``'s and ``bounds`` its untightened
    compact-number bounds; ``memo`` holds at most one
    :class:`~repro.lhcds.seq_kclist.HeldIterate` for them.  The entry's
    iterate is filled first (:func:`~repro.lhcds.seq_kclist.held_iterate`,
    charged to ``timings.seq_kclist``).  If the entry holds no proposal
    yet, this fills it: TentativeGD and DeriveSG on a working copy of the
    iterate, tightening one copy of ``bounds``, then the prune.  Returns
    the iterate and the proposal, both read-only.  Two threads filling at
    once each return their own equal proposal, and the entry keeps one.
    """
    vertices = graph.vertices()
    tick = time.perf_counter()
    held = held_iterate(memo, instances, iterations, vertices)
    timings.seq_kclist += time.perf_counter() - tick
    proposal = held.proposal
    if proposal is None:
        tightened = bounds.copy()
        groups = _stable_groups(held.iterate.working_copy(), vertices, tightened, timings)
        tick = time.perf_counter()
        groups = prune_candidates(graph, instances, groups, tightened, vertices)
        timings.prune += time.perf_counter() - tick
        proposal = FirstProposal(groups=tuple(groups), bounds=tightened)
        held.proposal = proposal
    return held.iterate, proposal


def find_lhcds(
    graph: Graph,
    h: int = 3,
    k: Optional[int] = None,
    *,
    iterations: int = 20,
    verification: str = "fast",
) -> LhCDSResult:
    """Convenience wrapper: top-``k`` locally h-clique densest subgraphs."""
    config = IPPVConfig(iterations=iterations, verification=verification)
    return IPPV(graph, CliquePattern(h), config).run(k)


def find_lhxpds(
    graph: Graph,
    pattern: Pattern,
    k: Optional[int] = None,
    *,
    iterations: int = 20,
    verification: str = "fast",
) -> LhCDSResult:
    """Convenience wrapper: top-``k`` locally pattern densest subgraphs (Algorithm 7)."""
    config = IPPVConfig(iterations=iterations, verification=verification)
    return IPPV(graph, pattern, config).run(k)
