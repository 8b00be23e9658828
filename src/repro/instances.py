"""Indexed instance sets: the common currency of the IPPV pipeline.

An *instance* is one occurrence of the pattern being densified — an h-clique
for the LhCDS problem, or any other small pattern for the LhxPDS extension
(Section 5 of the paper).  Every stage of IPPV (bounds, Frank–Wolfe weight
distribution, decomposition, pruning, flow-based verification) only needs:

* the list of instances (each a tuple of ``h`` distinct vertices),
* for each vertex, the indices of the instances containing it,
* the pattern size ``h``.

The IPPV driver spends its life *restricting* the global instance set to
candidate subgraphs (propose, verify, split — Algorithms 2–7 all re-restrict),
so :class:`InstanceSet` is built around an index instead of a flat list:

* **Vertex interning.**  Every vertex is mapped to a contiguous integer id
  (``vertex_id`` / ``vertex_at``); arbitrary hashable labels only appear at
  the API boundary.
* **Flat instance storage.**  Instances live in one flat id-array of length
  ``num_instances * h`` (``flat_ids``); instance ``i`` occupies the slice
  ``[i*h, (i+1)*h)`` in its original vertex order.
* **CSR incidence.**  A compressed vertex→instance adjacency
  (``incidence_indptr`` / ``incidence_indices``) lists, for each vertex id,
  the sorted indices of the instances containing it.
* **Incidence-driven counting.**  :meth:`restrict`, :meth:`count_within`,
  :meth:`density_of` and :meth:`indices_within` scan only the instances
  *incident* to the candidate (its members' incidence slices): an instance
  lies inside iff it occurs in ``h`` of those slices.  Each query counts
  in a :class:`collections.Counter` of its own, so it costs ``O(sum of
  candidate degrees)`` instead of ``O(h * num_instances)`` and the count
  writes nothing into the set.
* **LRU restriction cache.**  :meth:`restrict` memoises its 128 most
  recent results, keyed by the frozenset of interned candidate ids.  A
  solve never needs it, because IPPV restricts each candidate once and
  hands the restriction down; it serves warm re-solves.  A cached or
  session-held component keeps its set across requests, and a warm
  ``/v1/solve`` read re-restricts the previous read's candidates (137 on
  the ``serve-stream`` graph shape).  Without the memo such a read spent
  about 25 ms restricting instead of 2 ms, and ``serve-stream``'s
  ``solve_p50_s`` rose from 0.18 to 0.22 s (2-core Xeon VM).  Besides the
  lazy index and tuple view, the memo is the only state a query writes,
  and an ``OrderedDict`` is not safe under concurrent reordering, so
  solves over one shared set are serialised (see
  :mod:`repro.engine.cache`).
* **Identity restrictions.**  A candidate that covers every interned vertex
  keeps every instance, so :meth:`restrict` returns the receiver itself and
  :meth:`count_within` its instance count, decided before any scan.  A
  restricted copy would be indistinguishable: every constructor interns in
  first-appearance order, so re-interning all rows reproduces the same
  ``vertex_of`` and ``flat_ids``.  On a connected graph this is what lets
  preprocessing's per-component restriction cost nothing.
* **Flat interning.**  :meth:`InstanceSet.from_flat` interns an
  enumerator's flat label-index buffer (the kClist kernel's rank ids) in
  first-appearance order -- exactly what :class:`InstanceSetBuilder` would
  produce from the same rows -- without building a tuple per instance or
  hashing every member.  Both interning paths live in this module.

The un-indexed full-scan implementations are kept as
:meth:`scan_restrict` / :meth:`scan_count_within`: they are the reference
baseline for the equivalence tests and the micro-benchmark in
``benchmarks/test_instances_performance.py``.
"""

from __future__ import annotations

from array import array
from collections import Counter, OrderedDict
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import AlgorithmError
from .graph.graph import Vertex

Instance = Tuple[Vertex, ...]

#: Number of recent restrictions memoised per instance set.
RESTRICT_CACHE_SIZE = 128


class InstanceSetBuilder:
    """Incremental builder that interns vertices while instances stream in.

    Enumerators that guarantee arity and distinctness (the kClist recursion,
    the pattern matchers) emit directly into a builder, skipping the
    per-instance validation of :meth:`InstanceSet.from_instances`.
    """

    __slots__ = ("h", "_id_of", "_vertex_of", "_flat", "_built")

    def __init__(self, h: int) -> None:
        if h < 1:
            raise AlgorithmError(f"pattern size h must be >= 1, got {h}")
        self.h = h
        self._id_of: Dict[Vertex, int] = {}
        self._vertex_of: List[Vertex] = []
        self._flat = array("q")
        self._built = False

    def add(self, instance: Sequence[Vertex]) -> None:
        """Append one instance (trusted: ``h`` distinct vertices)."""
        if self._built:
            raise AlgorithmError("builder already consumed by build()")
        id_of = self._id_of
        vertex_of = self._vertex_of
        flat = self._flat
        for v in instance:
            vid = id_of.get(v)
            if vid is None:
                vid = len(vertex_of)
                id_of[v] = vid
                vertex_of.append(v)
            flat.append(vid)

    def extend(self, instances: Iterable[Sequence[Vertex]]) -> None:
        """Append a stream of instances."""
        for inst in instances:
            self.add(inst)

    def build(self) -> "InstanceSet":
        """Freeze the accumulated instances into an :class:`InstanceSet`.

        Ownership of the buffers transfers to the result; the builder is
        spent afterwards and rejects further use.
        """
        if self._built:
            raise AlgorithmError("builder already consumed by build()")
        self._built = True
        return InstanceSet(self.h, self._vertex_of, self._id_of, self._flat)


class InstanceSet:
    """An indexed collection of pattern instances over a vertex universe.

    Construct through :meth:`from_instances` (validating) or
    :class:`InstanceSetBuilder` (trusting); the constructor itself is an
    internal detail shared by both.
    """

    __slots__ = (
        "h",
        "_vertex_of",
        "_id_of",
        "_flat",
        "_indptr",
        "_incidence",
        "_positions",
        "_restrict_cache",
        "_instances_cache",
    )

    def __init__(
        self,
        h: int,
        vertex_of: List[Vertex],
        id_of: Dict[Vertex, int],
        flat: array,
    ) -> None:
        if h < 1:
            raise AlgorithmError(f"pattern size h must be >= 1, got {h}")
        self.h = h
        self._vertex_of = vertex_of
        self._id_of = id_of
        self._flat = flat
        # The CSR incidence index is built lazily on first incidence-driven
        # query: many restricted sets are only ever iterated or counted, and
        # skipping index construction for them keeps `restrict` linear in
        # the surviving instances.
        self._indptr: Optional[array] = None
        self._incidence: Optional[array] = None
        self._positions: Optional[array] = None
        self._restrict_cache: OrderedDict = OrderedDict()
        self._instances_cache: Optional[Tuple[Instance, ...]] = None

    def _ensure_index(self) -> None:
        """Build the CSR vertex→instance adjacency."""
        if self._indptr is not None:
            return
        h = self.h
        flat = self._flat
        n_vertices = len(self._vertex_of)
        n_inst = len(flat) // h

        # Filling in instance order keeps every incidence list sorted for free.
        counts = [0] * n_vertices
        for vid in flat:
            counts[vid] += 1
        indptr = array("q", [0] * (n_vertices + 1))
        for i in range(n_vertices):
            indptr[i + 1] = indptr[i] + counts[i]
        cursor = list(indptr[:n_vertices])
        incidence = array("q", bytes(8 * len(flat)))
        positions = array("q", bytes(8 * len(flat)))
        pos = 0
        for idx in range(n_inst):
            for _ in range(h):
                vid = flat[pos]
                c = cursor[vid]
                incidence[c] = idx
                positions[c] = pos
                cursor[vid] = c + 1
                pos += 1
        self._incidence = incidence
        self._positions = positions
        self._indptr = indptr

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_instances(h: int, instances: Iterable[Sequence[Vertex]]) -> "InstanceSet":
        """Build an :class:`InstanceSet`, validating instance arity."""
        if h < 1:
            raise AlgorithmError(f"pattern size h must be >= 1, got {h}")
        builder = InstanceSetBuilder(h)
        for idx, inst in enumerate(instances):
            tup = tuple(inst)
            if len(tup) != h:
                raise AlgorithmError(
                    f"instance {idx} has {len(tup)} vertices, expected {h}: {tup!r}"
                )
            if len(set(tup)) != h:
                raise AlgorithmError(f"instance {idx} has repeated vertices: {tup!r}")
            builder.add(tup)
        return builder.build()

    @staticmethod
    def from_flat(h: int, labels: Sequence[Vertex], flat: Sequence[int]) -> "InstanceSet":
        """Build a set from ``h``-runs of indices into ``labels`` (trusted).

        Ids are assigned in first appearance along ``flat``, as
        :class:`InstanceSetBuilder` assigns them for the same rows, so both
        paths build identical sets.
        """
        if h < 1:
            raise AlgorithmError(f"pattern size h must be >= 1, got {h}")
        order = list(dict.fromkeys(flat))
        remap = [0] * len(labels)
        for nid, index in enumerate(order):
            remap[index] = nid
        vertex_of = [labels[index] for index in order]
        id_of = {v: nid for nid, v in enumerate(vertex_of)}
        return InstanceSet(h, vertex_of, id_of, array("q", map(remap.__getitem__, flat)))

    # ------------------------------------------------------------------
    # id-level accessors (for the numeric kernels)
    # ------------------------------------------------------------------
    @property
    def num_interned(self) -> int:
        """Number of distinct vertices appearing in at least one instance."""
        return len(self._vertex_of)

    @property
    def flat_ids(self) -> array:
        """Flat id-array of all instances (read-only; do not mutate)."""
        return self._flat

    @property
    def incidence_indptr(self) -> array:
        """CSR row pointers of the vertex→instance adjacency (read-only)."""
        self._ensure_index()
        return self._indptr

    @property
    def incidence_indices(self) -> array:
        """CSR column indices of the vertex→instance adjacency (read-only)."""
        self._ensure_index()
        return self._incidence

    @property
    def incidence_positions(self) -> array:
        """Flat positions backing :attr:`incidence_indices` (read-only).

        Entry ``k`` is the index into :attr:`flat_ids` of the membership that
        ``incidence_indices[k]`` records, i.e. ``incidence_indices[k] *
        h + slot``.  Flow-network builders use it to address per-membership
        arc slots without re-deriving each vertex's slot inside its instance.
        """
        self._ensure_index()
        return self._positions

    def vertex_id(self, vertex: Vertex) -> Optional[int]:
        """Return the interned id of ``vertex`` (None if it is in no instance)."""
        return self._id_of.get(vertex)

    def vertex_at(self, vid: int) -> Vertex:
        """Return the vertex with interned id ``vid``."""
        return self._vertex_of[vid]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        """Total number of instances (``|Psi_h(G)|`` in the paper)."""
        return len(self._flat) // self.h

    @property
    def instances(self) -> Tuple[Instance, ...]:
        """All instances as vertex tuples (materialised lazily)."""
        if self._instances_cache is None:
            h = self.h
            flat = self._flat
            vertex_of = self._vertex_of
            self._instances_cache = tuple(
                tuple(vertex_of[vid] for vid in flat[i * h : (i + 1) * h])
                for i in range(self.num_instances)
            )
        return self._instances_cache

    def degree(self, vertex: Vertex) -> int:
        """Return the instance degree of ``vertex`` (``deg_G(v, psi_h)``)."""
        vid = self._id_of.get(vertex)
        if vid is None:
            return 0
        self._ensure_index()
        return self._indptr[vid + 1] - self._indptr[vid]

    def vertices(self) -> Set[Vertex]:
        """Return the set of vertices covered by at least one instance."""
        return set(self._vertex_of)

    def instances_containing(self, vertex: Vertex) -> Tuple[int, ...]:
        """Return indices of instances that contain ``vertex``."""
        vid = self._id_of.get(vertex)
        if vid is None:
            return ()
        self._ensure_index()
        return tuple(self._incidence[self._indptr[vid] : self._indptr[vid + 1]])

    # ------------------------------------------------------------------
    # indexed restriction (the hot path)
    # ------------------------------------------------------------------
    def _keep_ids(self, vertices: Iterable[Vertex]) -> List[int]:
        """Interned ids of the candidate vertices that appear in any instance."""
        id_of = self._id_of
        if isinstance(vertices, (set, frozenset)):
            keep = vertices
        else:
            keep = set(vertices)
        return [id_of[v] for v in keep if v in id_of]

    def _touched_full(self, keep_ids: Sequence[int]) -> List[int]:
        """Return sorted indices of instances fully inside the candidate.

        Scans only the instances incident to the candidate: an instance
        lies inside iff all ``h`` of its vertices are members, that is, iff
        it occurs in ``h`` of the members' incidence slices.
        """
        self._ensure_index()
        indptr = self._indptr
        incidence = self._incidence
        hits: Counter = Counter()
        for vid in keep_ids:
            hits.update(incidence[indptr[vid] : indptr[vid + 1]])
        h = self.h
        return sorted(idx for idx, n in hits.items() if n == h)

    def indices_within(self, vertices: Iterable[Vertex]) -> List[int]:
        """Return sorted indices of instances fully contained in ``vertices``."""
        return self._touched_full(self._keep_ids(vertices))

    def indices_incident(self, vertices: Iterable[Vertex]) -> List[int]:
        """Return sorted indices of instances containing *any* of ``vertices``.

        An instance with no touched vertex has no changed edge either, so it
        survives any delta whose frontier is ``vertices``; the incremental
        session counts what a delta drops and re-enumerates with this.
        """
        keep_ids = self._keep_ids(vertices)
        if not keep_ids:
            return []
        self._ensure_index()
        indptr = self._indptr
        incidence = self._incidence
        touched: Set[int] = set()
        for vid in keep_ids:
            touched.update(incidence[indptr[vid] : indptr[vid + 1]])
        return sorted(touched)

    def count_within(self, vertices: Iterable[Vertex]) -> int:
        """Count instances fully contained in ``vertices`` without copying."""
        keep_ids = self._keep_ids(vertices)
        if len(keep_ids) == len(self._vertex_of):
            return self.num_instances
        return len(self._touched_full(keep_ids))

    def restrict(self, vertices: Iterable[Vertex]) -> "InstanceSet":
        """Return the sub-collection of instances fully inside ``vertices``.

        Recent restrictions are memoised (LRU) keyed by the candidate's
        interned-id frozenset, so a warm re-solve of a held set re-restricts
        the previous solve's candidates for free.  A candidate covering
        every interned vertex gets the receiver itself (see the module
        docstring).
        """
        keep_ids = self._keep_ids(vertices)
        if len(keep_ids) == len(self._vertex_of):
            return self
        key = frozenset(keep_ids)
        cache = self._restrict_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        restricted = self.select(self._touched_full(keep_ids))
        cache[key] = restricted
        if len(cache) > RESTRICT_CACHE_SIZE:
            cache.popitem(last=False)
        return restricted

    def select(self, kept: Sequence[int]) -> "InstanceSet":
        """Return the sub-collection of the instances at ``kept``, re-interning ids.

        Uses a positional remap over the parent's id space instead of hashing
        every vertex again, so construction is linear in the kept instances.
        """
        h = self.h
        flat = self._flat
        vertex_of = self._vertex_of
        remap = [-1] * len(vertex_of)
        new_vertex_of: List[Vertex] = []
        new_id_of: Dict[Vertex, int] = {}
        new_flat = array("q")
        append = new_flat.append
        for idx in kept:
            base = idx * h
            for pos in range(base, base + h):
                vid = flat[pos]
                nid = remap[vid]
                if nid < 0:
                    nid = len(new_vertex_of)
                    remap[vid] = nid
                    v = vertex_of[vid]
                    new_vertex_of.append(v)
                    new_id_of[v] = nid
                append(nid)
        return InstanceSet(h, new_vertex_of, new_id_of, new_flat)

    def density_of(self, vertices: Iterable[Vertex]) -> Fraction:
        """Return the exact instance density of a vertex set as a Fraction."""
        keep = set(vertices)
        if not keep:
            raise AlgorithmError("density of the empty vertex set is undefined")
        return Fraction(self.count_within(keep), len(keep))

    # ------------------------------------------------------------------
    # full-scan reference implementations (baseline / cross-checks)
    # ------------------------------------------------------------------
    def scan_count_within(self, vertices: Iterable[Vertex]) -> int:
        """Full-scan baseline of :meth:`count_within` (reference only)."""
        keep = set(vertices)
        return sum(1 for inst in self.instances if all(v in keep for v in inst))

    def scan_restrict(self, vertices: Iterable[Vertex]) -> "InstanceSet":
        """Full-scan baseline of :meth:`restrict` (reference only)."""
        keep = set(vertices)
        kept = [inst for inst in self.instances if all(v in keep for v in inst)]
        return InstanceSet.from_instances(self.h, kept)

    # ------------------------------------------------------------------
    # stable content hashing (preprocess-cache artifacts)
    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """Return a stable hex digest of the instance collection's content.

        Two sets digest equally iff they have the same ``h`` and the same
        multiset of instances over the same vertex labels — independent of
        enumeration order, vertex interning order, and process hash seeds.
        Tests use it to compare instance sets across a pickle round trip;
        the preprocess cache does not call it (it verifies an artifact by
        the sha256 of its pickled payload, recorded in the ledger).
        """
        import hashlib

        from .graph.graph import _encode_vertex

        digest = hashlib.sha256()
        digest.update(f"repro-instances/1\x00h={self.h}".encode("ascii"))
        h = self.h
        flat = self._flat
        encoded = [_encode_vertex(v) for v in self._vertex_of]
        rows = []
        for i in range(self.num_instances):
            members = sorted(encoded[vid] for vid in flat[i * h : (i + 1) * h])
            rows.append(b"\x00".join(members))
        rows.sort()
        for row in rows:
            digest.update(b"\x01")
            digest.update(row)
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # pickling (process-pool payloads)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Tuple[int, List[Vertex], array]:
        """Pickle only the canonical storage; caches and indexes rebuild lazily."""
        return (self.h, self._vertex_of, self._flat)

    def __setstate__(self, state: Tuple[int, List[Vertex], array]) -> None:
        h, vertex_of, flat = state
        self.__init__(h, vertex_of, {v: i for i, v in enumerate(vertex_of)}, flat)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_instances

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceSet):
            return NotImplemented
        return self.h == other.h and self.instances == other.instances

    def __hash__(self) -> int:
        return hash((self.h, self.instances))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InstanceSet(h={self.h}, instances={self.num_instances}, "
            f"vertices={self.num_interned})"
        )
