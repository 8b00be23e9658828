"""Batched graph mutations with canonical, content-hashable form.

A :class:`GraphDelta` is the unit of change for evolving graphs: a validated
batch of vertex/edge inserts and deletes.  Deltas are *canonicalised* on
construction — members are deduplicated and sorted by the same type-tagged
byte encoding :meth:`Graph.content_key` uses, and every edge is oriented by
that encoding — so two deltas describing the same change compare equal, hash
equal, and produce the same :meth:`content_key` regardless of how their
inputs were ordered.

Construction validates *internal* consistency (no self-loops, no member in
both an add and a remove batch); :meth:`validate_against` checks the
preconditions against a concrete graph (adds must be new, removes must
exist) so that replaying a delta log is deterministic and every applied
delta changes exactly what it says it changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Tuple

from ..errors import GraphError
from .graph import Edge, Graph, Vertex, _encode_vertex

_JSON_KEYS = ("add_vertices", "remove_vertices", "add_edges", "remove_edges")


def _canonical_vertices(vertices: Iterable[Vertex]) -> Tuple[Vertex, ...]:
    by_token: Dict[bytes, Vertex] = {}
    for v in vertices:
        by_token.setdefault(_encode_vertex(v), v)
    return tuple(by_token[token] for token in sorted(by_token))


def _canonical_edges(edges: Iterable[Edge], label: str) -> Tuple[Edge, ...]:
    by_token: Dict[Tuple[bytes, bytes], Edge] = {}
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError) as exc:
            raise GraphError(f"{label} entries must be (u, v) pairs: {pair!r}") from exc
        if u == v:
            raise GraphError(f"{label} may not contain self-loops: {pair!r}")
        eu, ev = _encode_vertex(u), _encode_vertex(v)
        if ev < eu:
            u, v = v, u
            eu, ev = ev, eu
        by_token.setdefault((eu, ev), (u, v))
    return tuple(by_token[token] for token in sorted(by_token))


@dataclass(frozen=True)
class GraphDelta:
    """A canonically ordered batch of graph mutations.

    Parameters
    ----------
    add_vertices, remove_vertices:
        Vertex labels to insert as isolated vertices / delete (with all
        incident edges).
    add_edges, remove_edges:
        ``(u, v)`` pairs to insert / delete.  Orientation is normalised.
    """

    add_vertices: Tuple[Vertex, ...] = field(default=())
    remove_vertices: Tuple[Vertex, ...] = field(default=())
    add_edges: Tuple[Edge, ...] = field(default=())
    remove_edges: Tuple[Edge, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "add_vertices", _canonical_vertices(self.add_vertices)
        )
        object.__setattr__(
            self, "remove_vertices", _canonical_vertices(self.remove_vertices)
        )
        object.__setattr__(
            self, "add_edges", _canonical_edges(self.add_edges, "add_edges")
        )
        object.__setattr__(
            self, "remove_edges", _canonical_edges(self.remove_edges, "remove_edges")
        )
        added = set(self.add_vertices)
        removed = set(self.remove_vertices)
        overlap = added & removed
        if overlap:
            raise GraphError(
                f"vertices appear in both add_vertices and remove_vertices: "
                f"{sorted(map(repr, overlap))}"
            )
        edge_overlap = set(self.add_edges) & set(self.remove_edges)
        if edge_overlap:
            raise GraphError(
                f"edges appear in both add_edges and remove_edges: "
                f"{sorted(map(repr, edge_overlap))}"
            )
        for u, v in self.add_edges:
            if u in removed or v in removed:
                raise GraphError(
                    f"add_edges endpoint of {(u, v)!r} is scheduled for removal"
                )
        for u, v in self.remove_edges:
            if u in added or v in added:
                raise GraphError(
                    f"remove_edges endpoint of {(u, v)!r} is a brand-new vertex "
                    f"and cannot have existing edges"
                )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """``True`` when the delta performs no mutation at all."""
        return not (
            self.add_vertices
            or self.remove_vertices
            or self.add_edges
            or self.remove_edges
        )

    @property
    def touched_vertices(self) -> FrozenSet[Vertex]:
        """Every vertex the delta names: members of any batch or edge endpoint.

        This is the invalidation frontier for incremental solving — any
        h-clique instance whose support changes contains a touched vertex.
        """
        touched = set(self.add_vertices)
        touched.update(self.remove_vertices)
        for u, v in self.add_edges:
            touched.add(u)
            touched.add(v)
        for u, v in self.remove_edges:
            touched.add(u)
            touched.add(v)
        return frozenset(touched)

    def content_key(self) -> str:
        """Return a stable hex digest of the delta's canonical content.

        Equal deltas (same mutations, any input order) share the key; it is
        suitable for delta-log dedup and for composing cache keys.
        """
        digest = hashlib.sha256()
        digest.update(b"repro-delta/1\x00")
        for tag, vertices in (
            (b"av", self.add_vertices),
            (b"rv", self.remove_vertices),
        ):
            for v in vertices:
                digest.update(tag + b"\x00" + _encode_vertex(v) + b"\x00")
        for tag, edges in ((b"ae", self.add_edges), (b"re", self.remove_edges)):
            for u, v in edges:
                digest.update(
                    tag + b"\x00" + _encode_vertex(u) + b"\x00" + _encode_vertex(v) + b"\x00"
                )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # graph preconditions
    # ------------------------------------------------------------------
    def validate_against(self, graph: Graph) -> None:
        """Raise :class:`GraphError` unless every mutation is applicable.

        Adds must be genuinely new (vertex / edge absent; edge endpoints are
        created implicitly, as in :meth:`Graph.add_edge`), removes must name
        existing members.  Checking everything *before* mutating keeps
        :meth:`Graph.apply_delta` atomic.
        """
        for v in self.add_vertices:
            if graph.has_vertex(v):
                raise GraphError(f"add_vertices: vertex {v!r} already in graph")
        for v in self.remove_vertices:
            if not graph.has_vertex(v):
                raise GraphError(f"remove_vertices: vertex {v!r} not in graph")
        for u, v in self.add_edges:
            if graph.has_edge(u, v):
                raise GraphError(f"add_edges: edge {(u, v)!r} already in graph")
        for u, v in self.remove_edges:
            if not graph.has_edge(u, v):
                raise GraphError(f"remove_edges: edge {(u, v)!r} not in graph")

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    @classmethod
    def json_keys(cls) -> Tuple[str, ...]:
        """The exact keys :meth:`from_json_dict` accepts (canonical order)."""
        return _JSON_KEYS

    def to_json_dict(self) -> Dict[str, Any]:
        """Return a JSON-serialisable dict (canonical member order)."""
        return {
            "add_vertices": list(self.add_vertices),
            "remove_vertices": list(self.remove_vertices),
            "add_edges": [list(e) for e in self.add_edges],
            "remove_edges": [list(e) for e in self.remove_edges],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "GraphDelta":
        """Build a delta from a JSON object; labels must be ints or strings.

        Unknown keys are rejected so typos (``"add_edge"``) fail loudly
        instead of silently dropping mutations.
        """
        if not isinstance(payload, Mapping):
            raise GraphError("delta payload must be a JSON object")
        unknown = sorted(set(payload) - set(_JSON_KEYS))
        if unknown:
            raise GraphError(
                f"unknown delta keys: {unknown}; accepted keys: {sorted(_JSON_KEYS)}"
            )
        return cls(
            add_vertices=tuple(json_labels(payload, "add_vertices")),
            remove_vertices=tuple(json_labels(payload, "remove_vertices")),
            add_edges=tuple(json_edges(payload, "add_edges")),
            remove_edges=tuple(json_edges(payload, "remove_edges")),
        )


def json_labels(payload: Mapping[str, Any], key: str) -> List[Vertex]:
    """Read the list field ``key`` of a JSON object as vertex labels.

    An absent field reads as empty.  Labels must be JSON integers or
    strings -- the labels a delta can name -- so booleans and floats are
    rejected rather than coerced (``true`` and ``1.0`` would collide with
    ``1``).  Raises :class:`GraphError` naming ``key``.
    """
    return [_json_label(v, key) for v in _json_list(payload, key)]


def json_edges(payload: Mapping[str, Any], key: str) -> List[Edge]:
    """Read the list field ``key`` as ``[u, v]`` pairs of :func:`json_labels` labels."""
    edges: List[Edge] = []
    for pair in _json_list(payload, key):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise GraphError(f"{key} entries must be [u, v] pairs: {pair!r}")
        edges.append((_json_label(pair[0], key), _json_label(pair[1], key)))
    return edges


def _json_list(payload: Mapping[str, Any], key: str) -> List[Any]:
    value = payload.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise GraphError(f"{key} must be a list")
    return list(value)


def _json_label(value: Any, key: str) -> Vertex:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise GraphError(
            f"{key} labels must be ints or strings, got {type(value).__name__}: "
            f"{value!r}"
        )
    return value
