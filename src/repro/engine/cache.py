"""Warm preprocessed-index cache: preprocessing as a first-class artifact.

Every solve pays the shared pipeline — enumerate instances, split into
components, compute clique-core bounds — before the solve proper starts,
and on repeated queries over the same graph that cost dwarfs the solve
(see ``benchmarks/test_cache_performance.py``).  This module makes the
pipeline's output a cacheable artifact:

* **Key.**  ``cache_key(graph, pattern)`` hashes the *content* of the
  inputs that determine the artifact: the canonical graph digest
  (:meth:`~repro.graph.graph.Graph.content_key` — insertion-order and
  hash-seed independent) and the pattern's identity and parameters
  (type, name, ``h``).  The pipeline has one path, so nothing else
  shapes the artifact and the key carries no stage flags.  Anything that
  changes the preprocessing output — an edge, a vertex, the pattern, its
  size — changes the key; a label-preserving reload of the same graph
  does not.
* **Artifact.**  The prepared components (induced subgraphs, restricted
  :class:`~repro.instances.InstanceSet`\\ s, compact-number bounds) and the
  :class:`~repro.engine.request.PreprocessStats` are pickled under a
  versioned schema into ``artifacts/<key>.pkl``, written via temp file +
  atomic ``rename``, so readers never observe a partial pickle.
* **Ledger.**  ``index.json`` records, per key: the artifact file, its
  content sha256, its size, creation/last-access stamps, and a hit
  counter — plus cache-wide hit/miss/store/eviction counters.  The sha256
  doubles as the integrity check on load: corrupted, truncated, or
  version-mismatched artifacts fall back to a cold preprocess (and are
  dropped from the ledger); they never error.
* **LRU size cap.**  When the artifact bytes exceed ``max_bytes``
  (``REPRO_CACHE_MAX_BYTES``, default 512 MiB) the least-recently-used
  entries are evicted — the newest entry always survives.
* **Memory layer.**  A per-process LRU of deserialized artifacts
  (:data:`DEFAULT_MEMORY_ENTRIES` keys) so a resident server answers
  repeat queries without touching disk or re-unpickling.
  :func:`cache_for` hands out one :class:`PreprocessCache` per root
  directory, which is what makes the layer shared across requests.

The front door is :func:`repro.engine.preprocess.preprocess`: when
``SolveRequest.cache_dir`` (CLI ``--cache-dir``, environment
``$REPRO_CACHE``) names a directory, it consults this cache before running
the pipeline.  Cached artifacts are returned as shallow copies of shared
component objects; concurrent solves over the *same* artifact must be
serialized by the caller (the solve service holds a solve lock), because
each instance set's restriction LRU, which every restriction reorders, is
not thread-safe.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..errors import EngineError
from ..graph.graph import Graph
from ..patterns.base import Pattern
from .request import PreparedComponent, PreprocessStats

#: On-disk artifact schema tag; bumped when the pickled layout changes
#: (``/2``: Graph grew delta-epoch state and an explicit pickle protocol;
#: ``/3``: every artifact carries bounds, and the stats lost the
#: prune-stats fields; ``/4``: the bounds keep Algorithm 1's core numbers
#: for prune rule 2; ``/5``: Algorithm 1's upper bounds are the ``int``
#: core numbers, not ``Fraction`` objects; ``/6``: each component carries
#: its memo of held SEQ-kClist++ iterates, stored empty; ``/7``: the memo is
#: ``memo``, whose entry holds IPPV's first proposal next to the iterate,
#: still stored empty because an artifact is stored before any solve).  An
#: artifact under an older tag is a cache miss.
ARTIFACT_SCHEMA = "repro-cache/7"
#: Ledger (``index.json``) schema tag.
INDEX_SCHEMA = "repro-cache-index/1"

INDEX_NAME = "index.json"
ARTIFACT_DIR = "artifacts"
ARTIFACT_SUFFIX = ".pkl"
#: Cross-process ledger lock file (``fcntl.flock``); see ``_ledger_guard``.
LOCKFILE_NAME = ".ledger.lock"

#: Environment variable naming the default cache directory.
CACHE_ENV = "REPRO_CACHE"
#: Environment variable overriding the LRU size cap (bytes).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

DEFAULT_MAX_BYTES = 512 * 1024 * 1024
#: Artifacts the memory layer keeps per cache root.
DEFAULT_MEMORY_ENTRIES = 16

#: Cache states reported through ``PreprocessStats.cache_state``.
STATE_OFF = "off"
STATE_MISS = "miss"
STATE_HIT = "hit"
STATE_HIT_MEMORY = "hit-memory"


def resolve_cache_dir(explicit: Optional[str]) -> Optional[str]:
    """The effective cache root: explicit request, then ``$REPRO_CACHE``."""
    if explicit:
        return explicit
    env = os.environ.get(CACHE_ENV, "").strip()
    return env or None


def max_bytes_from_env() -> int:
    """The effective LRU size cap (``REPRO_CACHE_MAX_BYTES``)."""
    raw = os.environ.get(MAX_BYTES_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise EngineError(
            f"{MAX_BYTES_ENV} must be an integer byte count, got {raw!r}"
        ) from None
    if value <= 0:
        raise EngineError(f"{MAX_BYTES_ENV} must be positive, got {value}")
    return value


def pattern_identity(pattern: Pattern) -> str:
    """The pattern half of the cache key: type, declared name, and size.

    The registry's patterns are parameterised only by their type and ``h``
    (``CliquePattern(4)`` and ``CliquePattern(5)`` differ in both name and
    size), so this triple pins the pattern's enumeration semantics.
    """
    return (
        f"{type(pattern).__module__}.{type(pattern).__qualname__}"
        f":{pattern.name}:h={pattern.size}"
    )


def cache_key(graph: Graph, pattern: Pattern) -> str:
    """Derive the artifact key for one (graph, pattern) pair."""
    digest = hashlib.sha256()
    digest.update(ARTIFACT_SCHEMA.encode("ascii"))
    digest.update(b"\x00")
    digest.update(graph.content_key().encode("ascii"))
    digest.update(b"\x00")
    digest.update(pattern_identity(pattern).encode("utf-8"))
    return digest.hexdigest()


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + atomic rename."""
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fresh_index() -> Dict[str, Any]:
    return {
        "schema": INDEX_SCHEMA,
        "counters": {"hits": 0, "misses": 0, "stores": 0, "evictions": 0},
        "entries": {},
    }


class PreprocessCache:
    """A content-keyed artifact cache over one directory (plus memory LRU).

    Use :func:`cache_for` instead of constructing directly: it returns one
    shared instance per root, so every consumer of the same directory —
    repeated CLI solves in one process, every request of a resident
    server — shares the in-memory warm layer and the ledger lock.

    Concurrency: ``_lock`` (an RLock) serializes every mutation within the
    process, and ledger read-modify-write sections additionally take a
    cross-process ``fcntl.flock`` on ``.ledger.lock`` (see
    :meth:`_ledger_guard`) so multiple server replicas can share one cache
    directory without eviction races corrupting ``index.json``.
    """

    GUARDED_BY = {
        "_memory": "_lock",
        "_flock_depth": "_lock",
        "_flock_handle": "_lock",
    }

    def __init__(self, root: str, *, max_bytes: Optional[int] = None) -> None:
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes if max_bytes is not None else max_bytes_from_env()
        if self.max_bytes <= 0:
            raise EngineError(f"max_bytes must be positive, got {self.max_bytes}")
        self._lock = threading.RLock()
        self._memory: "OrderedDict[str, Tuple[List[PreparedComponent], PreprocessStats]]" = (
            OrderedDict()
        )
        #: Reentrancy depth / open handle of the cross-process ledger lock.
        self._flock_depth = 0
        self._flock_handle: Optional[Any] = None

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------
    def _index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    def _artifact_path(self, key: str) -> str:
        return os.path.join(self.root, ARTIFACT_DIR, key + ARTIFACT_SUFFIX)

    def _lockfile_path(self) -> str:
        return os.path.join(self.root, LOCKFILE_NAME)

    @contextlib.contextmanager
    def _ledger_guard(self):
        """Hold the cross-process ledger lock for one read-modify-write.

        Takes ``fcntl.flock(LOCK_EX)`` on ``.ledger.lock`` so concurrent
        processes sharing the cache directory cannot interleave their
        ledger rewrites (the eviction race the ROADMAP flags).  Reentrant
        per instance via a depth counter, and strictly best-effort: on
        platforms without ``fcntl`` and on filesystems that refuse the
        lock, the guard degrades to a no-op and single-process behaviour
        is exactly what it was — ``_lock`` still serializes in-process.
        """
        if fcntl is None:
            yield
            return
        with self._lock:
            self._flock_depth += 1
            if self._flock_depth == 1:
                try:
                    os.makedirs(self.root, exist_ok=True)
                    handle = open(self._lockfile_path(), "a+b")
                except OSError:
                    handle = None
                if handle is not None:
                    try:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                    except OSError:
                        handle.close()
                        handle = None
                self._flock_handle = handle
        try:
            yield
        finally:
            with self._lock:
                self._flock_depth -= 1
                if self._flock_depth == 0 and self._flock_handle is not None:
                    try:
                        fcntl.flock(self._flock_handle.fileno(), fcntl.LOCK_UN)
                    except OSError:
                        pass
                    self._flock_handle.close()
                    self._flock_handle = None

    def _read_index(self) -> Dict[str, Any]:
        """Load the ledger; a missing or corrupt ledger starts over empty."""
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return _fresh_index()
        if not isinstance(data, dict) or data.get("schema") != INDEX_SCHEMA:
            return _fresh_index()
        data.setdefault("counters", _fresh_index()["counters"])
        data.setdefault("entries", {})
        return data

    def _write_index(self, index: Dict[str, Any]) -> None:
        os.makedirs(self.root, exist_ok=True)
        payload = (json.dumps(index, indent=2, sort_keys=True) + "\n").encode("utf-8")
        _atomic_write_bytes(self._index_path(), payload)

    def _drop_entry(self, index: Dict[str, Any], key: str) -> None:
        """Remove a ledger entry and its artifact file (best effort)."""
        index["entries"].pop(key, None)
        try:
            os.unlink(self._artifact_path(key))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # store / fetch
    # ------------------------------------------------------------------
    def store(
        self,
        key: str,
        components: List[PreparedComponent],
        stats: PreprocessStats,
        *,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist one preprocessing result under ``key`` (atomically).

        ``meta`` is extra human-facing ledger context (graph name, pattern
        name, sizes) surfaced by ``repro-lhcds cache ls``.  Storage never
        fails a solve: any OS-level error is swallowed after cleaning up.
        """
        canonical = dataclasses.replace(
            stats, cache_state=STATE_OFF, cache_key="", cache_seconds=0
        )
        payload = pickle.dumps(
            {
                "schema": ARTIFACT_SCHEMA,
                "key": key,
                "components": components,
                "stats": canonical,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        sha256 = hashlib.sha256(payload).hexdigest()
        with self._lock:
            try:
                os.makedirs(os.path.join(self.root, ARTIFACT_DIR), exist_ok=True)
                _atomic_write_bytes(self._artifact_path(key), payload)
            except OSError:
                return
            with self._ledger_guard():
                index = self._read_index()
                now = time.time()
                entry: Dict[str, Any] = {
                    "file": f"{ARTIFACT_DIR}/{key}{ARTIFACT_SUFFIX}",
                    "sha256": sha256,
                    "size_bytes": len(payload),
                    "created": now,
                    "last_access": now,
                    "hits": 0,
                }
                if meta:
                    entry["meta"] = meta
                index["entries"][key] = entry
                index["counters"]["stores"] += 1
                self._evict_over_cap(index, keep=key)
                self._write_index(index)
            self._remember(key, components, canonical)

    # repro: holds(_lock)
    def _evict_over_cap(self, index: Dict[str, Any], *, keep: str) -> None:
        """Drop least-recently-used entries until the byte cap holds.

        Runs inside the caller's ``_lock``/``_ledger_guard`` critical
        section (see the ``holds`` pragma above).
        """
        entries = index["entries"]
        total = sum(e.get("size_bytes", 0) for e in entries.values())
        if total <= self.max_bytes:
            return
        # Oldest last-access first; the just-stored key always survives.
        victims = sorted(
            (k for k in entries if k != keep),
            key=lambda k: (entries[k].get("last_access", 0), k),
        )
        for victim in victims:
            if total <= self.max_bytes:
                break
            total -= entries[victim].get("size_bytes", 0)
            self._drop_entry(index, victim)
            index["counters"]["evictions"] += 1
            self._memory.pop(victim, None)

    # repro: holds(_lock)
    def _remember(
        self, key: str, components: List[PreparedComponent], stats: PreprocessStats
    ) -> None:
        """Admit one artifact to the memory LRU (caller holds ``_lock``)."""
        memory = self._memory
        memory[key] = (components, stats)
        memory.move_to_end(key)
        while len(memory) > DEFAULT_MEMORY_ENTRIES:
            memory.popitem(last=False)

    def fetch(
        self, key: str
    ) -> Optional[Tuple[List[PreparedComponent], PreprocessStats, str]]:
        """Return ``(components, stats, state)`` for ``key``, or None on miss.

        ``state`` distinguishes the in-process warm layer
        (:data:`STATE_HIT_MEMORY`) from a disk load (:data:`STATE_HIT`).
        The returned list is a fresh copy; the stats object is a fresh
        dataclass copy safe for the runtime to mutate.  Every failure mode
        — missing entry, missing file, checksum mismatch, truncated or
        unpicklable payload, schema mismatch — counts as a miss.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                components, stats = cached
                self._note_access(key, hit=True)
                return list(components), dataclasses.replace(stats), STATE_HIT_MEMORY
            loaded = self._load_from_disk(key)
            if loaded is None:
                self._note_access(key, hit=False)
                return None
            components, stats = loaded
            self._remember(key, components, stats)
            self._note_access(key, hit=True)
            return list(components), dataclasses.replace(stats), STATE_HIT

    def _load_from_disk(
        self, key: str
    ) -> Optional[Tuple[List[PreparedComponent], PreprocessStats]]:
        with self._ledger_guard():
            index = self._read_index()
            entry = index["entries"].get(key)
            if entry is None:
                return None
            try:
                with open(self._artifact_path(key), "rb") as handle:
                    payload = handle.read()
            except OSError:
                self._drop_entry(index, key)
                self._write_index(index)
                return None
            if hashlib.sha256(payload).hexdigest() != entry.get("sha256"):
                self._drop_entry(index, key)
                self._write_index(index)
                return None
            try:
                artifact = pickle.loads(payload)
            except Exception:
                self._drop_entry(index, key)
                self._write_index(index)
                return None
            if (
                not isinstance(artifact, dict)
                or artifact.get("schema") != ARTIFACT_SCHEMA
                or artifact.get("key") != key
            ):
                self._drop_entry(index, key)
                self._write_index(index)
                return None
            components = artifact.get("components")
            stats = artifact.get("stats")
            if not isinstance(components, list) or not isinstance(
                stats, PreprocessStats
            ):
                self._drop_entry(index, key)
                self._write_index(index)
                return None
            return components, stats

    def _note_access(self, key: str, *, hit: bool) -> None:
        """Record a hit/miss in the ledger (best effort, never raises)."""
        try:
            with self._ledger_guard():
                index = self._read_index()
                if hit:
                    index["counters"]["hits"] += 1
                    entry = index["entries"].get(key)
                    if entry is not None:
                        entry["hits"] = entry.get("hits", 0) + 1
                        entry["last_access"] = time.time()
                else:
                    index["counters"]["misses"] += 1
                self._write_index(index)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # introspection (the ``repro-lhcds cache`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Ledger entries as a list sorted by key (each includes ``key``)."""
        with self._lock:
            index = self._read_index()
        rows = []
        for key in sorted(index["entries"]):
            row = dict(index["entries"][key])
            row["key"] = key
            rows.append(row)
        return rows

    def counters(self) -> Dict[str, int]:
        """Cache-wide hit/miss/store/eviction counters."""
        with self._lock:
            return dict(self._read_index()["counters"])

    def summary(self) -> Dict[str, Any]:
        """Machine-readable cache summary (ledger + configuration)."""
        with self._lock:
            index = self._read_index()
            entries = index["entries"]
            return {
                "root": self.root,
                "schema": INDEX_SCHEMA,
                "num_entries": len(entries),
                "total_bytes": sum(e.get("size_bytes", 0) for e in entries.values()),
                "max_bytes": self.max_bytes,
                "memory_entries": len(self._memory),
                "counters": dict(index["counters"]),
            }

    def clear(self) -> int:
        """Drop every artifact and reset the ledger; return entries removed."""
        with self._lock:
            with self._ledger_guard():
                index = self._read_index()
                removed = len(index["entries"])
                for key in list(index["entries"]):
                    self._drop_entry(index, key)
                self._memory.clear()
                self._write_index(_fresh_index())
        return removed


_CACHES: Dict[str, PreprocessCache] = {}
_CACHES_LOCK = threading.Lock()


def cache_for(root: str) -> PreprocessCache:
    """Return the process-wide :class:`PreprocessCache` for a directory."""
    resolved = os.path.abspath(root)
    with _CACHES_LOCK:
        cache = _CACHES.get(resolved)
        if cache is None:
            cache = PreprocessCache(resolved)
            _CACHES[resolved] = cache
        return cache
