"""Pattern (motif) abstraction for the LhxPDS extension (Section 5).

A :class:`Pattern` knows its vertex count ``size`` and how to enumerate its
occurrences in a host graph.  Occurrences are *non-induced embeddings counted
once up to pattern automorphism* — the standard motif-counting convention —
and are returned as tuples of distinct vertices packaged into an
:class:`~repro.instances.InstanceSet`, which is all the IPPV pipeline needs.
"""

from __future__ import annotations

import abc
from typing import Iterator, Tuple

from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet


class Pattern(abc.ABC):
    """Base class for small patterns whose density IPPV can optimise."""

    #: Human-readable pattern name (used by the registry and the CLI).
    name: str = "pattern"
    #: Number of vertices of the pattern (``h`` in the paper's notation).
    size: int = 0

    @abc.abstractmethod
    def enumerate(self, graph: Graph) -> Iterator[Tuple[Vertex, ...]]:
        """Yield each occurrence of the pattern exactly once."""

    def instances(self, graph: Graph) -> InstanceSet:
        """Return all occurrences packaged as an :class:`InstanceSet`."""
        return InstanceSet.from_instances(self.size, self.enumerate(graph))

    def count(self, graph: Graph) -> int:
        """Return the number of occurrences of the pattern in ``graph``."""
        return sum(1 for _ in self.enumerate(graph))

    def density(self, graph: Graph):
        """Return the exact pattern density ``|occurrences| / |V|``."""
        from fractions import Fraction

        from ..errors import PatternError

        if graph.num_vertices == 0:
            raise PatternError("pattern density of an empty graph is undefined")
        return Fraction(self.count(graph), graph.num_vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, size={self.size})"
