"""The h-clique pattern (the paper's primary pattern family)."""

from __future__ import annotations

from typing import Iterator, Tuple

from ..cliques.kclist import clique_instances, enumerate_cliques
from ..errors import PatternError
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from .base import Pattern


class CliquePattern(Pattern):
    """The complete graph on ``h`` vertices (``psi_h`` in the paper)."""

    def __init__(self, h: int) -> None:
        if h < 1:
            raise PatternError(f"clique size must be >= 1, got {h}")
        self.size = h
        self.name = f"{h}-clique"

    def enumerate(self, graph: Graph) -> Iterator[Tuple[Vertex, ...]]:
        """Yield every h-clique once (delegates to the kClist enumerator)."""
        return enumerate_cliques(graph, self.size)

    def instances(self, graph: Graph) -> InstanceSet:
        """Stream cliques into the indexed builder (no re-validation)."""
        return clique_instances(graph, self.size)


class EdgePattern(CliquePattern):
    """The 2-clique, i.e. a single edge (the classic LDS setting)."""

    def __init__(self) -> None:
        super().__init__(2)
        self.name = "edge"


class TrianglePattern(CliquePattern):
    """The 3-clique (the LTDS setting)."""

    def __init__(self) -> None:
        super().__init__(3)
        self.name = "triangle"
