"""h-clique enumeration and counting (the kClist substrate)."""

from .counting import (
    clique_count_profile,
    subgraph_clique_count,
    triangle_count,
)
from .kclist import (
    clique_instances,
    count_cliques,
    enumerate_cliques,
)

__all__ = [
    "clique_count_profile",
    "subgraph_clique_count",
    "triangle_count",
    "clique_instances",
    "count_cliques",
    "enumerate_cliques",
]
