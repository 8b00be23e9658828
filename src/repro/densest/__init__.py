"""Densest-subgraph primitives (exact flow-based and greedy approximations)."""

from .exact import diminishingly_dense_decomposition, maximal_densest_subset
from .greedy import greedy_densest_subset

__all__ = [
    "diminishingly_dense_decomposition",
    "maximal_densest_subset",
    "greedy_densest_subset",
]
