"""Synthetic and embedded datasets (offline stand-ins for the paper's Table 2)."""

from .examples import figure2_like_graph, harry_potter_graph, political_books_graph
from .registry import (
    DatasetSpec,
    dataset_abbreviations,
    dataset_statistics,
    get_spec,
    load_dataset,
)
from .synthetic import (
    barabasi_albert_graph,
    gnp_graph,
    hybrid_community_graph,
    planted_communities_graph,
    sample_edges,
    watts_strogatz_graph,
)

__all__ = [
    "figure2_like_graph",
    "harry_potter_graph",
    "political_books_graph",
    "DatasetSpec",
    "dataset_abbreviations",
    "dataset_statistics",
    "get_spec",
    "load_dataset",
    "barabasi_albert_graph",
    "gnp_graph",
    "hybrid_community_graph",
    "planted_communities_graph",
    "sample_edges",
    "watts_strogatz_graph",
]
