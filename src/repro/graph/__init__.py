"""Undirected graph substrate used by every algorithm in :mod:`repro`."""

from .components import (
    bfs_order,
    components_touching,
    connected_components,
    diameter,
    eccentricity,
    is_connected,
    shortest_path_lengths,
)
from .delta import GraphDelta
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    union_graph,
)
from .io import graph_from_edge_string, parse_edge_list, read_edge_list, write_edge_list
from .metrics import (
    average_clustering_coefficient,
    average_degree,
    degree_density,
    edge_density,
    local_clustering_coefficient,
    subgraph_diameter,
)
from .ordering import degeneracy_ordering

__all__ = [
    "Graph",
    "GraphDelta",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "union_graph",
    "bfs_order",
    "components_touching",
    "connected_components",
    "diameter",
    "eccentricity",
    "is_connected",
    "shortest_path_lengths",
    "graph_from_edge_string",
    "parse_edge_list",
    "read_edge_list",
    "write_edge_list",
    "average_clustering_coefficient",
    "average_degree",
    "degree_density",
    "edge_density",
    "local_clustering_coefficient",
    "subgraph_diameter",
    "degeneracy_ordering",
]
