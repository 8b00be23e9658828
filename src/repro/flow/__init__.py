"""Exact max-flow / min-cut machinery used by the verification algorithms."""

from .dinic import FlatFlowNetwork, MaxFlowNetwork
from .network import (
    SINK,
    SOURCE,
    FractionalArcCollector,
    scaled_capacity,
    solve_compact_network,
)

__all__ = [
    "FlatFlowNetwork",
    "MaxFlowNetwork",
    "SINK",
    "SOURCE",
    "FractionalArcCollector",
    "scaled_capacity",
    "solve_compact_network",
]
