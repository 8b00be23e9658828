"""LTDS baseline (Samusevich et al. 2016) — locally triangle densest subgraphs.

LTDS is the h = 3 specialisation of the locally densest subgraph problem.
It shares LDSflow's skeleton over triangles: extract the maximal densest
subset of the not-yet-output region with a parametric min-cut search, then
verify it with the basic full-graph flow check — the bottlenecks the
paper's Table 3 measures IPPV against.
"""

from __future__ import annotations

from typing import Optional

from ..graph.graph import Graph
from ..instances import InstanceSet
from ..lhcds.ippv import LhCDSResult
from .ldsflow import _topk_by_extraction


def ltds(graph: Graph, instances: InstanceSet, k: Optional[int] = None) -> LhCDSResult:
    """Top-k locally triangle densest subgraphs via the flow-heavy baseline.

    ``instances`` are the graph's triangles (h = 3).
    """
    return _topk_by_extraction(graph, instances, k, label="triangle (LTDS)")
