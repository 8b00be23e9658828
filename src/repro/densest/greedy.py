"""Greedy peeling approximation for the (h-clique / pattern) densest subgraph.

The classic Charikar-style peeling generalises to instance density: repeatedly
remove the vertex with minimum remaining instance degree and remember the best
suffix of the removal order.  For h-cliques this is a 1/h-approximation; the
paper uses it as the locality-free baseline (Figure 14), which
:mod:`repro.baselines.greedy_topk` builds on.  The peel itself is
:func:`repro.cores.clique_core.peel`, shared with the core-number bounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Set, Tuple

from ..cores.clique_core import peel
from ..errors import AlgorithmError
from ..graph.graph import Vertex
from ..instances import InstanceSet


def greedy_densest_subset(
    instances: InstanceSet, vertices: Optional[Iterable[Vertex]] = None
) -> Tuple[Set[Vertex], Fraction]:
    """Return the densest suffix of the peeling order and its exact density.

    This is the standard greedy approximation: the returned set is the
    remaining graph just before the step whose removal would hurt most.
    """
    result = peel(instances, vertices)
    if not result.order:
        raise AlgorithmError("cannot peel an empty vertex universe")
    return set(result.densest_suffix), result.density
