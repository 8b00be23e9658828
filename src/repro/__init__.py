"""repro — Locally h-clique densest subgraph discovery (IPPV).

Reproduction of "An Efficient and Exact Algorithm for Locally h-Clique
Densest Subgraph Discovery".  The public API re-exports the most commonly
used entry points; see the subpackages for the full toolkit:

* :mod:`repro.engine` — unified solver engine (registry, shared
  preprocessing, components solved on the serial or process backend)
* :mod:`repro.graph` — graph substrate
* :mod:`repro.cliques` / :mod:`repro.patterns` — instance enumeration
* :mod:`repro.lhcds` — the IPPV algorithm and its components
* :mod:`repro.baselines` — LDSflow, LTDS and Greedy baselines
* :mod:`repro.datasets` — synthetic and embedded datasets
* :mod:`repro.experiments` — table/figure reproduction harness
"""

from __future__ import annotations

__version__ = "1.0.0"

from .graph import Graph
from .instances import InstanceSet, InstanceSetBuilder
from .patterns import CliquePattern, Pattern, get_pattern

__all__ = [
    "Graph",
    "InstanceSet",
    "InstanceSetBuilder",
    "CliquePattern",
    "Pattern",
    "get_pattern",
    "__version__",
]


def __getattr__(name: str):
    """Lazily expose the heavier entry points to keep import time low."""
    if name in {"find_lhcds", "IPPV", "LhCDSResult", "DenseSubgraph", "IPPVConfig"}:
        from . import lhcds

        return getattr(lhcds, name)
    if name == "datasets":
        from . import datasets

        return datasets
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
