"""Named dataset registry standing in for the paper's Table 2.

The paper's 15 SNAP / NetworkRepository graphs are unavailable offline, so
each abbreviation maps to a deterministic synthetic graph whose *relative*
characteristics mirror the original: social networks are clumpy with several
dense cores, collaboration networks are clique-heavy, web graphs are sparse,
and the ordering of sizes is preserved (HA smallest, FX/WT largest).  Sizes
are scaled down so a pure-Python pipeline finishes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..cliques.kclist import count_cliques
from ..errors import DatasetError
from ..graph.graph import Graph
from .synthetic import hybrid_community_graph, planted_communities_graph


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: its paper abbreviation and how to generate it."""

    name: str
    abbreviation: str
    kind: str
    builder: Callable[[], Graph]
    description: str


def _communities(sizes, p_in, p_out, seed, background=0) -> Graph:
    graph, _ = planted_communities_graph(
        sizes, p_in=p_in, p_out=p_out, seed=seed, background=background
    )
    return graph


_SPECS: List[DatasetSpec] = [
    DatasetSpec(
        name="soc-hamsterster",
        abbreviation="HA",
        kind="social",
        builder=lambda: _communities([12, 10, 9, 8, 8], 0.9, 0.03, seed=11, background=20),
        description="small social network with several tight friend groups",
    ),
    DatasetSpec(
        name="CA-GrQc",
        abbreviation="GQ",
        kind="collaboration",
        builder=lambda: _communities([14, 11, 9, 7, 6, 6], 0.95, 0.01, seed=12, background=25),
        description="collaboration network: co-authorship cliques",
    ),
    DatasetSpec(
        name="fb-pages-politician",
        abbreviation="PP",
        kind="social",
        builder=lambda: hybrid_community_graph(6, 12, p_in=0.7, attachment=2, seed=13),
        description="page-page network with overlapping communities",
    ),
    DatasetSpec(
        name="fb-pages-company",
        abbreviation="PC",
        kind="social",
        builder=lambda: hybrid_community_graph(7, 11, p_in=0.65, attachment=2, seed=14),
        description="page-page network, moderately dense",
    ),
    DatasetSpec(
        name="web-webbase-2001",
        abbreviation="WB",
        kind="web",
        builder=lambda: _communities([8, 7, 6], 0.8, 0.008, seed=15, background=60),
        description="sparse web graph with few dense pockets",
    ),
    DatasetSpec(
        name="CA-CondMat",
        abbreviation="CM",
        kind="collaboration",
        builder=lambda: _communities([13, 12, 10, 9, 8, 7, 6], 0.92, 0.01, seed=16, background=30),
        description="collaboration network with many co-authorship cliques",
    ),
    DatasetSpec(
        name="soc-epinions",
        abbreviation="EP",
        kind="social",
        builder=lambda: hybrid_community_graph(8, 11, p_in=0.6, attachment=3, seed=17),
        description="trust network, heavy-tailed degrees",
    ),
    DatasetSpec(
        name="Email-Enron",
        abbreviation="EN",
        kind="communication",
        builder=lambda: hybrid_community_graph(9, 12, p_in=0.6, attachment=3, seed=18),
        description="email communication network",
    ),
    DatasetSpec(
        name="loc-gowalla",
        abbreviation="GW",
        kind="social",
        builder=lambda: hybrid_community_graph(10, 12, p_in=0.55, attachment=3, seed=19),
        description="location-based social network",
    ),
    DatasetSpec(
        name="DBLP",
        abbreviation="DB",
        kind="collaboration",
        builder=lambda: _communities(
            [15, 12, 11, 10, 9, 8, 8, 7], 0.9, 0.008, seed=20, background=40
        ),
        description="co-authorship network, very clique-heavy",
    ),
    DatasetSpec(
        name="Amazon",
        abbreviation="AM",
        kind="co-purchase",
        builder=lambda: _communities([9, 8, 8, 7, 7, 6], 0.75, 0.006, seed=21, background=80),
        description="product co-purchase network, sparse with small cores",
    ),
    DatasetSpec(
        name="soc-youtube",
        abbreviation="YT",
        kind="social",
        builder=lambda: hybrid_community_graph(11, 12, p_in=0.5, attachment=3, seed=22),
        description="large social network",
    ),
    DatasetSpec(
        name="soc-lastfm",
        abbreviation="LF",
        kind="social",
        builder=lambda: hybrid_community_graph(12, 12, p_in=0.5, attachment=3, seed=23),
        description="music social network",
    ),
    DatasetSpec(
        name="soc-flixster",
        abbreviation="FX",
        kind="social",
        builder=lambda: hybrid_community_graph(13, 12, p_in=0.45, attachment=3, seed=24),
        description="movie social network",
    ),
    DatasetSpec(
        name="soc-wiki-talk",
        abbreviation="WT",
        kind="communication",
        builder=lambda: hybrid_community_graph(14, 12, p_in=0.45, attachment=3, seed=25),
        description="wiki talk-page network",
    ),
]

_BY_KEY: Dict[str, DatasetSpec] = {}
for spec in _SPECS:
    _BY_KEY[spec.name.lower()] = spec
    _BY_KEY[spec.abbreviation.lower()] = spec


def dataset_abbreviations() -> List[str]:
    """Return the Table-2 abbreviations in the paper's order."""
    return [s.abbreviation for s in _SPECS]


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by full name or abbreviation."""
    key = name.strip().lower()
    if key not in _BY_KEY:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(dataset_abbreviations())}"
        )
    return _BY_KEY[key]


def load_dataset(name: str) -> Graph:
    """Generate the synthetic stand-in graph for the named dataset."""
    return get_spec(name).builder()


def dataset_statistics(name: str, clique_sizes=(3, 5)) -> Dict[str, int]:
    """Return the Table-2 style statistics for one dataset."""
    graph = load_dataset(name)
    stats = {"|V|": graph.num_vertices, "|E|": graph.num_edges}
    for h in clique_sizes:
        stats[f"|Psi{h}|"] = count_cliques(graph, h)
    return stats
