"""Golden report fingerprints: absolute output, pinned by hash.

Every other bit-identity test compares two paths of the same tree (solver
against solver, serial against process, warm against cold).  A change to a
stage that all of them share, such as a tie-break in Frank–Wolfe or
TentativeGD, moves both sides and passes those tests.  These cases pin the
sha256 of ``report_signature`` instead, which covers the subgraphs, their
exact densities and the IPPV and verification counters.

The hashes do not depend on ``PYTHONHASHSEED``.  A change that alters
output on purpose updates the hash it moves and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets.synthetic import barabasi_albert_graph, gnp_graph, hybrid_community_graph
from repro.engine import report_signature, solve

#: (case id, graph builder, h, solver, sha256 of report_signature).  The
#: community cases at h = 4 and 5 run refinements and an exact split.
GOLDEN = [
    (
        "ippv-community-h3",
        lambda: hybrid_community_graph(40, 14, seed=0),
        3,
        "ippv",
        "0e1f8dc15773119fcabd495d11559a8e8647f83b04299fcf92e773a035800edf",
    ),
    (
        "ippv-community-h4",
        lambda: hybrid_community_graph(40, 14, seed=0),
        4,
        "ippv",
        "e1ad37df1e6dd179f4c29df242f7c30eb1b00fe3ac4f06a6dfb79f6b5660a28d",
    ),
    (
        "ippv-community-h5",
        lambda: hybrid_community_graph(40, 14, seed=0),
        5,
        "ippv",
        "c6e5bc7b471e40816bc33a9868e2393e8ed0d046c58d4823b0fb3dbed68446e3",
    ),
    (
        "ippv-gnp-h2",
        lambda: gnp_graph(200, 0.05, seed=2),
        2,
        "ippv",
        "b433c44413f850958b6e8ec96b6d60810a396b856ee1abf2afcb0a7be6afb8ed",
    ),
    (
        "exact-ba-h3",
        lambda: barabasi_albert_graph(600, 4, seed=1),
        3,
        "exact",
        "1633382439fc1261361449b9e7832abab83ddf6646a2a8ceaee66f792c5f445d",
    ),
]


@pytest.mark.parametrize(
    "build, h, solver, expected",
    [case[1:] for case in GOLDEN],
    ids=[case[0] for case in GOLDEN],
)
def test_report_fingerprint(build, h, solver, expected):
    report = solve(graph=build(), pattern=h, k=10, solver=solver)
    digest = hashlib.sha256(report_signature(report).encode("utf-8")).hexdigest()
    assert digest == expected
