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
#: community case at h = 4 runs refinements, and the G(n, p) case a
#: refinement and an exact split.
GOLDEN = [
    (
        "ippv-community-h3",
        lambda: hybrid_community_graph(40, 14, seed=0),
        3,
        "ippv",
        "73883d394627552b93c5e0f1bcd772b917312606b5c090551e57b76235fd138d",
    ),
    (
        "ippv-community-h4",
        lambda: hybrid_community_graph(40, 14, seed=0),
        4,
        "ippv",
        "5f4ae9920cd536c05abc579a8179fe18512acab2c76837994b8e98746908a753",
    ),
    (
        "ippv-community-h5",
        lambda: hybrid_community_graph(40, 14, seed=0),
        5,
        "ippv",
        "e980b837019f19cc95fc614f3bebe92153940c12f8deb5e125c28c45f7adc6a0",
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
