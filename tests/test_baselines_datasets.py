"""Tests for the baselines, the dataset generators/registry, and the CLI."""

from fractions import Fraction

import pytest

from repro.baselines import greedy_topk_cds, lds_flow, ltds
from repro.cli import main as cli_main
from repro.cliques import clique_instances, count_cliques
from repro.datasets import (
    barabasi_albert_graph,
    dataset_abbreviations,
    dataset_statistics,
    figure2_like_graph,
    get_spec,
    gnp_graph,
    harry_potter_graph,
    hybrid_community_graph,
    load_dataset,
    planted_communities_graph,
    political_books_graph,
    sample_edges,
    watts_strogatz_graph,
)
from repro.errors import DatasetError
from repro.lhcds import find_lhcds


class TestBaselines:
    def test_ldsflow_matches_ippv_on_small_graph(self, figure2):
        baseline = lds_flow(figure2, clique_instances(figure2, 2), k=2)
        ippv = find_lhcds(figure2, h=2, k=2)
        assert {frozenset(s.vertices) for s in baseline.subgraphs} >= {
            frozenset(ippv.subgraphs[0].vertices)
        }

    def test_ltds_top1_matches_ippv(self, figure2):
        baseline = ltds(figure2, clique_instances(figure2, 3), k=1)
        ippv = find_lhcds(figure2, h=3, k=1)
        assert baseline.subgraphs[0].vertices == ippv.subgraphs[0].vertices
        assert baseline.subgraphs[0].density == ippv.subgraphs[0].density

    def test_ltds_outputs_are_verified_lhcds(self, two_cliques):
        baseline = ltds(two_cliques, clique_instances(two_cliques, 3), k=5)
        ippv = find_lhcds(two_cliques, h=3)
        assert {frozenset(s.vertices) for s in baseline.subgraphs} <= {
            frozenset(s.vertices) for s in ippv.subgraphs
        }

    def test_greedy_top1_matches_densest(self, figure2):
        greedy = greedy_topk_cds(figure2, clique_instances(figure2, 3), k=3)
        ippv = find_lhcds(figure2, h=3, k=1)
        assert greedy.subgraphs[0].density >= ippv.subgraphs[0].density * Fraction(1, 3)
        assert len(greedy.subgraphs) >= 2

    def test_greedy_respects_k(self, figure2):
        greedy = greedy_topk_cds(figure2, clique_instances(figure2, 3), k=1)
        assert len(greedy.subgraphs) == 1


class TestSyntheticGenerators:
    def test_gnp_determinism(self):
        a = gnp_graph(30, 0.2, seed=3)
        b = gnp_graph(30, 0.2, seed=3)
        assert a == b

    def test_gnp_invalid_params(self):
        with pytest.raises(DatasetError):
            gnp_graph(10, 1.5)

    def test_gnp_extremes(self):
        assert gnp_graph(10, 0.0).num_edges == 0
        assert gnp_graph(6, 1.0).num_edges == 15

    def test_barabasi_albert_degrees(self):
        g = barabasi_albert_graph(50, 2, seed=1)
        assert g.num_vertices == 50
        assert g.num_edges >= 48
        with pytest.raises(DatasetError):
            barabasi_albert_graph(3, 5)

    def test_watts_strogatz(self):
        g = watts_strogatz_graph(20, 4, 0.1, seed=2)
        assert g.num_vertices == 20
        assert g.num_edges >= 30
        with pytest.raises(DatasetError):
            watts_strogatz_graph(10, 3, 0.1)

    def test_planted_communities_structure(self):
        g, labels = planted_communities_graph([6, 5], p_in=1.0, p_out=0.0, seed=0)
        assert count_cliques(g.induced_subgraph([v for v, c in labels.items() if c == 0]), 3) == 20
        # No direct edges between distinct communities by default.
        for u, v in g.edges():
            assert labels[u] == labels[v] or -1 in (labels[u], labels[v])

    def test_planted_communities_direct_cross(self):
        g, labels = planted_communities_graph(
            [5, 5], p_in=1.0, p_out=1.0, seed=0, direct_cross=True
        )
        cross = [e for e in g.edges() if labels[e[0]] != labels[e[1]]]
        assert cross

    def test_sample_edges_fraction(self):
        g = gnp_graph(40, 0.3, seed=5)
        half = sample_edges(g, 0.5, seed=1)
        assert half.num_vertices == g.num_vertices
        assert 0 < half.num_edges < g.num_edges
        assert sample_edges(g, 1.0).num_edges == g.num_edges
        assert sample_edges(g, 0.0).num_edges == 0
        with pytest.raises(DatasetError):
            sample_edges(g, 1.5)

    def test_hybrid_community_graph_has_multiple_lhcds(self):
        g = hybrid_community_graph(4, 8, p_in=0.9, seed=3)
        result = find_lhcds(g, h=3, k=4)
        assert len(result.subgraphs) >= 3


class TestExampleGraphs:
    def test_figure2_statistics(self):
        g = figure2_like_graph()
        assert g.num_vertices == 20
        s1 = range(12, 18)
        assert count_cliques(g.induced_subgraph(s1), 3) == 13
        assert count_cliques(g.induced_subgraph(range(2, 7)), 3) == 10
        assert count_cliques(g.induced_subgraph(range(2, 7)), 4) == 5

    def test_harry_potter_top_communities(self):
        g, labels = harry_potter_graph()
        result = find_lhcds(g, h=3, k=2)
        top1 = {labels[v] for v in result.subgraphs[0].vertices}
        top2 = {labels[v] for v in result.subgraphs[1].vertices}
        assert top1 == {"Weasley family"}
        assert top2 == {"Death Eaters"}

    def test_political_books_labels(self):
        g, labels = political_books_graph()
        assert set(labels.values()) == {"liberal", "conservative", "neutral"}
        assert g.num_vertices == len(labels)


class TestRegistry:
    def test_all_datasets_load(self):
        for abbr in dataset_abbreviations():
            g = load_dataset(abbr)
            assert g.num_vertices > 0
            assert g.num_edges > 0

    def test_lookup_by_name_and_abbreviation(self):
        assert get_spec("HA").name == "soc-hamsterster"
        assert get_spec("soc-hamsterster").abbreviation == "HA"

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("not-a-dataset")

    def test_statistics_fields(self):
        stats = dataset_statistics("HA")
        assert set(stats) == {"|V|", "|E|", "|Psi3|", "|Psi5|"}
        assert stats["|Psi3|"] > 0

    def test_datasets_are_deterministic(self):
        assert load_dataset("PC") == load_dataset("PC")

    def test_datasets_have_multiple_lhcds(self):
        result = find_lhcds(load_dataset("HA"), h=3, k=5)
        assert len(result.subgraphs) == 5


class TestCLI:
    def test_datasets_command(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "soc-hamsterster" in out

    def test_topk_on_dataset(self, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--h", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "density=" in out

    def test_topk_on_edge_list(self, tmp_path, capsys):
        from repro.graph import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(figure2_like_graph(), path)
        assert cli_main(["topk", "--edge-list", str(path), "--k", "1"]) == 0
        assert "1." in capsys.readouterr().out

    def test_unknown_dataset_is_an_error(self, capsys):
        assert cli_main(["topk", "--dataset", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["ippv", "exact"])
    def test_negative_iterations_is_a_plain_error(self, capsys, solver):
        # Rejected by the request itself, not wrapped in a failed task.
        argv = ["topk", "--dataset", "HA", "--k", "1", "--solver", solver, "--iterations", "-1"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: iterations must be non-negative, got -1\n"
